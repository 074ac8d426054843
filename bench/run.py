"""Benchmark of the lowpan simulator on seeded, generated scenarios.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload NAME --seed N --dump FILE.scn
    python3 bench/run.py --workload all [--seconds S]

NAME is one of mesh-900, frag-1280, gateway-mix (see workloads.py and
spec.json for why each exists).  The scenario text is generated from the
seed and run through the same path as `lowpan run`: load_scenario ->
World.prepare -> World.run_until -> trace_lines/metrics_lines.  The run
is repeated for S seconds of host time in one process and each timing is
the median over the repetitions.  Each phase's host time is scaled by a
calibration kernel timed beside it (see calibrate), so that drift in the
host's speed cancels; the unscaled medians are printed too.  This is a
batch simulator: traffic is offered on a schedule in simulated time, so
the numbers are host-time costs of a fixed amount of simulated work.

With --trace 0 the end-to-end metrics are printed: setup_s (load and
routing), sim_s (event loop), wall_s (setup + sim + rendering the trace
and metrics text), records_per_s (trace records / sim_s) and peak_rss_mb.
With --trace 1 the same untraced repetitions run first, then traced ones
(see tracing.py) that give the per-layer metrics; the spans of the last
traced repetition are written to bench/out/.

Every repetition is checked: it must not raise, unicast deliveries must
not exceed datagrams sent, and the SHA-256 digest of trace.tsv followed
by metrics.txt must equal that of every other repetition of the seed,
traced or not.  The digest equals `cat trace.tsv metrics.txt | sha256sum`
for `lowpan run` on the dumped scenario.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  The
exit code is 1 when a check failed, 2 when the lowpan sources are
missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = [
    ("setup_s", "s"), ("sim_s", "s"), ("wall_s", "s"),
    ("records_per_s", "1/s"), ("peak_rss_mb", "MB"),
]

# Host seconds of calibrate() on the machine the benchmark was calibrated
# on (spec.json).  Reported times are scaled to that machine speed.
REFERENCE_CALIB_S = 0.040
_CALIB_DATA = bytes((i * 37 + 11) & 0xFF for i in range(24 * 1024))


def calibrate() -> float:
    """Host seconds of a fixed pure-Python kernel that does not use lowpan.

    On a shared host the speed one process gets can drift by tens of
    percent over seconds to minutes.  Timing this kernel right before and
    after each measured phase and dividing by it cancels most of that drift.
    The collector is off so that live simulator objects cannot slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        crc = 0
        for byte in _CALIB_DATA:
            crc ^= byte << 8
            for _ in range(8):
                crc = ((crc << 1) ^ 0x1021 if crc & 0x8000 else crc << 1) & 0xFFFF
        table = {}
        for i in range(30000):
            table[i] = i & 0xFF
        "".join(f"{i * 0.001:.6f}\tn{i}\t{i}\n" for i in range(10000))
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


@dataclass
class Rep:
    """Timings and output digest of one run of a scenario.

    `*_raw` are host seconds as measured.  `calib_setup` and `calib_sim`
    are the mean calibrate() times around the setup phase and around the
    sim and render phases.  The reported `*_s` times are the raw ones
    scaled by REFERENCE_CALIB_S / calib.
    """

    setup_raw: float
    sim_raw: float
    render_raw: float
    calib_setup: float
    calib_sim: float
    records: int
    digest: str

    @property
    def setup_s(self) -> float:
        return self.setup_raw * REFERENCE_CALIB_S / self.calib_setup

    @property
    def sim_s(self) -> float:
        return self.sim_raw * REFERENCE_CALIB_S / self.calib_sim

    @property
    def render_s(self) -> float:
        return self.render_raw * REFERENCE_CALIB_S / self.calib_sim

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.sim_s + self.render_s

    @property
    def wall_raw(self) -> float:
        return self.setup_raw + self.sim_raw + self.render_raw

    @property
    def records_per_s(self) -> float:
        return self.records / self.sim_s


def run_once(text: str):
    """One `lowpan run` of scenario text, in process; returns (Rep, world)."""
    from lowpan import scenario

    c0 = calibrate()
    t0 = perf_counter()
    world, t_end = scenario.load_scenario(text)
    world.prepare()
    t1 = perf_counter()
    c1 = calibrate()
    t2 = perf_counter()
    world.run_until(t_end)
    t3 = perf_counter()
    trace_text = "".join(line + "\n" for line in world.trace_lines())
    metrics_text = "".join(line + "\n" for line in world.metrics_lines())
    t4 = perf_counter()
    c2 = calibrate()
    digest = hashlib.sha256((trace_text + metrics_text).encode()).hexdigest()
    rep = Rep(t1 - t0, t3 - t2, t4 - t3, (c0 + c1) / 2, (c1 + c2) / 2, len(world.trace), digest)
    return rep, world


def check(world) -> list[str]:
    """Output checks of one finished run; returns the failures."""
    problems = []
    sent = world.metrics.get("sent", 0)
    # A flood copy a gateway relays to a subscribed host counts as
    # delivered although the flood counts as bcast_sent, not sent.
    relayed = sum(1 for r in world.trace if r.kind == "gw-translate" and "dir=bcast" in r.detail)
    delivered = world.metrics.get("delivered", 0) - relayed
    if delivered > sent:
        problems.append(f"unicast delivered {delivered} > sent {sent}")
    return problems


class Session:
    """Repetitions of one workload and seed, with their check results."""

    def __init__(self, text: str):
        self.text = text
        self.reps: list[Rep] = []
        self.traced: list[Rep] = []
        self.layers: list[dict[str, float]] = []
        self.failures: list[str] = []
        self.digest: str | None = None
        self.tracer = None

    @property
    def attempted(self) -> int:
        return len(self.reps) + len(self.traced) + len(self.failures)

    def repeat(self, seconds: float, traced: bool = False):
        """Run repetitions until `seconds` of host time have passed (at least one)."""
        deadline = perf_counter() + seconds
        first = True
        while first or perf_counter() < deadline:
            first = False
            gc.collect()
            try:
                rep, problems = self._one(traced)
            except Exception:  # a run that raises is a failed run; keep measuring
                self.failures.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
                continue
            if self.digest is None:
                self.digest = rep.digest
            if rep.digest != self.digest:
                problems.append(f"digest {rep.digest[:16]} differs from {self.digest[:16]}")
            if problems:
                self.failures.append("; ".join(problems))
            else:
                (self.traced if traced else self.reps).append(rep)

    def _one(self, traced: bool):
        if not traced:
            rep, world = run_once(self.text)
            return rep, check(world)
        from tracing import Tracer, layer_metrics

        with Tracer() as tracer:
            rep, world = run_once(self.text)
        problems = check(world)
        self.layers.append(layer_metrics(tracer, world, rep))
        self.tracer = tracer
        return rep, problems

    def end_to_end(self) -> dict[str, float]:
        med = statistics.median
        return {
            "setup_s": med(r.setup_s for r in self.reps),
            "sim_s": med(r.sim_s for r in self.reps),
            "wall_s": med(r.wall_s for r in self.reps),
            "records_per_s": med(r.records_per_s for r in self.reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        out = {name: statistics.median(d[name] for d in self.layers) for name in self.layers[0]}
        out["bench.trace_overhead_s"] = (
            statistics.median(r.wall_s for r in self.traced)
            - statistics.median(r.wall_s for r in self.reps)
        )
        return out


def _print_table(title: str, values: dict[str, float], units: dict[str, str], reps=None):
    print(title)
    for name, value in values.items():
        line = f"  {name:<44} {value:>16.6g} {units[name]}"
        if reps is not None and name in ("setup_s", "sim_s", "wall_s", "records_per_s"):
            samples = [getattr(r, name) for r in reps]
            line += f"   (median of n={len(samples)}, min {min(samples):.6g}, max {max(samples):.6g}"
            if name != "records_per_s":
                raw = statistics.median(getattr(r, name.replace("_s", "_raw")) for r in reps)
                line += f"; unscaled {raw:.6g} s"
            line += ")"
        print(line)
    if reps is not None:
        calib = statistics.median(r.calib_sim for r in reps)
        print(f"  times scaled by {REFERENCE_CALIB_S} s / calibrate() time (median {calib:.6g} s)")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    session = Session(workloads.WORKLOADS[name](seed))
    session.repeat(seconds)
    if trace and session.reps:
        session.repeat(seconds, traced=True)
    correct = bool(session.reps) and not session.failures and (not trace or bool(session.traced))

    print(f"workload {name}  seed {seed}  python {platform.python_version()}  nproc {os.cpu_count()}")
    metrics, units = (session.end_to_end() if session.reps else {}), dict(END_TO_END)
    if metrics:
        _print_table("end to end (untraced):", metrics, units, session.reps)
    if trace:
        from tracing import PER_LAYER

        metrics, units = (session.per_layer() if session.layers else {}), dict(PER_LAYER)
        if metrics:
            _print_table("per layer (traced):", metrics, units)
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"{name}-{seed}-spans.tsv"
            session.tracer.write_spans(spans)
            print(f"spans: {spans.relative_to(HERE.parent)} ({len(session.tracer.span_name)} spans)")
    print(f"digest sha256:{session.digest}")
    print(f"error_rate {len(session.failures) / max(session.attempted, 1):.6g} ratio "
          f"({len(session.failures)} failed of {session.attempted} runs)")
    for failure in session.failures:
        print(f"  failed: {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None:
            total["correct"] = False
            print(f"workload {name} exited {proc.returncode}")
        if result is not None:
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    spec = json.loads((HERE / "spec.json").read_text())
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump", metavar="FILE", help="write the generated scenario and exit")
    args = parser.parse_args(argv)
    if args.dump:
        if args.workload == "all":
            parser.error("--dump needs one workload")
        Path(args.dump).write_text(workloads.WORKLOADS[args.workload](args.seed))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    if not (SRC / "lowpan" / "__init__.py").is_file():
        print(f"bench/run.py: lowpan sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
