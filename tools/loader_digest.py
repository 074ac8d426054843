"""One digest of what the scenario loader makes of generated scenarios.

    python tools/loader_digest.py ROOT

ROOT is a checkout of this repository.  The script loads seeds 0-2999 of
`tests/test_scenario.py::scenario_text` from ROOT, with ROOT's own
`lowpan`, under each gateway mode override (none, border, devid, zigbee,
bridge).  A world that loads runs to `min(t_end, 30)`, and its outcome is
the sha256 of its trace.tsv and metrics.txt lines; a refused scenario's
outcome is its `ScenarioError` text, and any other exception its type and
text.  It prints the counts of each and one sha256 over every outcome in
order, so two checkouts whose loaders and simulators agree print the same
line.  Stdlib only, but `tests/test_scenario.py` needs the test
dependencies importable.  It takes about 6 s on one core.
"""

import hashlib
import random
import sys
from pathlib import Path

SEEDS = range(3000)
MODES = (None, "border", "devid", "zigbee", "bridge")
RUN_LIMIT = 30.0  # simulated seconds


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/loader_digest.py ROOT", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from lowpan.scenario import ScenarioError, load_scenario
    from test_scenario import scenario_text

    digest = hashlib.sha256()
    counts = {"run": 0, "refused": 0, "other": 0}
    for seed in SEEDS:
        text = scenario_text(random.Random(seed))
        for mode in MODES:
            try:
                world, t_end = load_scenario(text, mode_override=mode)
            except ScenarioError as exc:
                kind, outcome = "refused", str(exc)
            except Exception as exc:  # any other failure is an outcome to compare too
                kind, outcome = "other", f"{type(exc).__name__}: {exc}"
            else:
                world.run_until(min(t_end, RUN_LIMIT))
                run = hashlib.sha256()
                for line in world.trace_lines():
                    run.update(line.encode() + b"\n")
                for line in world.metrics_lines():
                    run.update(line.encode() + b"\n")
                kind, outcome = "run", run.hexdigest()
            counts[kind] += 1
            digest.update(f"{seed} {mode} {kind} {outcome}\n".encode())
    print(" ".join(f"{kind}={count}" for kind, count in counts.items()), digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
