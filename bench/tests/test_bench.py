"""Tests of the benchmark itself: generators, output checks and tracing.

Run with `python3 -m pytest bench/tests` from the repository root.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lowpan
import run
import tracing
import workloads
from lowpan import cli

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    gen = workloads.WORKLOADS[name]
    assert gen(7) == gen(7)
    assert gen(7) != gen(8)
    assert gen(7, small=True) == gen(7, small=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_run_passes_checks_and_tracing_keeps_the_digest(name):
    text = workloads.WORKLOADS[name](3, small=True)
    rep, world = run.run_once(text)
    assert run.check(world) == []
    assert rep.records > 0 and rep.sim_s > 0
    with tracing.Tracer() as tracer:
        traced, traced_world = run.run_once(text)
    assert traced.digest == rep.digest
    layers = tracing.layer_metrics(tracer, traced_world, traced)
    assert list(layers) == [n for n, _ in tracing.PER_LAYER[:-1]]
    assert layers["netsim.trace_records"] == rep.records
    assert layers["netsim.World.step.calls"] > 0


def test_check_flags_more_unicast_deliveries_than_sends():
    _rep, world = run.run_once(workloads.gateway_mix(1, small=True))
    assert run.check(world) == []
    world.metrics["delivered"] += 1
    assert run.check(world) != []


def test_tracer_restores_every_binding():
    def snapshot():
        out = {}
        for mod_name, mod in sys.modules.items():
            if mod_name == "lowpan" or mod_name.startswith("lowpan."):
                out.update({(mod_name, k): v for k, v in vars(mod).items()})
        for cls in (lowpan.netsim.World, lowpan.gateway.Gateway):
            out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
        return out

    before = snapshot()
    with tracing.Tracer():
        during = snapshot()
        run.run_once(workloads.gateway_mix(1, small=True))
    for key in [("lowpan", "encode_mac_frame"), ("lowpan.frame", "encode_mac_frame"),
                ("lowpan.netsim", "encode_mac_frame"), ("lowpan.gateway", "compress_ipv6"),
                ("lowpan.frame", "crc16"), ("World", "step"), ("Gateway", "zigbee_uplink")]:
        assert during[key] is not before[key], key
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_run_counts_the_mode_translations():
    with tracing.Tracer() as tracer:
        rep, world = run.run_once(workloads.gateway_mix(2, small=True))
    layers = tracing.layer_metrics(tracer, world, rep)
    for method in tracing._GATEWAY_METHODS:
        assert layers[f"gateway.Gateway.{method}.calls"] > 0, method
        assert layers[f"gateway.Gateway.{method}.errors"] == 0, method


def test_digest_matches_lowpan_run_on_the_dumped_scenario(tmp_path):
    scn = tmp_path / "frag.scn"
    assert run.main(["--workload", "frag-1280", "--seed", "5", "--dump", str(scn)]) == 0
    rep, _world = run.run_once(workloads.frag_1280(5))
    assert cli.main(["run", str(scn), "--out", str(tmp_path / "out")]) == 0
    written = (tmp_path / "out" / "trace.tsv").read_bytes() + (tmp_path / "out" / "metrics.txt").read_bytes()
    assert hashlib.sha256(written).hexdigest() == rep.digest


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert spec["paths"] == ["bench"]


def test_fails_without_the_lowpan_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "frag-1280", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
