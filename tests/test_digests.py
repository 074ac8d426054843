"""Byte-identical output: pinned digests of trace.tsv followed by metrics.txt.

Each digest is `cat trace.tsv metrics.txt | sha256sum` of a `lowpan run`:
the shipped scenarios under every `--mode-override`, and the benchmark's
three workloads at its default and held-out seeds.  A change to any
trace or metrics byte fails here, so a change meant to keep the output
(a speedup, a refactor) is checked by the tier-1 run itself.  A change
meant to alter the output updates the pins and says why.  Every run is
also checked against four counter laws (`counter_laws.py`).
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest
from counter_laws import check_counter_laws

from lowpan.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]

SCENARIO_DIGESTS = [  # (scenario, --mode-override, sha256)
    ("demo", None, "05b15cb53bd04860a3bcac6d5c38a3b4fddce3d1d9bf0b2952f1af51285f3c12"),
    ("demo", "border", "05b15cb53bd04860a3bcac6d5c38a3b4fddce3d1d9bf0b2952f1af51285f3c12"),
    ("demo", "devid", "a380cba2abd213c2ddebdf80b3c25e51c3f0c5a198735176b0539b277335f7ad"),
    ("demo", "zigbee", "9014f49ffc53aafc18e3cefe57b387d9469f0eeb141aaffea0bc1f0f460eb797"),
    ("demo", "bridge", "774842e6d3d91dd60b8b2cb88b092b75a37d89cf72e5e4a6e4bd590eed2a1133"),
    ("devid", None, "6b97e306f458ac6a26420ea479ccfcd76e780450499ef45dbfd717a830bd6a0b"),
    ("devid", "border", "e16a711d503e83e8bc298bdc09a0951656da15ea6bb77d42455118c4142e2227"),
    ("devid", "devid", "6b97e306f458ac6a26420ea479ccfcd76e780450499ef45dbfd717a830bd6a0b"),
    ("devid", "zigbee", "43313b38c0c1c99d00fe4eded372231a29cd20c4025d44b5727e52cedcbdebd8"),
    ("devid", "bridge", "d2967526f5cf5f81aa5d43087e410732f274f7883d68506a6581100bbd436b13"),
    ("zigbee", None, "13f3255cdf005cccdce8e45e03aac69d580b2a44a13493fde9047702d027cf58"),
    ("zigbee", "border", "36cf03db305de529450cf2d5b5a82fa3e051aae1b04808b523a3913d066b8bc6"),
    ("zigbee", "devid", "a1e4967729311e3da66fde1a22e053275cad2b5fe92afc5dadb3d98cd287b231"),
    ("zigbee", "zigbee", "13f3255cdf005cccdce8e45e03aac69d580b2a44a13493fde9047702d027cf58"),
    ("zigbee", "bridge", "63b6d1f7944a97b3e494f4c09a9245130e76fc7746700f558ab2f9a9e24fd019"),
]

BENCH_DIGESTS = [  # (workload, seed, sha256); seeds from bench/spec.json
    ("mesh-900", 1, "0ec34db684403df67ee865a625b0baf02a432bf94165cea8eda91b4bf2200f42"),
    ("mesh-900", 20261017, "d0f81ca620b601c3662dc6754d93b24e6e5761e153b8ab44ae8d69cf508d7170"),
    ("frag-1280", 1, "032efacbad77b3d2476f7f113870852fb9e56bbc5766fcfe94af80063b85a6a4"),
    ("frag-1280", 20261017, "b96ab7d99d0a30a7074d08ff260d21841fab404e2158766dcb71decc5da53db7"),
    ("gateway-mix", 1, "3b31cbbd72b9a71f916a31bcffec947e6914f182f10ac13234e11a3c49deb3b3"),
    ("gateway-mix", 20261017, "f24ef4f229597560be3afc0a26aad8c122f0fe6fc0757363d815c4e28f35f1f1"),
]


def _workloads():
    """`bench/workloads.py`, the benchmark's scenario generators, loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _digest(text: str, mode: str | None = None) -> str:
    """What `lowpan run [--mode-override MODE]` writes, hashed as trace.tsv + metrics.txt."""
    world, t_end = load_scenario(text, mode_override=mode)
    world.run_until(t_end)
    check_counter_laws(world)
    out = "".join(line + "\n" for line in world.trace_lines())
    out += "".join(line + "\n" for line in world.metrics_lines())
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize(
    "scenario, mode, digest", SCENARIO_DIGESTS, ids=[f"{s}-{m or 'none'}" for s, m, _ in SCENARIO_DIGESTS]
)
def test_scenario_output_is_pinned(scenario_dir, scenario, mode, digest):
    assert _digest((scenario_dir / f"{scenario}.scn").read_text(), mode) == digest


@pytest.mark.parametrize(
    "workload, seed, digest", BENCH_DIGESTS, ids=[f"{w}-{s}" for w, s, _ in BENCH_DIGESTS]
)
def test_bench_output_is_pinned(workload, seed, digest):
    assert _digest(_workloads()[workload](seed)) == digest
