import pytest

from lowpan.cli import main
from lowpan.scenario import ScenarioError, load_scenario, pattern_payload


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


# --- run ------------------------------------------------------------------

def test_run_demo_scenario(scenario_dir, tmp_path, capsys):
    code, out, _ = run_cli(
        "run", str(scenario_dir / "demo.scn"), "--out", str(tmp_path), capsys=capsys
    )
    assert code == 0
    assert (tmp_path / "trace.tsv").exists()
    assert (tmp_path / "metrics.txt").exists()
    assert "trace:" in out


def test_run_is_deterministic(scenario_dir, tmp_path, capsys):
    for name in ("one", "two"):
        code, _, _ = run_cli(
            "run", str(scenario_dir / "demo.scn"), "--out", str(tmp_path / name),
            capsys=capsys,
        )
        assert code == 0
    assert (tmp_path / "one/trace.tsv").read_bytes() == (tmp_path / "two/trace.tsv").read_bytes()
    assert (tmp_path / "one/metrics.txt").read_bytes() == (tmp_path / "two/metrics.txt").read_bytes()


def test_run_metrics_match_golden(scenario_dir, tmp_path, golden_dir, capsys):
    code, _, _ = run_cli(
        "run", str(scenario_dir / "demo.scn"), "--out", str(tmp_path), capsys=capsys
    )
    assert code == 0
    assert (tmp_path / "metrics.txt").read_text() == (golden_dir / "demo_metrics.txt").read_text()


def test_run_seed_override_changes_output(scenario_dir, tmp_path, capsys):
    run_cli("run", str(scenario_dir / "demo.scn"), "--out", str(tmp_path / "a"), capsys=capsys)
    run_cli(
        "run", str(scenario_dir / "demo.scn"), "--out", str(tmp_path / "b"),
        "--seed", "8", capsys=capsys,
    )
    # same scenario, different seed: both run clean
    assert (tmp_path / "a/trace.tsv").exists() and (tmp_path / "b/trace.tsv").exists()


def test_run_missing_scenario(tmp_path, capsys):
    code, _, err = run_cli("run", str(tmp_path / "nope.scn"), capsys=capsys)
    assert code == 2


BAD_SCENARIOS = [  # (scenario text, line the error must name)
    ("[general]\nseed = 1\n[node n1]\nrole = queen\nshort = 1\n", 4),
    ("[node n1]\nshort = 1\n[node n1]\nshort = 2\n", 3),  # duplicate node id
    ("[host h1]\naddr = fd00::1\n[host h1]\naddr = fd00::2\n", 3),  # duplicate host id
    ("[host n1]\naddr = fd00::1\n[node n1]\nshort = 1\n", 3),  # a node reuses a host id
    ("[node a]\nshort = 1\n[node b]\nshort = 0x0001\n", 3),  # duplicate short in a PAN
    ("[node a]\nshort = 0x10000\n", 2),
    ("[node a]\nshort = -1\n", 2),
    ("[general]\npan = 0x10000\n[node a]\nshort = 1\n", 2),
    ("[node a]\nshort = 1\npan = 0x1BEEF\n", 3),
    ("[general]\nhops = 16\n[node a]\nshort = 1\n", 2),
    ("[general]\nhops = -1\n", 2),
    ("[node a]\nshort = 1\n[traffic]\nat=0 kind=broadcast from=a size=1 hops=16\n", 4),
    ("[node a]\nshort = 1\nsleep = 0/0\n", 3),
    ("[node a]\nshort = 1\nsleep = 1/-1\n", 3),
    ("[node a]\nshort = 1\n[traffic]\nat=0 kind=udp from=a to=a sport=0x10000 size=1\n", 4),
    ("[node a]\nshort = 1\n[traffic]\nat=0 kind=app from=a todevid=-1 size=1\n", 4),
    ("[node a]\nshort = 1\n[traffic]\nat=0 kind=nwk from=a dst=0x10000 size=1\n", 4),
    (  # a host reuses a node's devid
        "[gateway gw]\nmode = devid\nshort = 1\nwired = fd00::a\n[host h1]\naddr = fd00::99\n"
        "devid = 9\n[node n]\nshort = 2\ndevid = 9\n", 7,
    ),
]


def test_run_bad_scenario_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    for text, line in BAD_SCENARIOS:
        bad.write_text(text)
        code, _, err = run_cli("run", str(bad), "--out", str(tmp_path / "out"), capsys=capsys)
        assert code == 2, (text, err)
        assert f"line {line}:" in err, (text, err)


@pytest.mark.parametrize("mode", ["border", "devid", "zigbee", "bridge"])
@pytest.mark.parametrize("scenario", ["demo", "devid", "zigbee"])
def test_mode_override_runs_clean(scenario_dir, tmp_path, capsys, scenario, mode):
    code, _, _ = run_cli(
        "run", str(scenario_dir / f"{scenario}.scn"), "--out", str(tmp_path),
        "--mode-override", mode, capsys=capsys,
    )
    assert code == 0  # traffic mismatches surface as trace drops, not crashes
    metrics = dict(line.split("=") for line in (tmp_path / "metrics.txt").read_text().splitlines())
    labelled = sum(int(value) for key, value in metrics.items() if key.startswith("drops_"))
    assert int(metrics.get("drops", 0)) == labelled


def test_devid_scenario(scenario_dir, tmp_path, capsys):
    code, _, _ = run_cli(
        "run", str(scenario_dir / "devid.scn"), "--out", str(tmp_path), capsys=capsys
    )
    assert code == 0
    trace = (tmp_path / "trace.tsv").read_text()
    assert "gw-translate\tmode=devid dir=up dst=fd00::99" in trace
    assert "h1\tdeliver" in trace


def test_zigbee_scenario(scenario_dir, tmp_path, capsys):
    code, _, _ = run_cli(
        "run", str(scenario_dir / "zigbee.scn"), "--out", str(tmp_path), capsys=capsys
    )
    assert code == 0
    trace = (tmp_path / "trace.tsv").read_text()
    # both the pooled-short unicast and the broadcast relay reach the host
    assert trace.count("h1\tdeliver") == 2
    assert "mode=zigbee dir=up" in trace


# --- codec ----------------------------------------------------------------

def test_codec_decode_uncompressed(capsys):
    ipv6_hex = (
        "60000000000311ff"
        "fe800000000000000200befffeef0001"
        "fe800000000000000200befffeef0002"
        "616263"
    )
    code, out, _ = run_cli("codec", "decode", "41" + ipv6_hex, capsys=capsys)
    assert code == 0
    assert "dispatch: 0x41 ipv6" in out
    assert f"ipv6-hex: {ipv6_hex}" in out


def test_codec_decode_hc1(capsys):
    code, out, _ = run_cli("codec", "decode", "42fb40e03f39196869", capsys=capsys)
    assert code == 0
    assert "hc1: src-mode=3 dst-mode=3 tcfl-zero=1 next-header=udp hc2=1" in out
    assert "hop-limit: 64" in out
    assert "checksum=0x3919" in out


def test_codec_compress_then_decode_roundtrip(capsys):
    ipv6_hex = (
        "60000000000a1140"
        "fe800000000000000200befffeef0001"
        "fe800000000000000200befffeef0002"
        "f0b3f0bf000a39196869"
    )
    code, out, _ = run_cli("codec", "compress", ipv6_hex, capsys=capsys)
    assert code == 0
    assert "compressed-hex: 42fb40e03f39196869" in out


def test_codec_invalid_hex_is_usage_error(capsys):
    code, _, _ = run_cli("codec", "decode", "zz", capsys=capsys)
    assert code == 1


def test_codec_decode_error_reports_offset(capsys):
    code, _, err = run_cli("codec", "decode", "42fb", capsys=capsys)
    assert code == 3
    assert "byte" in err


def test_codec_ppdu_roundtrip(capsys):
    code, out, _ = run_cli("codec", "ppdu-encode", "0102", capsys=capsys)
    assert code == 0
    ppdu_hex = out.strip()
    assert ppdu_hex == "00000000e6020102"
    code, out, _ = run_cli("codec", "ppdu-decode", ppdu_hex, capsys=capsys)
    assert code == 0
    assert "psdu-hex: 0102" in out


def test_codec_check_golden(golden_dir, capsys):
    code, out, _ = run_cli("codec", "check", str(golden_dir / "codec_vectors.txt"), capsys=capsys)
    assert code == 0
    assert "vectors ok" in out


def test_codec_check_catches_corruption(golden_dir, tmp_path, capsys):
    lines = (golden_dir / "codec_vectors.txt").read_text()
    bad = tmp_path / "bad.txt"
    bad.write_text(lines.replace("5000aabb bc0 5000aabb", "5000aabb bc0 5000aabc"))
    code, _, err = run_cli("codec", "check", str(bad), capsys=capsys)
    assert code == 3


# --- budget / addr -----------------------------------------------------------

def test_budget_output(capsys):
    code, out, _ = run_cli("budget", capsys=capsys)
    assert code == 0
    assert "102" in out
    assert "81" in out
    assert "4.256 ms" in out
    assert "53.200 ms" in out


def test_addr_short_path(capsys):
    code, out, _ = run_cli(
        "addr", "--pan", "0xBEEF", "--short", "0x0001", "--prefix", "2001:db8::",
        capsys=capsys,
    )
    assert code == 0
    assert "pseudo48: 0000beef0001" in out
    assert "iid: 0200befffeef0001" in out
    assert "link-local: fe80::200:beff:feef:1" in out
    assert "global: 2001:db8::200:beff:feef:1" in out


def test_addr_eui_path(capsys):
    code, out, _ = run_cli("addr", "--eui", "00:12:4b:00:01:02:03:04", capsys=capsys)
    assert code == 0
    assert "iid: 02124b0001020304" in out


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys=capsys)[0] == 1
    assert run_cli("frobnicate", capsys=capsys)[0] == 1
    assert run_cli("codec", capsys=capsys)[0] == 1


# --- scenario loader details ---------------------------------------------------

def test_pattern_payload_deterministic():
    assert pattern_payload(4) == pattern_payload(4)
    assert len(pattern_payload(99)) == 99


def test_scenario_rejects_two_coordinators():
    text = """
[general]
seed = 1
[node a]
role = coordinator
short = 1
[node b]
role = coordinator
short = 2
"""
    with pytest.raises(ScenarioError, match="coordinator"):
        load_scenario(text)


def test_scenario_route_override():
    text = """
[general]
seed = 1
[node a]
role = coordinator
short = 1
[node b]
short = 2
[link a b]
[route a]
0x0002 = 0x0002
default = 0x0002
"""
    world, t_end = load_scenario(text)
    assert world.node("a").routes[2] == 2
    assert world.node("a").default_route == 2
    assert t_end == 60.0


def test_scenario_unknown_traffic_sender():
    text = """
[general]
seed = 1
[node a]
role = coordinator
short = 1
[traffic]
at=0 kind=udp from=ghost to=a size=4
"""
    with pytest.raises(ScenarioError, match="line 8: unknown sender"):
        load_scenario(text)
