import hashlib
import re

import pytest
from test_digests import SCENARIO_DIGESTS

from lowpan import cli
from lowpan.cli import main
from lowpan.frame import PhyBand, SecurityMode
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


SHIPPED_DIGESTS = [(scenario, digest) for scenario, mode, digest in SCENARIO_DIGESTS if mode is None]


@pytest.mark.parametrize("scenario, digest", SHIPPED_DIGESTS, ids=[s for s, _ in SHIPPED_DIGESTS])
def test_run_writes_the_pinned_files(scenario_dir, tmp_path, capsys, scenario, digest):
    code, _, _ = run_cli(
        "run", str(scenario_dir / f"{scenario}.scn"), "--out", str(tmp_path), capsys=capsys
    )
    assert code == 0
    written = (tmp_path / "trace.tsv").read_bytes() + (tmp_path / "metrics.txt").read_bytes()
    assert hashlib.sha256(written).hexdigest() == digest  # the bytes on disk, not just trace_lines()


@pytest.mark.parametrize("scenario", [s for s, _ in SHIPPED_DIGESTS])
def test_run_reports_as_many_records_as_trace_lines(scenario_dir, tmp_path, capsys, scenario):
    code, out, _ = run_cli(
        "run", str(scenario_dir / f"{scenario}.scn"), "--out", str(tmp_path), capsys=capsys
    )
    assert code == 0
    reported = int(re.search(r"^trace: .* \((\d+) records\)$", out, re.MULTILINE).group(1))
    assert reported == len((tmp_path / "trace.tsv").read_bytes().splitlines()) > 0


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


BAD_SCENARIOS = [  # (scenario text, line the error must name[, text the error must hold])
    ("[general]\nseed = 1\n[node n1]\nrole = queen\nshort = 1\n", 4),
    ("[node n1]\nshort = 1\n[node n1]\nshort = 2\n", 3),  # duplicate node id
    ("[host h1]\naddr = fd00::1\n[host h1]\naddr = fd00::2\n", 3),  # duplicate host id
    ("[host n1]\naddr = fd00::1\n[node n1]\nshort = 1\n", 3),  # a node reuses a host id
    ("[node a]\nshort = 1\n[node b]\nshort = 0x0001\n", 3),  # duplicate short in a PAN
    ("[node a]\nshort = 0x10000\n", 2),
    ("[general]\nseed = 1 # page\x0cbreak\n[node a]\nshort = 0x10000\n", 4),  # a form feed ends no line
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
    # a key line's own refusal is named at that line, not at its section's header
    ("[node a]\nshort = 1\neui = 00:12:4b\n", 3, "not an EUI-64 of 8 octets"),
    (  # two nodes behind one devid gateway with one devid
        "[gateway gw]\nmode = devid\nshort = 1\nwired = fd00::a\n[node n]\nshort = 2\ndevid = 9\n"
        "[node m]\nshort = 3\ndevid = 9\n", 10, "devid 9 already registered",
    ),
    (  # two hosts with one devid
        "[gateway gw]\nmode = devid\nshort = 1\nwired = fd00::a\n[host h1]\naddr = fd00::98\ndevid = 9\n"
        "[host h2]\naddr = fd00::99\ndevid = 9\n", 10, "devid 9 already registered",
    ),
    ("[nodes a]\nshort = 1\n", 1),  # unknown section
    ("[node a]\nshort = 1\nsleeep = 1/1\n", 3),  # unknown key
    ("[general x]\nseed = 1\n", 1),  # wrong id counts
    ("[node a]\nshort = 1\n[traffic x]\nat=0 kind=broadcast from=a size=1\n", 3),
    ("[link a]\n", 1),
    ("[node a]\nshort = 1\nshort = 2\n", 3),  # a key given twice
    ("[general]\nseed = 1\n[general]\nseed = 2\n", 3),
    ("[node a]\nshort = 1\n[traffic]\nat=0 kind=broadcast from=a size=1 hop=0\n", 4),  # unknown token
    ("[node a]\nshort = 1\n[traffic]\nat=0 kind=nwk from=a dst=1 size=1 hops=2\n", 4),
    ("[node a]\nshort = 1\n[traffic]\nat=0 at=1 kind=broadcast from=a size=1\n", 4),
    ("[node a]\nshort = 1\n[traffic]\nat=0 kind=broadcast from=a size=1 hex=00\n", 4),
    ("[host h]\naddr = fd00::1\n[traffic]\nat=0 kind=broadcast from=h size=1\n", 4),  # non-udp from a host
    ("[host h]\naddr = fd00::1\n[traffic]\nat=0 kind=app from=h todevid=1 size=1\n", 4),
    ("[host h]\naddr = fd00::1\n[traffic]\nat=0 kind=nwk from=h dst=1 size=1\n", 4),
    ("[host h]\naddr = fd00::1\n[traffic]\nat=0 kind=apl from=h to=h size=1\n", 4),
    ("[node a]\nshort = 1\n[traffic]\nat=nan kind=broadcast from=a size=1\n", 4),  # numeric bounds
    ("[node a]\nshort = 1\n[traffic]\nat=-1 kind=broadcast from=a size=1\n", 4),
    ("[node a]\nshort = 1\n[traffic]\nat=0 kind=broadcast from=a size=99999999999\n", 4),
    ("[node a]\nshort = 1\n[traffic]\nat=0 kind=udp from=a to=a size=70000\n", 4),
    ("[node a]\nshort = 1\n[traffic]\nat=0 kind=broadcast from=a size=-1\n", 4),
    ("[node a]\nshort = 1\n[traffic]\nat=0 kind=udp from=a to=a hex=" + "00" * 65528 + "\n", 4),
    ("[general]\nt_end = inf\n", 2),
    ("[node a]\nshort = 1\nsleep = nan/1\n", 3),
    ("[node a]\nshort = 1\n[node b]\nshort = 2\n[link a b]\nloss = 1.5\n", 6),
    ("[gateway g]\nmode = border\nshort = 1\nwired = fd00::a\nttl = -1\n", 5),
    ("[node a]\nshort = 1\n[route a]\n0x10000 = 1\n", 4),
    ("[node a]\nshort = 1\n[route a]\ndefault = -1\n", 4),
    # a final short, or the default, is pinned once per node
    ("[node a]\nshort = 1\n[route a]\n2 = 2\n2 = 3\n", 5, "'2' is already set at line 4"),  # one key twice
    ("[node a]\nshort = 1\n[route a]\n2 = 2\n0x2 = 1\n", 5, "node 'a' already has a route to 0x0002, pinned at line 4"),
    ("[node a]\nshort = 1\n[route a]\n2 = 2\n[route a]\n2 = 3\n", 6, "a route to 0x0002, pinned at line 4"),
    ("[node a]\nshort = 1\n[route a]\ndefault = 2\n[route a]\ndefault = 3\n", 6,
     "node 'a' already has a default route, pinned at line 4"),
    ("[node a]\nshort = 1\n[link a a]\n", 3),  # a node linked to itself
    ("[node a]\nshort = 1\n[node b]\nshort = 2\n[link a b]\nloss = 0.1\n[link b a]\nloss = 0.5\n", 7),  # linked twice
    (  # a link across two PANs
        "[node a]\nshort = 1\n[node b]\nshort = 2\n[node c]\nshort = 2\npan = 0x0002\n"
        "[link a b]\n[link a c]\n", 9,
    ),
    # each address has one owner
    ("[host h1]\naddr = fd00::99\n[host h2]\naddr = fd00::99\n", 3),  # a host address twice
    ("[gateway g]\nmode = border\nshort = 1\nwired = fd00::a\n[host h1]\naddr = fd00::a\n", 1),  # host on g's wired
    (  # two gateways on one wired address
        "[gateway g1]\nmode = border\nshort = 1\nwired = fd00::a\n"
        "[gateway g2]\nmode = border\nshort = 1\nwired = fd00::a\npan = 0x0002\n", 5,
    ),
    (  # two gateways with one prefix
        "[gateway g1]\nmode = border\nshort = 1\nwired = fd00::a\nprefix = 2001:db8:a::\n"
        "[gateway g2]\nmode = border\nshort = 1\nwired = fd00::b\nprefix = 2001:db8:a::\npan = 0x0002\n", 6,
    ),
    (  # two gateways in one PAN
        "[gateway g1]\nmode = border\nshort = 1\nwired = fd00::a\n"
        "[gateway g2]\nmode = border\nshort = 2\nwired = fd00::b\n", 5,
    ),
    (  # two nodes of a PAN pinning one EUI-64
        "[node a]\nshort = 1\neui = 00:12:4b:00:00:00:00:77\n[node b]\nshort = 2\neui = 00124b0000000077\n", 4,
    ),
    (  # a node pinning its gateway's EUI-64, the one synthesized from PAN 0xBEEF and short 0x00FE
        "[gateway g]\nmode = border\nshort = 0x00FE\nwired = fd00::a\n[node n]\nshort = 1\n"
        "eui = 00:12:4b:00:be:ef:00:fe\n", 5,
    ),
    (  # a subscriber named twice
        "[host h1]\naddr = fd00::99\n[gateway g]\nmode = border\nshort = 1\nwired = fd00::a\n"
        "subscribers = h1, h1\n", 7,
    ),
    (  # a zigbee gateway's pool holds 64 shorts, so a 65th wired apl destination cannot load
        "[node z1]\nshort = 1\n[gateway gw]\nmode = zigbee\nshort = 2\nwired = fd00::a\n[link z1 gw]\n"
        + "".join(f"[host x{n}]\naddr = fd01::{n + 1:x}\n" for n in range(65))
        + "[traffic]\n" + "".join(f"at=1 kind=apl from=z1 to=x{n} size=1\n" for n in range(65)),
        7 + 2 * 65 + 1 + 65,
    ),
    (  # an apl destination behind a gateway without a prefix has no pseudo address
        "[gateway ga]\nmode = zigbee\nshort = 1\nwired = fd00::a\nprefix = 2001:db8:a::\n[node x]\nshort = 2\n"
        "[gateway gb]\nmode = zigbee\nshort = 1\nwired = fd00::b\npan = 0x0002\n[node y]\nshort = 2\npan = 0x0002\n"
        "[traffic]\nat=0.5 kind=apl from=x to=y size=1\n", 17,
    ),
    ("[node a\nshort = 1\n", 1, "unterminated section header"),
    ("short = 1\n[node a]\n", 1, "entry before any section header"),
    ("[node a]\nshort 1\n", 2, "expected key = value"),
    ("[node a]\nrole = ffd\n", 1, "node needs short ="),
    ("[gateway g]\nmode = border\nshort = 1\nwired = fd00::a\nsubscribers = h9\n", 5, "unknown host 'h9'"),
    ("[node a]\nshort = 1\n[route b]\n1 = 2\n", 3, "route section needs a node id"),
    ("[node a]\nshort = 1\n[traffic]\nat=0 kind=broadcast from=a size=1 hops\n", 4, "traffic tokens must be key=value"),
    ("[node a]\nshort = 1\n[traffic]\nat=0 kind=udp from=a size=1\n", 4, "udp traffic needs to="),
    ("[node a]\nshort = 1\n[traffic]\nat=0 kind=zap from=a size=1\n", 4, "unknown traffic kind 'zap'"),
    ("[node a]\nshort = one\n", 2, "not a number: 'one'"),
    ("[general]\nt_end = soon\n", 2, "not a number: 'soon'"),
    ("[host h]\naddr = fd00::zz\n", 2, "not an IPv6 address: 'fd00::zz'"),
    ("[node a]\nshort = 1\nsleep = 5\n", 3, "sleep needs awake/asleep"),
    ("[node a]\nshort = 1\n[traffic]\nat=0 kind=broadcast from=a hex=zz\n", 4, "bad hex payload"),
    ("[node a]\nshort = 1\ndevid = 3\n", 3, "node 'a' has a devid but its PAN has no gateway"),
    ("[node a]\nshort = 1\n[traffic]\nat=0 kind=udp from=a to=b size=1\n", 4, "unknown udp destination 'b'"),
    ("[node x]\nshort = 1\n[traffic]\nat=0 kind=apl from=x to=x size=1\n", 4, "segment of 'x' has no gateway"),
    (
        "[gateway g]\nmode = zigbee\nshort = 1\nwired = fd00::a\n[node x]\nshort = 2\n"
        "[traffic]\nat=0 kind=apl from=x to=q size=1\n", 8, "unknown apl destination 'q'",
    ),
    (  # an apl destination in a PAN without a gateway
        "[gateway ga]\nmode = zigbee\nshort = 1\nwired = fd00::a\n[node x]\nshort = 2\n"
        "[node y]\nshort = 2\npan = 0x0002\n[traffic]\nat=0 kind=apl from=x to=y size=1\n", 11,
        "segment of 'y' has no gateway",
    ),
    # a second coordinator is named at its header, but only once its own values pass
    ("[node a]\nrole = coordinator\nshort = 1\n[node b]\nrole = coordinator\nshort = 2\n", 4,
     "PAN 0xBEEF has coordinator 'a'"),
    ("[node a]\nrole = coordinator\nshort = 1\n[node b]\nrole = coordinator\nshort = -1\n", 6,
     "'-1' is outside 0..65535"),
]


def test_run_bad_scenario_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    for text, line, *expected in BAD_SCENARIOS:
        bad.write_text(text)
        code, _, err = run_cli("run", str(bad), "--out", str(tmp_path / "out"), capsys=capsys)
        assert code == 2, (text, err)
        assert f"line {line}:" in err, (text, err)
        assert all(part in err for part in expected), (text, err)


@pytest.mark.parametrize("argv, code", [
    (["addr", "--eui", "zz"], 1),
    (["addr", "--eui", "0011223344556677", "--prefix", "nope"], 1),
    (["addr", "--short", "0x1FFFF"], 1),
    (["codec", "decode", "42fb", "--l2-src", "short:0xBEEF:zz"], 1),
    (["codec", "decode", "zz"], 1),
    (["run", "{latin1}", "--seed", "0x", "--out", "{out}"], 1),
    (["run", "{latin1}", "--out", "{latin1}"], 1),
    (["run", "{latin1}", "--mode-override", "bogus", "--out", "{out}"], 1),  # refused before the file is read
    (["run", "{latin1}", "--out", "{out}"], 2),
    (["run", "{directory}", "--out", "{out}"], 2),
    (["codec", "check", "{latin1}"], 2),
], ids=[
    "eui", "prefix", "short", "l2-src", "hex", "seed", "out-file", "mode-override",
    "run-non-utf8", "run-directory", "check-non-utf8",
])
def test_input_errors_exit_with_their_code_before_any_output(tmp_path, capsys, argv, code):
    latin1 = tmp_path / "latin1.scn"
    latin1.write_bytes("[node a]\nshort = 1  # caf\u00e9\n".encode("latin-1"))
    (tmp_path / "directory").mkdir()
    argv = [arg.format(latin1=latin1, directory=tmp_path / "directory", out=tmp_path / "out") for arg in argv]
    got, out, err = run_cli(*argv, capsys=capsys)
    assert (got, out) == (code, "")
    assert err.startswith("usage: " if code == 1 else "error: cannot read ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "x.scn", "--seed", "0x"], "argument --seed: not a number: '0x'"),
    (["codec", "decode", "zz"], "argument hex: not a hex string: 'zz'"),
    (["codec", "decode", ""], "argument hex: empty input"),
    (["addr", "--eui", "00:12:4b"], "argument --eui: not an EUI-64 of 8 octets: '00:12:4b'"),
    (["run", "x.scn", "--mode-override", "bogus"], "argument --mode-override: not a gateway mode: 'bogus'"),
])
def test_usage_errors_say_what_is_wrong(capsys, argv, message):
    code, _, err = run_cli(*argv, capsys=capsys)
    assert code == 1
    assert err.startswith("usage: ") and err.endswith(f"error: {message}\n")


def test_run_refuses_an_out_file_before_loading(monkeypatch, scenario_dir, tmp_path, capsys):
    loads = []
    monkeypatch.setattr(cli, "load_scenario", lambda *args, **kwargs: loads.append(args))
    taken = tmp_path / "taken"
    taken.write_text("kept")
    for out in (taken, taken / "sub"):
        code, stdout, err = run_cli("run", str(scenario_dir / "demo.scn"), "--out", str(out), capsys=capsys)
        assert (code, stdout) == (1, "")
        assert err.endswith(f"error: argument --out: not a directory: {str(taken)!r}\n")
    assert loads == []
    assert taken.read_text() == "kept"


def test_run_reports_an_unexpected_failure_as_a_runtime_error(monkeypatch, scenario_dir, tmp_path, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "load_scenario", fail)
    code, out, err = run_cli("run", str(scenario_dir / "demo.scn"), "--out", str(tmp_path), capsys=capsys)
    assert (code, out, err) == (3, "", "runtime error: boom\n")


def test_run_drops_a_zero_size_first_fragment(tmp_path, capsys):
    # the app header `C0 00 00 01` reads as FRAG1 with datagram size 0 at a border gateway
    scn = tmp_path / "zero.scn"
    scn.write_text(
        "[gateway gw]\nmode = border\nshort = 1\nwired = fd00::1\nprefix = 2001:db8:1::\n"
        "[node n1]\nshort = 2\n[link n1 gw]\n"
        "[traffic]\nat=1 kind=app from=n1 todevid=1 devid=0xC000 size=0\n"
    )
    code, _, err = run_cli("run", str(scn), "--out", str(tmp_path / "out"), capsys=capsys)
    assert code == 0, err
    trace = (tmp_path / "out" / "trace.tsv").read_text().splitlines()
    assert trace[-1] == "1.000736\tgw\tdrop\treason=codec-error kind=MalformedFrag\t0"


@pytest.mark.parametrize("t_end", ["nan", "-1", "inf"])
def test_run_rejects_bad_t_end_override(scenario_dir, tmp_path, capsys, t_end):
    code, _, err = run_cli(
        "run", str(scenario_dir / "demo.scn"), "--out", str(tmp_path), "--t-end", t_end, capsys=capsys
    )
    assert code == 2, err  # the rule `t_end =` follows in a scenario
    assert "t_end" in err
    assert not (tmp_path / "trace.tsv").exists()


def test_run_t_end_override_is_the_scenarios_t_end(scenario_dir, tmp_path, capsys):
    demo = (scenario_dir / "demo.scn").read_text()
    assert "\nt_end = 30\n" in demo
    short = tmp_path / "short.scn"
    short.write_text(demo.replace("\nt_end = 30\n", "\nt_end = 3\n"))
    outputs = []
    for argv in ([str(scenario_dir / "demo.scn"), "--t-end", "3"], [str(short)]):
        out = tmp_path / f"out{len(outputs)}"
        code, _, err = run_cli("run", *argv, "--out", str(out), capsys=capsys)
        assert code == 0, err
        outputs.append([(out / name).read_bytes() for name in ("trace.tsv", "metrics.txt")])
    assert outputs[0] == outputs[1]
    assert max(float(line.split(b"\t")[0]) for line in outputs[0][0].splitlines()) == 3.0  # not 30


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
    assert float(metrics["delivery_ratio"]) <= 1  # no frame is delivered to a node it was not for


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
    code, out, err = run_cli("codec", "decode", "zz", capsys=capsys)
    assert (code, out) == (1, "")
    assert err.startswith("usage: ")


@pytest.mark.parametrize("stream, lines", [
    ("5007aabb", ["dispatch: 0x50 bc0", "bc0: seq=7", "payload-hex: aabb"]),
    ("c0500001aabbccdd", ["dispatch: 0xC0 frag-first", "frag: size=80 tag=0x0001 offset=0", "fragment-hex: aabbccdd"]),
    ("e050000102aabb", ["dispatch: 0xE0 frag-subsequent", "frag: size=80 tag=0x0001 offset=16", "fragment-hex: aabb"]),
    ("8500124b000000000100124b00000000025001aa", [  # EUI-64 originator and final, then a BC0 header
        "dispatch: 0x85 mesh", "mesh: orig=eui:00124b0000000001 final=eui:00124b0000000002 hops-left=5",
        "dispatch: 0x50 bc0", "bc0: seq=1", "payload-hex: aa",
    ]),
], ids=["bc0", "frag-first", "frag-subsequent", "mesh-eui64"])
def test_codec_decode_prints_each_header(capsys, stream, lines):
    code, out, err = run_cli("codec", "decode", stream, capsys=capsys)
    assert (code, out, err) == (0, "".join(line + "\n" for line in lines), "")


def test_codec_decode_error_reports_offset(capsys):
    code, _, err = run_cli("codec", "decode", "42fb", capsys=capsys)
    assert code == 3
    assert "byte" in err


def test_codec_decode_reads_a_mesh_header_only_at_the_top(capsys):
    code, out, _ = run_cli("codec", "decode", "bf0001000280aa", capsys=capsys)
    assert code == 0
    assert out == (
        "dispatch: 0xBF mesh\n"
        "mesh: orig=short:0xBEEF:0x0001 final=short:0xBEEF:0x0002 hops-left=15\n"
        "dispatch: 0x80 mesh\n"
        "payload-hex: aa\n"
    )


def test_codec_decode_mesh_header_without_payload(capsys):
    code, _, err = run_cli("codec", "decode", "bf00010002", capsys=capsys)
    assert code == 3
    assert err.startswith("decode error at byte 5: ")


@pytest.mark.parametrize(
    "stream, message",
    [
        ("bf0001000250", "byte 6: broadcast header truncated"),  # mesh header, then a bare BC0
        ("50", "byte 1: broadcast header truncated"),
        ("bf00010002c0", "byte 6: fragment header truncated"),
        ("bf0001000242", "byte 6: HC1 stream truncated"),
        ("42fb40e0", "byte 4: HC2 header truncated"),  # fully elided HC1, then an HC2 octet without ports
        ("bf0001000242fb40e0", "byte 9: HC2 header truncated"),
    ],
)
def test_codec_decode_error_offset_counts_from_the_input(capsys, stream, message):
    code, _, err = run_cli("codec", "decode", stream, capsys=capsys)
    assert code == 3
    assert err == f"decode error at {message}\n"


def test_codec_decode_rejects_a_zero_size_fragment(capsys):
    code, _, err = run_cli("codec", "decode", "c0000000", capsys=capsys)
    assert code == 3
    assert err == "decode error at byte 0: fragment datagram size is 0\n"


def test_codec_ppdu_roundtrip(capsys):
    code, out, _ = run_cli("codec", "ppdu-encode", "0102", capsys=capsys)
    assert code == 0
    ppdu_hex = out.strip()
    assert ppdu_hex == "00000000e6020102"
    code, out, _ = run_cli("codec", "ppdu-decode", ppdu_hex, capsys=capsys)
    assert code == 0
    assert "psdu-hex: 0102" in out


def test_codec_ppdu_decode_refuses_a_short_ppdu(capsys):
    code, out, err = run_cli("codec", "ppdu-decode", "00", capsys=capsys)
    assert (code, out, err) == (3, "", "decode error: PPDU shorter than 6 octets\n")


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


def test_codec_check_ends_lines_only_at_line_feeds(golden_dir, tmp_path, capsys):
    golden = (golden_dir / "codec_vectors.txt").read_text()
    _, ok, _ = run_cli("codec", "check", str(golden_dir / "codec_vectors.txt"), capsys=capsys)
    paged = tmp_path / "paged.txt"
    paged.write_text("# vectors\x0c page two\x1c\x1d\x1e\n" + golden)
    code, out, _ = run_cli("codec", "check", str(paged), capsys=capsys)
    assert (code, out) == (0, ok)
    paged.write_text("# vectors\x0c page two\n" + golden + "4zz hc1 00\n")
    code, _, err = run_cli("codec", "check", str(paged), capsys=capsys)
    last = golden.count("\n") + 2
    assert code == 3
    assert err.startswith(f"{paged}:{last}: non-hexadecimal number")


def test_codec_check_reports_a_non_hex_input_at_its_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("4zz hc1 00\n")
    code, _, err = run_cli("codec", "check", str(bad), capsys=capsys)
    assert code == 3
    assert err.startswith(f"{bad}:1: non-hexadecimal number")
    assert err.endswith("1 of 1 vectors failed\n")


def test_codec_check_counts_every_record_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# a comment and a blank line are no records\n\n00ff x\n00ff x 00ff\n")
    code, out, err = run_cli("codec", "check", str(bad), capsys=capsys)
    assert (code, out) == (3, "")
    assert err == (
        f"{bad}:3: expected three fields\n"
        f"{bad}:4: vector kind not-lowpan is not checkable\n"
        "2 of 2 vectors failed\n"
    )


# --- budget / addr -----------------------------------------------------------

def test_budget_output(capsys):
    code, out, _ = run_cli("budget", capsys=capsys)
    assert code == 0
    suites, bands = ([row.split() for row in block.splitlines()[1:]] for block in out.split("\n\n"))
    assert [row[0] for row in suites] == ["none", "aes-ccm-32", "aes-ccm-64", "aes-ccm-128"]
    assert suites == [[suite.label, str(suite.overhead), str(suite.budget)] for suite in SecurityMode]
    assert [row[:3] for row in bands] == [[band.label, str(band.bit_rate), "133"] for band in reversed(PhyBand)]
    assert [row[0] for row in bands] == ["2450", "915", "868"]
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


def test_addr_eui_separators_give_one_iid(capsys):
    outs = {run_cli("addr", "--eui", eui, capsys=capsys) for eui in ("00:12:4b:00:01:02:03:04", "00-12-4b-00-01-02-03-04")}
    assert outs == {(0, "eui: 00124b0001020304\niid: 02124b0001020304\nlink-local: fe80::212:4b00:102:304\n", "")}
    decoded = {
        run_cli("codec", "decode", "42fb40e03f39196869", "--l2-src", f"eui:{eui}", capsys=capsys)
        for eui in ("00:12:4b:00:01:02:03:04", "00-12-4b-00-01-02-03-04")
    }
    assert len(decoded) == 1 and "src: fe80::212:4b00:102:304\n" in decoded.pop()[1]


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys=capsys)[0] == 1
    assert run_cli("frobnicate", capsys=capsys)[0] == 1
    assert run_cli("codec", capsys=capsys)[0] == 1


# --- scenario loader details ---------------------------------------------------

def test_load_scenario_refuses_an_unknown_mode_override():
    with pytest.raises(ScenarioError, match="unknown gateway mode override: 'bogus'"):
        load_scenario("[node a]\nshort = 1\n", mode_override="bogus")


def test_an_apl_send_in_its_own_pan_names_the_destination_short():
    world, t_end = load_scenario(
        "[gateway g]\nmode = zigbee\nshort = 1\nwired = fd00::a\n[node x]\nshort = 2\n[node y]\nshort = 3\n"
        "[link x y]\n[traffic]\nat=0 kind=apl from=x to=y size=1\n"
    )
    world.run_until(t_end)
    assert [(r.node, r.kind, r.detail) for r in world.trace if r.kind in ("send", "deliver")] == [
        ("x", "send", "kind=nwk dst=0x0003"), ("y", "deliver", "kind=nwk src=0x0002"),
    ]


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
