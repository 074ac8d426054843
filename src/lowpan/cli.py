"""Command line front end: scenario runner, codec tool, budget table.

Exit codes: 0 ok, 1 usage, 2 scenario error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from ipaddress import IPv6Address
from pathlib import Path

from . import addressing, codec
from .frame import (
    PPDU_MAX,
    Eui64,
    FrameError,
    PhyBand,
    SecurityMode,
    Short16,
    decode_ppdu,
    encode_ppdu,
    frame_airtime,
)
from .gateway import GatewayMode
from .ipv6 import (
    IPV6_HEADER_OCTETS,
    NEXT_HEADER_ICMPV6,
    NEXT_HEADER_TCP,
    NEXT_HEADER_UDP,
    decode_ipv6,
    decode_udp,
    encode_ipv6,
)
from .scenario import ScenarioError, load_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCENARIO = 2
EXIT_RUNTIME = 3

DEFAULT_L2_SRC = "short:0xBEEF:0x0001"
DEFAULT_L2_DST = "short:0xBEEF:0x0002"

_NH_NAMES = {NEXT_HEADER_TCP: "tcp", NEXT_HEADER_UDP: "udp", NEXT_HEADER_ICMPV6: "icmpv6"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lowpan")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file")
    run.set_defaults(handler=cmd_run)
    run.add_argument("scenario", help="scenario file path")
    run.add_argument("--out", type=_out_dir, default="out", help="output directory (default: out)")
    run.add_argument("--seed", type=_number, default=None)
    run.add_argument("--t-end", type=float, default=None)
    run.add_argument("--mode-override", type=_mode, default=None, help="force every gateway mode")

    cod = sub.add_parser("codec", help="encode/decode adaptation-layer streams")
    direction = cod.add_subparsers(dest="direction", required=True)
    dec = direction.add_parser("decode", help="decode a 6LoWPAN stream")
    dec.set_defaults(handler=cmd_codec, lines=lambda args: _dump_stream(args.hex, args.l2_src, args.l2_dst, args.pan))
    dec.add_argument("hex", type=_stream)
    dec.add_argument("--l2-src", type=_l2_address, default=DEFAULT_L2_SRC)
    dec.add_argument("--l2-dst", type=_l2_address, default=DEFAULT_L2_DST)
    dec.add_argument("--pan", type=_u16, default=0xBEEF)
    com = direction.add_parser("compress", help="compress a raw IPv6 packet")
    com.set_defaults(handler=cmd_codec, lines=_compress_lines)
    com.add_argument("hex", type=_hex)
    com.add_argument("--l2-src", type=_l2_address, default=DEFAULT_L2_SRC)
    com.add_argument("--l2-dst", type=_l2_address, default=DEFAULT_L2_DST)
    ppe = direction.add_parser("ppdu-encode", help="wrap a PSDU in a PPDU")
    ppe.set_defaults(handler=cmd_codec, lines=lambda args: [encode_ppdu(args.hex).hex()])
    ppe.add_argument("hex", type=_hex)
    ppd = direction.add_parser("ppdu-decode", help="unwrap a PPDU")
    ppd.set_defaults(handler=cmd_codec, lines=_ppdu_decode_lines)
    ppd.add_argument("hex", type=_hex)
    chk = direction.add_parser("check", help="verify a golden vector file")
    chk.set_defaults(handler=cmd_check)
    chk.add_argument("file", type=Path)
    chk.add_argument("--pan", type=_u16, default=0xBEEF)

    sub.add_parser("budget", help="print payload budgets and airtimes").set_defaults(handler=cmd_budget)

    addr = sub.add_parser("addr", help="derive interface identifiers and addresses")
    addr.set_defaults(handler=cmd_addr)
    group = addr.add_mutually_exclusive_group(required=True)
    group.add_argument("--eui", type=_eui, help="EUI-64 as 16 hex digits")
    group.add_argument("--short", type=_u16, help="16-bit short address")
    addr.add_argument("--pan", type=_u16, default=0xBEEF)
    addr.add_argument("--prefix", type=_ipv6, default=None, help="64-bit prefix for a global address")
    return parser


# option converters: a value they refuse is a usage error (exit 1), before any output

def _converter(parse, what: str):
    """An argparse `type` that returns `parse(text)` and reports its ValueError as `not <what>`."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}") from None
    return convert


_number = _converter(partial(int, base=0), "a number")  # 0x / 0o / 0b prefixes accepted
_eui = _converter(addressing.eui64_from_text, "an EUI-64 of 8 octets")
_ipv6 = _converter(IPv6Address, "an IPv6 address")
_hex = _converter(bytes.fromhex, "a hex string")
_mode = _converter(lambda text: GatewayMode(text).value, "a gateway mode")  # the name, as load_scenario takes it


def _u16(text: str) -> int:
    """A PAN or short address: a number in 0..0xFFFF."""
    number = _number(text)
    if not 0 <= number <= 0xFFFF:
        raise argparse.ArgumentTypeError(f"{text!r} is outside 0..0xFFFF")
    return number


def _stream(text: str) -> bytes:
    """A stream to decode: hex of at least one octet."""
    data = _hex(text)
    if not data:
        raise argparse.ArgumentTypeError("empty input")
    return data


def _out_dir(text: str) -> Path:
    """An output directory that `cmd_run` can make: its nearest existing ancestor, itself included, is one."""
    path = Path(text)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise argparse.ArgumentTypeError(f"not a directory: {str(existing)!r}")
    return path


def _l2_address(spec: str):
    """A link address spec, `short:PAN:SHORT` or `eui:HEX`."""
    kind, _, rest = spec.partition(":")
    pan, _, short = rest.partition(":")
    try:
        if kind == "short" and short:
            return Short16(_u16(pan), _u16(short))
        if kind == "eui":
            return Eui64(_eui(rest))
    except argparse.ArgumentTypeError:
        pass
    raise argparse.ArgumentTypeError(f"bad link address spec: {spec!r}")


def _read_text(path: Path, what: str) -> str:
    """The UTF-8 text of `path`; a file that cannot be read as text is a scenario error (exit 2)."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text at byte {exc.start}"
    print(f"error: cannot read {what} {path}: {reason}", file=sys.stderr)
    raise SystemExit(EXIT_SCENARIO)


def _dump_ipv6(pkt) -> list[str]:
    lines = [
        "version: 6",
        f"traffic-class: 0x{pkt.traffic_class:02X}",
        f"flow-label: 0x{pkt.flow_label:05X}",
        f"payload-length: {pkt.payload_length}",
        f"next-header: {pkt.next_header} ({_NH_NAMES.get(pkt.next_header, 'other')})",
        f"hop-limit: {pkt.hop_limit}",
        f"src: {pkt.src}",
        f"dst: {pkt.dst}",
    ]
    if pkt.next_header == NEXT_HEADER_UDP:
        try:
            udp = decode_udp(pkt.payload)
            lines.append(
                f"udp: sport={udp.src_port} dport={udp.dst_port} "
                f"length={udp.length} checksum=0x{udp.checksum:04X}"
            )
        except ValueError:
            pass
    lines.append(f"ipv6-hex: {encode_ipv6(pkt).hex()}")
    return lines


def _dump_stream(data: bytes, orig, final, pan: int | None) -> list[str]:
    """Walk the header stack of one adaptation-layer payload.

    A mesh header is read only at the top level, where `pan` is given; a
    nested mesh dispatch prints as payload.  A `CodecError`'s offset counts
    from the start of the input, also for a header after a mesh header.
    """
    kind = codec.parse_dispatch(data[0])
    lines = [f"dispatch: 0x{data[0]:02X} {kind.value}"]
    if kind is codec.DispatchKind.MESH and pan is not None:
        mesh, consumed = codec.decode_mesh(data, pan)
        lines.append(
            f"mesh: orig={_fmt_addr(mesh.originator)} final={_fmt_addr(mesh.final)} "
            f"hops-left={mesh.hops_left}"
        )
        if consumed == len(data):
            raise codec.MalformedMesh("no payload after the mesh header", offset=consumed)
        try:
            return lines + _dump_stream(data[consumed:], mesh.originator, mesh.final, None)
        except codec.CodecError as exc:
            if exc.offset is not None:
                exc.offset += consumed
            raise
    elif kind is codec.DispatchKind.BC0:
        seq, consumed = codec.decode_bc0(data)
        lines += [f"bc0: seq={seq}", f"payload-hex: {data[consumed:].hex()}"]
    elif kind in (codec.DispatchKind.FRAG_FIRST, codec.DispatchKind.FRAG_SUBSEQUENT):
        header, consumed = codec.decode_frag(data)
        lines.append(
            f"frag: size={header.datagram_size} tag=0x{header.tag:04X} "
            f"offset={header.offset * 8}"
        )
        lines.append(f"fragment-hex: {data[consumed:].hex()}")
    elif kind in (codec.DispatchKind.HC1, codec.DispatchKind.UNCOMPRESSED_IPV6):
        pkt = codec.decompress_ipv6(data, orig, final)
        if kind is codec.DispatchKind.HC1:
            enc = codec.Hc1Encoding.from_byte(data[1])
            nh_name = ("inline", "udp", "icmp", "tcp")[enc.next_header_mode]
            lines.append(
                f"hc1: src-mode={enc.src_mode} dst-mode={enc.dst_mode} "
                f"tcfl-zero={int(enc.tcfl_zero)} next-header={nh_name} hc2={int(enc.hc2_follows)}"
            )
            lines.append(f"hop-limit: {data[2]}")
        lines += _dump_ipv6(pkt)
    else:
        lines.append("payload-hex: " + data[1:].hex())
    return lines


def _fmt_addr(addr) -> str:
    if isinstance(addr, Short16):
        return f"short:0x{addr.pan_id:04X}:0x{addr.short:04X}"
    return f"eui:{addr.eui.hex()}"


def cmd_run(args) -> int:
    text = _read_text(Path(args.scenario), "scenario")
    world, t_end = load_scenario(
        text, seed_override=args.seed, t_end_override=args.t_end, mode_override=args.mode_override
    )
    world.run_until(t_end)
    args.out.mkdir(parents=True, exist_ok=True)
    trace_path = args.out / "trace.tsv"
    metrics_path = args.out / "metrics.txt"
    # streamed line by line: no whole-file string or encoded copy is built
    for dest, lines in ((trace_path, world.trace_lines()), (metrics_path, world.metrics_lines())):
        with dest.open("w", encoding="utf-8", newline="\n") as stream:
            stream.writelines(line + "\n" for line in lines)
    print(f"trace: {trace_path} ({len(world.trace)} records)")
    print(f"metrics: {metrics_path}")
    return EXIT_OK


def cmd_codec(args) -> int:
    """Print the lines `args.lines` makes of the hex input; a decoder error exits 3 with no output."""
    try:
        lines = args.lines(args)
    except codec.CodecError as exc:
        where = f" at byte {exc.offset}" if exc.offset is not None else ""
        print(f"decode error{where}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (FrameError, ValueError) as exc:
        print(f"decode error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(*lines, sep="\n")
    return EXIT_OK


def _compress_lines(args) -> list[str]:
    pkt = decode_ipv6(args.hex)
    stream = codec.compress_ipv6(pkt, args.l2_src, args.l2_dst)
    enc = codec.Hc1Encoding.from_byte(stream[1])
    return [
        f"compressed-hex: {stream.hex()}",
        f"hc1: src-mode={enc.src_mode} dst-mode={enc.dst_mode} "
        f"tcfl-zero={int(enc.tcfl_zero)} hc2={int(enc.hc2_follows)}",
        f"octets: {len(stream)} (raw would be {1 + IPV6_HEADER_OCTETS + pkt.payload_length})",
    ]


def _ppdu_decode_lines(args) -> list[str]:
    ppdu = decode_ppdu(args.hex)
    return [f"frame-length: {ppdu.frame_length}", f"psdu-hex: {ppdu.psdu.hex()}"]


def cmd_check(args) -> int:
    """Verify `<hex-input> <expected-kind> <hex-output>` golden records.

    Header records re-encode to the expected output; hc1/ipv6 records
    decompress to the expected raw IPv6 packet (default link context).
    """
    path = args.file
    text = _read_text(path, "vector file")
    failures = 0
    checked = 0
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        checked += 1
        if len(parts) != 3:
            print(f"{path}:{lineno}: expected three fields", file=sys.stderr)
            failures += 1
            continue
        expected_kind, expected_hex = parts[1], parts[2]
        try:
            data = bytes.fromhex(parts[0])
            actual = _vector_result(data, args.pan)
        except ValueError as exc:
            print(f"{path}:{lineno}: {exc}", file=sys.stderr)
            failures += 1
            continue
        kind = codec.parse_dispatch(data[0]).value
        if kind != expected_kind or actual.hex() != expected_hex:
            print(
                f"{path}:{lineno}: got kind={kind} out={actual.hex()}",
                file=sys.stderr,
            )
            failures += 1
    if failures:
        print(f"{failures} of {checked} vectors failed", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"{checked} vectors ok")
    return EXIT_OK


def _vector_result(data: bytes, pan: int) -> bytes:
    kind = codec.parse_dispatch(data[0])
    if kind is codec.DispatchKind.BC0:
        seq, consumed = codec.decode_bc0(data)
        return codec.encode_bc0(seq) + data[consumed:]
    if kind is codec.DispatchKind.MESH:
        mesh, consumed = codec.decode_mesh(data, pan)
        return codec.encode_mesh(mesh) + data[consumed:]
    if kind in (codec.DispatchKind.FRAG_FIRST, codec.DispatchKind.FRAG_SUBSEQUENT):
        header, consumed = codec.decode_frag(data)
        if header.first:
            return codec.encode_frag_first(header.datagram_size, header.tag) + data[consumed:]
        return (
            codec.encode_frag_subsequent(header.datagram_size, header.tag, header.offset)
            + data[consumed:]
        )
    if kind in (codec.DispatchKind.HC1, codec.DispatchKind.UNCOMPRESSED_IPV6):
        pkt = codec.decompress_ipv6(
            data, _l2_address(DEFAULT_L2_SRC), _l2_address(DEFAULT_L2_DST)
        )
        return encode_ipv6(pkt)
    raise ValueError(f"vector kind {kind.value} is not checkable")


def cmd_budget(_args) -> int:
    print("security      overhead  mac-payload-budget")
    for mode in SecurityMode:
        print(f"{mode.label:<13} {mode.overhead:<9} {mode.budget}")
    print()
    print("band   bit-rate-bps  ppdu-octets  airtime")
    for band in reversed(PhyBand):
        airtime = frame_airtime(band, PPDU_MAX)
        print(f"{band.label:<6} {band.bit_rate:<13} {PPDU_MAX:<12} {airtime * 1000:.3f} ms")
    return EXIT_OK


def cmd_addr(args) -> int:
    if args.eui is not None:
        iid = addressing.iid_from_eui64(args.eui)
        print(f"eui: {args.eui.hex()}")
    else:
        p48 = addressing.pseudo48(args.pan, args.short)
        iid = addressing.iid_from_pseudo48(p48)
        print(f"pseudo48: {p48.hex()}")
    print(f"iid: {iid.hex()}")
    print(f"link-local: {addressing.link_local(iid)}")
    if args.prefix is not None:
        print(f"global: {addressing.global_unicast(args.prefix, iid)}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except Exception as exc:  # runtime failures map to a stable exit code
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
