"""Seeded scenario generators for the benchmark workloads.

Each generator returns scenario text that `lowpan run` accepts, so a
benchmark run can be replayed from a dumped `.scn` file.  The seed picks
endpoints, orderings and the simulator's loss draws; the amount of work
(node count, datagram count, payload-size multiset, hop-distance
multiset) is the same for every seed, so runs on different seeds time
the same work.

`small=True` gives a reduced instance of the same shape for smoke tests.
"""

from __future__ import annotations

import random

HOST_ADDR = "fd00::99"
HOST_DEVID = 9


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _general(seed: int, t_end: float, pan: int = 0xBEEF) -> list[str]:
    return ["[general]", f"seed = {seed}", f"t_end = {t_end:g}", f"pan = 0x{pan:04X}", "hops = 8", ""]


def mesh_900(seed: int, small: bool = False) -> str:
    """A side x side FFD grid behind a corner border gateway, 2% link loss.

    Short UDP payloads (8-48 octets) between node pairs 2-6 hops apart,
    plus a few BC0 floods.  Routing (all-pairs BFS in `prepare`) and the
    per-send IID-to-short lookup dominate.
    """
    side = 6 if small else 30
    flows = 24 if small else 360
    floods = 1 if small else 4
    rng = _rng("mesh-900", seed)

    def nid(x: int, y: int) -> str:
        return f"n{x}_{y}"

    out = _general(seed, t_end=flows * 0.02 + 5.0)
    for y in range(side):
        for x in range(side):
            role = "coordinator" if (x, y) == (0, 0) else "ffd"
            out += [f"[node {nid(x, y)}]", f"role = {role}", f"short = 0x{1 + y * side + x:04X}", ""]
    out += ["[gateway gw]", "mode = border", "short = 0x0FFE", "wired = fd00::a",
            "prefix = 2001:db8:a::", "", "[host h1]", f"addr = {HOST_ADDR}", ""]
    for y in range(side):
        for x in range(side):
            if x + 1 < side:
                out += [f"[link {nid(x, y)} {nid(x + 1, y)}]", "loss = 0.02", ""]
            if y + 1 < side:
                out += [f"[link {nid(x, y)} {nid(x, y + 1)}]", "loss = 0.02", ""]
    out += [f"[link {nid(side - 1, side - 1)} gw]", "loss = 0.02", ""]

    out.append("[traffic]")
    distances = [2, 3, 4, 5, 6]
    sizes = [8, 16, 24, 32, 40, 48]
    # Every grid row is a destination equally often: an originated send
    # scans nodes in short-address order up to the destination, so this
    # keeps the scan work the same for every seed.
    rows = [i % side for i in range(flows)]
    rng.shuffle(rows)
    for i, ty in enumerate(rows):
        d = distances[i % len(distances)]
        while True:
            tx = rng.randrange(side)
            dx = rng.randint(0, d)
            sx = tx + rng.choice((-1, 1)) * dx
            sy = ty + rng.choice((-1, 1)) * (d - dx)
            if 0 <= sx < side and 0 <= sy < side:
                break
        at = 0.5 + i * 0.02 + rng.random() * 0.01
        out.append(
            f"at={at:.4f} kind=udp from={nid(sx, sy)} to={nid(tx, ty)} "
            f"sport=0xF0B0 dport=0xF0B1 size={sizes[i % len(sizes)]}"
        )
    # Flood origins keep the hops-limited flood inside the grid, so every
    # flood reaches the same number of nodes whatever the seed.
    margin = min(8, (side - 1) // 2)
    for k in range(floods):
        at = 0.5 + (k + 0.5) * flows * 0.02 / floods
        x, y = (rng.randint(margin, side - 1 - margin) for _ in range(2))
        out.append(f"at={at:.4f} kind=broadcast from={nid(x, y)} size=8")
    return "\n".join(out) + "\n"


def frag_1280(seed: int, small: bool = False) -> str:
    """A line of FFDs, each with an RFD leaf, behind a border gateway.

    Mostly 1232-octet UDP payloads (1280-octet datagrams), some 200 and
    600, in both directions between the wired host and the leaves.  One
    leaf link loses 10% of frames, so abandoned reassemblies sit beside
    completed ones.
    """
    length = 6
    sizes = [1232, 600] if small else [1232] * 7 + [600] * 2 + [200]
    lossy_leaf = 3
    rng = _rng("frag-1280", seed)
    gap = 0.5
    # Every leaf gets every size once, half of them in each direction.
    flows = []
    for leaf in range(1, length + 1):
        rng.shuffle(sizes)
        for k, size in enumerate(sizes):
            flows.append((f"l{leaf}", size, k % 2 == 0))
    rng.shuffle(flows)

    out = _general(seed, t_end=len(flows) * gap + 5.0)
    for i in range(1, length + 1):
        out += [f"[node f{i}]", "role = coordinator" if i == 1 else "role = ffd",
                f"short = 0x{i:04X}", ""]
        out += [f"[node l{i}]", "role = rfd", f"short = 0x{0x100 + i:04X}", ""]
    out += ["[gateway gw]", "mode = border", "short = 0x00FE", "wired = fd00::a",
            "prefix = 2001:db8:a::", "", "[host h1]", f"addr = {HOST_ADDR}", "",
            "[link gw f1]", ""]
    for i in range(1, length + 1):
        if i < length:
            out += [f"[link f{i} f{i + 1}]", ""]
        out += [f"[link f{i} l{i}]"] + (["loss = 0.1"] if i == lossy_leaf else []) + [""]

    out.append("[traffic]")
    for i, (leaf, size, down) in enumerate(flows):
        src, dst = ("h1", leaf) if down else (leaf, "h1")
        at = 0.5 + i * gap + rng.random() * 0.1
        out.append(
            f"at={at:.4f} kind=udp from={src} to={dst} sport=0xF0B3 dport=0xF0B4 size={size}"
        )
    return "\n".join(out) + "\n"


# (mode, PAN, prefix) of each gateway-mix segment, in declaration order.
_MIX_PANS = [
    ("border", 0x1000, "2001:db8:10::"),
    ("devid", 0x2000, None),
    ("zigbee", 0x3000, "2001:db8:30::"),
    ("zigbee", 0x3100, "2001:db8:31::"),
    ("bridge", 0x4000, None),
    ("bridge", 0x4100, None),
]


def gateway_mix(seed: int, small: bool = False) -> str:
    """One star PAN per gateway mode plus a wired host with a devid.

    Every traffic kind that crosses a gateway is interleaved: border UDP
    both ways, devid uplinks and downlinks, zigbee APL across PANs and to
    the host, zigbee NWK broadcasts relayed to the host, bridge NWK
    tunnelled between the two bridge PANs, and BC0 floods in the border
    PAN relayed to the host.
    """
    star = 4 if small else 12
    cycles = 4 if small else 220
    rng = _rng("gateway-mix", seed)
    gap = 0.004

    out = _general(seed, t_end=cycles * 10 * gap + 2.0, pan=0x1000)
    out += ["[host h1]", f"addr = {HOST_ADDR}", f"devid = {HOST_DEVID}", ""]
    members: dict[int, list[tuple[str, int]]] = {}
    for k, (mode, pan, prefix) in enumerate(_MIX_PANS):
        gw = f"g{k}"
        out += [f"[gateway {gw}]", f"mode = {mode}", f"pan = 0x{pan:04X}", "short = 0x00FE",
                f"wired = fd00::{k + 1:x}"]
        if prefix:
            out.append(f"prefix = {prefix}")
        if mode in ("border", "zigbee"):
            out.append("subscribers = h1")
        if mode == "bridge":
            out.append(f"peer = fd00::{(k ^ 1) + 1:x}")
        out.append("")
        members[k] = []
        for j in range(star):
            node, short = f"p{k}n{j}", ((k + 1) << 8) | (0x10 + j)
            out += [f"[node {node}]", "role = rfd", f"pan = 0x{pan:04X}", f"short = 0x{short:04X}"]
            if mode == "devid":
                out.append(f"devid = {100 + j}")
            out += ["", f"[link {node} {gw}]", ""]
            members[k].append((node, short))

    def pick(k: int) -> tuple[str, int]:
        return members[k][rng.randrange(star)]

    out.append("[traffic]")
    t = 0.5
    for _ in range(cycles):
        events = []
        events.append(f"kind=udp from={pick(0)[0]} to=h1 sport=0xF0B3 dport=0xF0BF size=24")
        events.append(f"kind=udp from=h1 to={pick(0)[0]} sport=0xF0B3 dport=0xF0B4 size=32")
        j = rng.randrange(star)
        events.append(f"kind=app from=p1n{j} devid={100 + j} todevid={HOST_DEVID} size=20")
        j = rng.randrange(star)
        header = f"{HOST_DEVID:04x}{100 + j:04x}"
        events.append(f"kind=udp from=h1 to=g1 sport=0xF0B3 dport=0xF0B4 hex={header}{'a5' * 16}")
        a, b = rng.sample((2, 3), 2)
        events.append(f"kind=apl from={pick(a)[0]} to={pick(b)[0]} size=40")
        events.append(f"kind=apl from={pick(rng.choice((2, 3)))[0]} to=h1 size=30")
        events.append(f"kind=nwk from={pick(rng.choice((2, 3)))[0]} dst=0xFFFF size=12")
        a, b = rng.sample((4, 5), 2)
        events.append(f"kind=nwk from={pick(a)[0]} dst=0x{pick(b)[1]:04X} size=48")
        a, b = rng.sample((4, 5), 2)
        events.append(f"kind=nwk from={pick(a)[0]} dst=0x{pick(b)[1]:04X} size=16")
        events.append(f"kind=broadcast from={pick(0)[0]} size=8")
        rng.shuffle(events)
        for event in events:
            out.append(f"at={t:.4f} {event}")
            t += gap
    return "\n".join(out) + "\n"


WORKLOADS = {
    "mesh-900": mesh_900,
    "frag-1280": frag_1280,
    "gateway-mix": gateway_mix,
}
