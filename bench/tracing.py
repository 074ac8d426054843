"""Per-layer tracing of one benchmark run, from outside the package.

`Tracer` replaces each traced function of the `lowpan` package with a
wrapper at every place the function is bound: the defining module, every
`lowpan` module that imported it by name, and the package namespace.
Methods are wrapped on their class.  Leaving the `with` block puts every
original binding back.

Most wrappers record a span (name, start, end, parent span, and the id
of the `World.step` event it ran under) into flat in-memory arrays.  Hot
one-line helpers (`addressing.iid_*`, `World.schedule`) are only counted,
so their time stays in their caller's self time rather than in millions
of spans.  Self time is a span's duration minus the time covered by its
direct child spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

from lowpan import addressing, codec, frame, gateway, ipv6, netsim, reassembly, scenario
from lowpan.codec import CodecError
from lowpan.frame import FrameError
from lowpan.gateway import GatewayError
from lowpan.reassembly import FragmentOutcome

_GATEWAY_METHODS = (
    "devid_uplink", "devid_downlink", "zigbee_uplink", "zigbee_downlink",
    "bridge_uplink", "bridge_downlink", "relay_broadcast",
)


def _crc_octets(counts, name, args, result):
    counts[name + ".octets"] += len(args[0])


def _udp_octets(counts, name, args, result):
    counts[name + ".octets"] += args[2].length


def _fragment_pieces(counts, name, args, result):
    counts[name + ".pieces"] += len(result)
    if len(result) > 1:
        counts[name + ".datagrams"] += 1


def _fragment_outcome(counts, name, args, result):
    if result.outcome is FragmentOutcome.COMPLETE:
        counts[name + ".complete"] += 1
    elif result.outcome is FragmentOutcome.DROPPED:
        counts[name + ".dropped"] += 1


# (module, function, error family counted as `.errors`, extra counter hook)
_FUNCTIONS = [
    (frame, "crc16", (), _crc_octets),
    (frame, "encode_mac_frame", (), None),
    (frame, "decode_mac_frame", FrameError, None),
    (codec, "compress_ipv6", (), None),
    (codec, "decompress_ipv6", CodecError, None),
    (codec, "encode_mesh", (), None),
    (codec, "decode_mesh", (), None),
    (reassembly, "fragment", (), _fragment_pieces),
    (reassembly, "accept_fragment", (), _fragment_outcome),
    (ipv6, "udp_checksum", (), _udp_octets),
    (scenario, "load_scenario", (), None),
]
_COUNTED_FUNCTIONS = [(addressing, "iid_for"), (addressing, "iid_from_eui64")]
# (class, method, error family); `World.step` also sets the step id.
_METHODS = [
    (netsim.World, "prepare", ()),
    (netsim.World, "step", ()),
] + [(gateway.Gateway, m, GatewayError) for m in _GATEWAY_METHODS]


# Reported per-layer metrics and their units; bench.trace_overhead_s stays last.
PER_LAYER = (
    [("frame.crc16." + s, u) for s, u in (("calls", "count"), ("self_s", "s"), ("octets", "octets"))]
    + [("frame.encode_mac_frame." + s, u) for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("frame.decode_mac_frame." + s, u)
       for s, u in (("calls", "count"), ("self_s", "s"), ("errors", "count"))]
    + [("codec.compress_ipv6." + s, u) for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("codec.decompress_ipv6." + s, u)
       for s, u in (("calls", "count"), ("self_s", "s"), ("errors", "count"))]
    + [(f"codec.{f}.{s}", u) for f in ("encode_mesh", "decode_mesh")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("reassembly.fragment." + s, u)
       for s, u in (("calls", "count"), ("self_s", "s"), ("pieces", "count"))]
    + [("reassembly.accept_fragment." + s, u)
       for s, u in (("calls", "count"), ("self_s", "s"), ("complete", "count"), ("dropped", "count"))]
    + [("reassembly.yield", "ratio"), ("reassembly.buffers_live_end", "count")]
    + [("ipv6.udp_checksum." + s, u) for s, u in (("calls", "count"), ("self_s", "s"), ("octets", "octets"))]
    + [("addressing.iid_for.calls", "count"), ("addressing.iid_from_eui64.calls", "count"),
       ("addressing.iid_calls_per_send", "calls/send")]
    + [("netsim.World.prepare.self_s", "s"), ("netsim.route_entries", "count"),
       ("netsim.World.step.calls", "count"), ("netsim.World.step.self_s", "s"),
       ("netsim.queue_peak", "count"), ("netsim.trace_records", "count"), ("netsim.render_s", "s"),
       ("netsim.flood_duplicate_ratio", "ratio"), ("netsim.sim.delivery_ratio", "ratio"),
       ("netsim.sim.frames_tx", "count"), ("netsim.sim.drops", "count")]
    + [(f"gateway.Gateway.{m}.{s}", u) for m in _GATEWAY_METHODS
       for s, u in (("calls", "count"), ("self_s", "s"), ("errors", "count"))]
    + [("scenario.load_scenario.self_s", "s"), ("bench.trace_overhead_s", "s")]
)


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Context manager that wraps the traced functions while it is active."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_step = array("i")
        self.counts: Counter = Counter()
        self.steps = 0
        self.queue_len = 0
        self.queue_peak = 0
        self._stack: list[int] = []
        self._step = -1
        self._patches: list[tuple[object, str, object]] = []

    # --- installing and restoring ------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for module, fn_name, errors, hook in _FUNCTIONS:
                name = f"{_layer(module.__name__)}.{fn_name}"
                self._rebind(getattr(module, fn_name), self._spanned(name, errors, hook))
            for module, fn_name in _COUNTED_FUNCTIONS:
                self._rebind(getattr(module, fn_name), self._counted(f"{_layer(module.__name__)}.{fn_name}"))
            for cls, method, errors in _METHODS:
                name = f"{_layer(cls.__module__)}.{cls.__name__}.{method}"
                wrapper = self._spanned(name, errors, None)(vars(cls)[method])
                if method == "step":
                    wrapper = self._stepped(wrapper)
                self._patch(cls, method, wrapper)
            self._patch(netsim.World, "schedule", self._scheduled(vars(netsim.World)["schedule"]))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self.restore()

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, make_wrapper):
        """Replace `original` in every `lowpan` module namespace that binds it."""
        wrapper = make_wrapper(original)
        for module_name, module in sorted(sys.modules.items()):
            if module_name != "lowpan" and not module_name.startswith("lowpan."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- wrappers ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_step.append(self._step)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, errors, hook):
        name_id = self._name_id(name)
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self._open(name_id)
                try:
                    result = fn(*args, **kwargs)
                except errors:
                    counts[name + ".errors"] += 1
                    raise
                finally:
                    self._close(idx)
                if hook is not None:
                    hook(counts, name, args, result)
                return result
            return wrapper
        return make

    def _stepped(self, spanned):
        """Number each event; spans opened while it runs carry that number."""
        @functools.wraps(spanned)
        def wrapper(world):
            self._step = self.steps
            self.steps += 1
            self.queue_len -= 1
            try:
                return spanned(world)
            finally:
                self._step = -1
        return wrapper

    def _counted(self, name: str):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _scheduled(self, fn):
        @functools.wraps(fn)
        def wrapper(world, t, event):
            fn(world, t, event)
            self.queue_len += 1
            self.queue_peak = max(self.queue_peak, self.queue_len)
        return wrapper

    # --- results ---------------------------------------------------------------

    def stats(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        n = len(self.span_name)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def write_spans(self, path):
        """One line per span: id, name, start and end (s from the first span), parent, step."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w") as out:
            out.write("id\tname\tstart_s\tend_s\tparent\tstep\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i] - t0:.9f}\t"
                    f"{self.span_end[i] - t0:.9f}\t{self.span_parent[i]}\t{self.span_step[i]}\n"
                )


def layer_metrics(tracer, world, rep) -> dict[str, float]:
    """Per-layer metrics of one traced run, all but the last of PER_LAYER.

    The last, the tracing overhead, needs untraced runs to compare with.
    """
    stats = tracer.stats()
    counts = tracer.counts
    m = world.metrics
    out: dict[str, float] = {}
    for name, _unit in PER_LAYER[:-1]:
        base, stat = name.rsplit(".", 1)
        if stat in ("calls", "self_s") and base in stats:
            out[name] = stats[base][0 if stat == "calls" else 1]
        else:
            out[name] = counts[name]
    fragmented = counts["reassembly.fragment.datagrams"]
    iid_calls = counts["addressing.iid_for.calls"] + counts["addressing.iid_from_eui64.calls"]
    dups = m.get("drops_duplicate", 0)
    flood_rx = dups + m.get("bcast_delivered", 0) - m.get("bcast_sent", 0)
    out.update({
        "reassembly.yield": counts["reassembly.accept_fragment.complete"] / fragmented if fragmented else 0.0,
        "reassembly.buffers_live_end": sum(len(n.reassembly) for n in world.nodes.values()),
        "addressing.iid_calls_per_send": iid_calls / m["sent"] if m.get("sent") else 0.0,
        "netsim.route_entries": sum(len(n.routes) for n in world.nodes.values()),
        "netsim.queue_peak": tracer.queue_peak,
        "netsim.trace_records": rep.records,
        "netsim.render_s": rep.render_s,
        "netsim.flood_duplicate_ratio": dups / flood_rx if flood_rx else 0.0,
        "netsim.sim.delivery_ratio": m.get("delivered", 0) / m["sent"] if m.get("sent") else 1.0,
        "netsim.sim.frames_tx": m.get("frames_tx", 0),
        "netsim.sim.drops": m.get("drops", 0),
    })
    return out
