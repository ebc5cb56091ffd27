"""The traced run: spans around calls into each layer, from outside.

:class:`SpanRecorder` wraps public functions of the program's layers in
place, records one span per call (name, real start and end, parent span)
in memory, and restores every original on :meth:`SpanRecorder.restore`.
Nothing in the program changes; the benchmark patches the name each
caller looks up (a class attribute, or the module global a caller
imported, e.g. ``repro.net.message.to_wire``).

Calls served on a TCP handler thread have no parent on their own
thread; they adopt the client span that is waiting on the wire, so a
request's server-side work nests inside its ``net.tcpnet.request`` span.

:func:`layer_metrics` turns the spans of the traced units into the
per-layer table. A span's *self time* is its duration minus the part of
it that its child spans cover; per unit, the self times plus the time no
span covers must add up to the unit's wall time (the conservation
check).
"""

from __future__ import annotations

import functools
import json
import socket
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.crypto.keys import KeyPair, PublicKey
from repro.globedoc.urls import HybridUrl
from repro.location.service import LocationClient
from repro.naming.service import SecureResolver
from repro.net.rpc import RpcClient
from repro.net.simnet import SimTransport
from repro.net.tcpnet import TcpTransport
from repro.proxy.binding import Binder
from repro.proxy.checks import SecurityChecker
from repro.proxy.clientproxy import GlobeDocProxy
from repro.proxy.pipeline import AccessScheduler
from repro.proxy.session import SecureSession
from repro.revocation.checker import RevocationChecker
from repro.server.objectserver import ObjectServer
from repro.server.resources import ResourceAccountant
from repro.storage.wal import FRAME_HEADER, WriteAheadLog
from repro.util import encoding
from repro.versioning import merge as merge_module
from repro.versioning import store as store_module
from repro.versioning.client import VersionedReader
from repro.versioning.delta import SignedDelta
from repro.versioning.store import VersionedObjectStore

__all__ = ["SpanRecorder", "ConnectionCounter", "layer_metrics", "PER_LAYER_METRICS"]

# Span record fields.
NAME, START, END, PARENT, EXTRA = range(5)

#: (span name, owner, attribute) for methods looked up on their class.
METHOD_TARGETS = (
    ("globedoc.urls.parse", HybridUrl, "parse"),
    ("proxy.handle", GlobeDocProxy, "handle"),
    ("proxy.handle", GlobeDocProxy, "handle_many"),
    ("proxy.binding.bind", Binder, "bind"),
    ("proxy.session.establish", SecureSession, "establish"),
    ("proxy.checks.public_key", SecurityChecker, "check_public_key"),
    ("proxy.checks.certificate", SecurityChecker, "check_certificate"),
    ("proxy.checks.element", SecurityChecker, "check_element"),
    ("proxy.checks.revocation", SecurityChecker, "check_revocation"),
    ("proxy.checks.frontier", SecurityChecker, "check_frontier"),
    ("proxy.pipeline", AccessScheduler, "run"),
    ("net.rpc.client", RpcClient, "call"),
    ("net.rpc.client_many", RpcClient, "call_many"),
    ("net.simnet.request", SimTransport, "request"),
    ("net.simnet.request", SimTransport, "request_many"),
    ("net.tcpnet.request", TcpTransport, "request"),
    ("server.get_element", ObjectServer, "rpc_get_element"),
    ("server.resources.charge_serve", ResourceAccountant, "charge_serve"),
    ("naming.resolve", SecureResolver, "resolve"),
    ("location.lookup", LocationClient, "lookup"),
    ("crypto.rsa_verify", PublicKey, "verify"),
    ("crypto.rsa_sign", KeyPair, "sign"),
    ("revocation.check", RevocationChecker, "check"),
    ("versioning.put_delta", VersionedObjectStore, "put_delta"),
    ("versioning.read", VersionedReader, "read"),
    ("versioning.delta_verify", SignedDelta, "verify"),
    ("storage.wal.append", WriteAheadLog, "append"),
)

#: (span name, function, whether to patch it in its own module too).
#: Each function is patched in every ``repro`` module that holds it. The
#: wire codec is not patched inside ``repro.util.encoding`` itself, so
#: ``to_wire`` keeps its JSON work as self time and ``canonical_bytes``
#: counts only signing and journal payloads.
FUNCTION_TARGETS = (
    ("util.encoding.to_wire", encoding.to_wire, False),
    ("util.encoding.from_wire", encoding.from_wire, False),
    ("util.encoding.canonical_bytes", encoding.canonical_bytes, False),
    ("versioning.merge", merge_module.merge_deltas, True),
    ("versioning.gossip", store_module.gossip_once, True),
)

#: Layer of a span: the longest prefix listed here.
LAYERS = (
    "globedoc", "proxy.pipeline", "proxy", "net", "server", "naming",
    "location", "crypto", "revocation", "versioning", "storage",
    "util.encoding",
)


def layer_of(span_name: str) -> str:
    matches = [
        layer for layer in LAYERS
        if span_name == layer or span_name.startswith(layer + ".")
    ]
    return max(matches, key=len) if matches else "other"


def _extra(name: str, args: tuple, result: Any) -> Any:
    """What a span remembers beyond its interval, by span name."""
    if name in ("util.encoding.to_wire", "util.encoding.canonical_bytes"):
        return len(result)
    if name == "util.encoding.from_wire":
        return len(args[0])
    if name == "net.rpc.client":
        return args[2] if len(args) > 2 else None
    if name == "net.rpc.client_many":
        return len(args[1])
    if name == "net.tcpnet.request" or (name == "net.simnet.request" and len(args) == 3):
        return len(args[2])
    if name == "location.lookup":
        return bool(getattr(result, "from_cache", False))
    return None


class SpanRecorder:
    """Records spans around wrapped calls; installs and restores wrappers."""

    def __init__(self) -> None:
        #: One record per call: [name, start, end, parent index, extra].
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Index of the span blocked on a TCP round trip, adopted as
        #: parent by spans that start on a server thread.
        self._awaiting: Optional[int] = None
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        #: (register, original handler, wrapped handler) per RPC service.
        self._slots: List[Tuple[Callable, Any, Any]] = []
        #: Simulated seconds spent in outermost simnet requests.
        self.modeled_s = 0.0

    # -- recording --------------------------------------------------------

    def mark(self) -> int:
        return len(self.spans)

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        local = self._local
        lock = self._lock
        perf = time.perf_counter
        recorder = self
        waits_on_wire = name == "net.tcpnet.request"
        simnet = name == "net.simnet.request"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else recorder._awaiting
            record = [name, 0.0, 0.0, parent, None]
            with lock:
                index = len(spans)
                spans.append(record)
            stack.append(index)
            outer_sim = simnet and (parent is None or spans[parent][NAME] != name)
            if waits_on_wire:
                recorder._awaiting = index
            if outer_sim:
                clock = args[0].network.clock
                sim_start = clock.now()
            record[START] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf()
                stack.pop()
                if waits_on_wire:
                    recorder._awaiting = None
                if outer_sim:
                    recorder.modeled_s += clock.now() - sim_start
            record[EXTRA] = _extra(name, args, result)
            return result

        return wrapper

    # -- installing -------------------------------------------------------

    def _patch(self, owner: Any, attr: str, name: str) -> None:
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__))
        else:
            new = self.wrap(name, raw)
        self._patches.append((owner, attr, raw, new))

    def plan(self) -> None:
        """Build every wrapper once (installing is then cheap)."""
        for name, owner, attr in METHOD_TARGETS:
            self._patch(owner, attr, name)
        modules = [
            module for module_name, module in list(sys.modules.items())
            if module is not None
            and (module_name == "repro" or module_name.startswith("repro."))
        ]
        for name, fn, in_definer in FUNCTION_TARGETS:
            wrapper = self.wrap(name, fn)
            for module in modules:
                if vars(module).get(fn.__name__) is not fn:
                    continue
                if module.__name__ == fn.__module__ and not in_definer:
                    continue
                self._patches.append((module, fn.__name__, fn, wrapper))

    def install(self, rpc_slots) -> None:
        """Patch every target and route each RPC service through a
        ``net.rpc.server`` span (an object server's dispatch table is
        rebuilt so that it picks up the wrapped ``rpc_get_element``).
        *rpc_slots* is taken afresh on every install: a workload may
        have rebuilt its servers since the last one."""
        if not self._patches:
            self.plan()
        for owner, attr, _raw, new in self._patches:
            setattr(owner, attr, new)
        self._slots = []
        for register, original, server in rpc_slots:
            base = server.rpc_server().handle_frame if server is not None else original
            wrapped = self.wrap("net.rpc.server", base)
            self._slots.append((register, original, wrapped))
            register(wrapped)

    def restore(self) -> None:
        for owner, attr, raw, _new in reversed(self._patches):
            setattr(owner, attr, raw)
        for register, original, _wrapped in self._slots:
            register(original)

    def restored(self) -> List[str]:
        """Targets that do not hold their original object (empty = all
        restored)."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, raw, _new in self._patches
            if vars(owner).get(attr) is not raw
        ]

    def dump(self, path) -> None:
        """Write the spans out, one JSON line each."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, _extra) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end, "parent": parent},
                    separators=(",", ":"),
                ) + "\n")


class ConnectionCounter:
    """Counts TCP connections opened (``socket.create_connection``)."""

    def __init__(self) -> None:
        self.opened = 0
        self._original = socket.create_connection

    def __enter__(self) -> "ConnectionCounter":
        original = self._original

        def counting(*args, **kwargs):
            self.opened += 1
            return original(*args, **kwargs)

        socket.create_connection = counting
        return self

    def __exit__(self, *exc_info) -> None:
        socket.create_connection = self._original

    def reset(self) -> None:
        self.opened = 0


# ----------------------------------------------------------------------
# From spans to the per-layer table
# ----------------------------------------------------------------------


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


PER_LAYER_METRICS = (
    ("server.resources.charge_serve.us_per_call", "us"),
    ("server.resources.window_entries", "count"),
    ("server.get_element.us_per_call", "us"),
    ("util.encoding.to_wire.us_per_op", "us"),
    ("util.encoding.from_wire.us_per_op", "us"),
    ("util.encoding.canonical_bytes.us_per_op", "us"),
    ("util.encoding.bytes_per_op", "bytes"),
    ("net.rpc.calls_per_op", "count"),
    ("net.rpc.client_self_us_per_op", "us"),
    ("net.rpc.server_self_us_per_op", "us"),
    ("net.simnet.requests_per_op", "count"),
    ("net.simnet.modeled_ms_per_op", "ms"),
    ("net.tcpnet.requests_per_op", "count"),
    ("net.tcpnet.self_us_per_call", "us"),
    ("net.tcpnet.connections_opened", "count"),
    ("globedoc.urls.parse_us_per_op", "us"),
    ("naming.resolve.calls_per_op", "count"),
    ("naming.resolve.us_per_call", "us"),
    ("location.lookup.calls_per_op", "count"),
    ("location.lookup.us_per_call", "us"),
    ("location.cache_hit_ratio", "fraction"),
    ("proxy.handle.self_us_per_op", "us"),
    ("proxy.binding.bind.calls_per_op", "count"),
    ("proxy.binding.bind.us_per_call", "us"),
    ("proxy.session.establish.calls_per_op", "count"),
    ("proxy.session.establish.us_per_call", "us"),
) + tuple(
    (f"proxy.checks.{check}.{kind}", unit)
    for check in ("public_key", "certificate", "element", "revocation", "frontier")
    for kind, unit in (("calls_per_op", "count"), ("us_per_call", "us"))
) + (
    ("proxy.pipeline.self_us_per_op", "us"),
    ("proxy.pipeline.prefetch_hit_ratio", "fraction"),
    ("proxy.pipeline.coalesced_per_op", "count"),
    ("crypto.rsa_verify.calls_per_op", "count"),
    ("crypto.rsa_verify.us_per_call", "us"),
    ("crypto.rsa_sign.calls_per_op", "count"),
    ("crypto.rsa_sign.us_per_call", "us"),
    ("crypto.verify_cache.hit_ratio", "fraction"),
    ("revocation.check.calls_per_op", "count"),
    ("revocation.check.us_per_call", "us"),
    ("versioning.put_delta.us_per_call", "us"),
    ("versioning.merge.us_per_call", "us"),
    ("versioning.gossip.us_per_call", "us"),
    ("versioning.deltas_verified_per_read", "count"),
    ("versioning.fetch_request_bytes", "bytes"),
    ("storage.wal.appends_per_op", "count"),
    ("storage.wal.us_per_call", "us"),
    ("storage.wal.bytes_per_op", "bytes"),
    ("obs.tracing_overhead_cpu_ms_per_op", "ms"),
    ("obs.unattributed_us_per_op", "us"),
    ("obs.conservation_error_us_per_op", "us"),
) + tuple(
    (f"layer.{layer}.self_us_per_op", "us") for layer in LAYERS
)


def layer_metrics(
    spans: List[list],
    units: List[Tuple[str, float, float, int, int]],
    ops: int,
    counters: Dict[str, float],
    extra: Dict[str, float],
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics over the spans of the traced *units*.

    Returns (metrics, check) where ``check`` holds the conservation
    result: ``ok`` is False if any unit's self times plus its
    unattributed time miss its wall time, or a span lies outside every
    unit.
    """
    children: Dict[int, List[int]] = {}
    for index, record in enumerate(spans):
        parent = record[PARENT]
        if parent is not None:
            children.setdefault(parent, []).append(index)

    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    unattributed = 0.0
    worst_error = 0.0
    total_error = 0.0
    in_unit = 0
    read_units = 0
    deltas_verified_in_reads = 0
    for kind, lo, hi, first, last in units:
        wall = hi - lo
        if kind == "read":
            read_units += 1
        top = []
        total_self = 0.0
        for index in range(first, last):
            record = spans[index]
            name, start, end = record[NAME], record[START], record[END]
            in_unit += 1
            if record[PARENT] is None or record[PARENT] < first:
                top.append((start, end))
            kids = children.get(index, ())
            own = (end - start) - _covered(
                [(spans[k][START], spans[k][END]) for k in kids], start, end
            )
            total_self += own
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            layer = layer_of(name)
            if layer in layer_self:
                layer_self[layer] += own
            if kind == "read" and name == "versioning.delta_verify":
                deltas_verified_in_reads += 1
        rest = wall - _covered(top, lo, hi)
        unattributed += rest
        error = abs(total_self + rest - wall)
        total_error += error
        worst_error = max(worst_error, error / wall if wall > 0 else 0.0)

    def n(name: str) -> int:
        return calls.get(name, 0)

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    def us_per_call(name: str) -> float:
        return self_s.get(name, 0.0) * 1e6 / n(name) if n(name) else 0.0

    def us_per_op(*names: str) -> float:
        return per_op(sum(self_s.get(name, 0.0) for name in names) * 1e6)

    def extras(name: str, parent_op: Optional[str] = None) -> List[Any]:
        out = []
        for kind, lo, hi, first, last in units:
            for index in range(first, last):
                record = spans[index]
                if record[NAME] != name or record[EXTRA] is None:
                    continue
                if parent_op is not None:
                    parent = record[PARENT]
                    if parent is None or spans[parent][EXTRA] != parent_op:
                        continue
                out.append(record[EXTRA])
        return out

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    lookups = extras("location.lookup")
    rpc_calls = n("net.rpc.client") + sum(extras("net.rpc.client_many"))
    wal_bytes = sum(
        spans[k][EXTRA] or 0
        for kind, lo, hi, first, last in units
        for index in range(first, last)
        if spans[index][NAME] == "storage.wal.append"
        for k in children.get(index, ())
        if spans[k][NAME] == "util.encoding.canonical_bytes"
    ) + n("storage.wal.append") * FRAME_HEADER.size
    fetch_frames = extras("net.tcpnet.request", "versioning.fetch") + extras(
        "net.simnet.request", "versioning.fetch"
    )

    metrics = {
        "server.resources.charge_serve.us_per_call": us_per_call("server.resources.charge_serve"),
        "server.resources.window_entries": extra["window_entries"],
        "server.get_element.us_per_call": us_per_call("server.get_element"),
        "util.encoding.to_wire.us_per_op": us_per_op("util.encoding.to_wire"),
        "util.encoding.from_wire.us_per_op": us_per_op("util.encoding.from_wire"),
        "util.encoding.canonical_bytes.us_per_op": us_per_op("util.encoding.canonical_bytes"),
        "util.encoding.bytes_per_op": per_op(
            sum(extras("util.encoding.to_wire")) + sum(extras("util.encoding.from_wire"))
        ),
        "net.rpc.calls_per_op": per_op(rpc_calls),
        "net.rpc.client_self_us_per_op": us_per_op("net.rpc.client", "net.rpc.client_many"),
        "net.rpc.server_self_us_per_op": us_per_op("net.rpc.server"),
        "net.simnet.requests_per_op": per_op(n("net.simnet.request")),
        "net.simnet.modeled_ms_per_op": per_op(extra["simnet_modeled_s"] * 1e3),
        "net.tcpnet.requests_per_op": per_op(n("net.tcpnet.request")),
        "net.tcpnet.self_us_per_call": us_per_call("net.tcpnet.request"),
        "net.tcpnet.connections_opened": extra["connections_opened"],
        "globedoc.urls.parse_us_per_op": us_per_op("globedoc.urls.parse"),
        "naming.resolve.calls_per_op": per_op(n("naming.resolve")),
        "naming.resolve.us_per_call": us_per_call("naming.resolve"),
        "location.lookup.calls_per_op": per_op(n("location.lookup")),
        "location.lookup.us_per_call": us_per_call("location.lookup"),
        "location.cache_hit_ratio": ratio(sum(lookups), len(lookups) - sum(lookups)),
        "proxy.handle.self_us_per_op": us_per_op("proxy.handle"),
        "proxy.binding.bind.calls_per_op": per_op(n("proxy.binding.bind")),
        "proxy.binding.bind.us_per_call": us_per_call("proxy.binding.bind"),
        "proxy.session.establish.calls_per_op": per_op(n("proxy.session.establish")),
        "proxy.session.establish.us_per_call": us_per_call("proxy.session.establish"),
        "proxy.pipeline.self_us_per_op": us_per_op("proxy.pipeline"),
        "proxy.pipeline.prefetch_hit_ratio": ratio(
            counters.get("prefetch_hits", 0), counters.get("prefetch_misses", 0)
        ),
        "proxy.pipeline.coalesced_per_op": per_op(counters.get("coalesced", 0)),
        "crypto.rsa_verify.calls_per_op": per_op(n("crypto.rsa_verify")),
        "crypto.rsa_verify.us_per_call": us_per_call("crypto.rsa_verify"),
        "crypto.rsa_sign.calls_per_op": per_op(n("crypto.rsa_sign")),
        "crypto.rsa_sign.us_per_call": us_per_call("crypto.rsa_sign"),
        "crypto.verify_cache.hit_ratio": ratio(
            counters.get("verify_hits", 0), counters.get("verify_misses", 0)
        ),
        "revocation.check.calls_per_op": per_op(n("revocation.check")),
        "revocation.check.us_per_call": us_per_call("revocation.check"),
        "versioning.put_delta.us_per_call": us_per_call("versioning.put_delta"),
        "versioning.merge.us_per_call": us_per_call("versioning.merge"),
        "versioning.gossip.us_per_call": us_per_call("versioning.gossip"),
        "versioning.deltas_verified_per_read": (
            deltas_verified_in_reads / read_units if read_units else 0.0
        ),
        "versioning.fetch_request_bytes": (
            sum(fetch_frames) / len(fetch_frames) if fetch_frames else 0.0
        ),
        "storage.wal.appends_per_op": per_op(n("storage.wal.append")),
        "storage.wal.us_per_call": us_per_call("storage.wal.append"),
        "storage.wal.bytes_per_op": per_op(wal_bytes),
        "obs.tracing_overhead_cpu_ms_per_op": extra["tracing_overhead_cpu_ms_per_op"],
        "obs.unattributed_us_per_op": per_op(unattributed * 1e6),
        "obs.conservation_error_us_per_op": per_op(total_error * 1e6),
    }
    for check_name in ("public_key", "certificate", "element", "revocation", "frontier"):
        span = f"proxy.checks.{check_name}"
        metrics[f"{span}.calls_per_op"] = per_op(n(span))
        metrics[f"{span}.us_per_call"] = us_per_call(span)
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_us_per_op"] = per_op(layer_self[layer] * 1e6)
    check = {
        "ok": worst_error <= 1e-6 and in_unit == len(spans),
        "worst_relative_error": worst_error,
        "spans": len(spans),
        "spans_outside_units": len(spans) - in_unit,
        "units": len(units),
    }
    return metrics, check
