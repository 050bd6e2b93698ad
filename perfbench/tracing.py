"""The traced run: spans around the program's public functions, per-layer metrics.

A traced run is kept apart from the timed runs.  It runs the workload's
load twice on one warm stack: half the time untraced (the baseline of the
tracing overhead and of CPU time per operation), half traced.  While traced,

* wrappers defined here time the public entry points of each layer
  (``SpikingNetwork.forward_batch`` and the ``snn.reference`` batch kernels
  it calls, the engine passes of ``SpikeStreamInference``, ``Session``
  fingerprints and ``ResultStore`` reads and writes, and the wire codec of
  ``repro.net.framing`` in this process);
* the program's own ``layer_profiler`` hook times each S-VGG11 layer of the
  cost model -- installed here on the caller's thread, and by the server's
  ``Tracer`` (sample rate 1.0, ``profile_layers``) on its worker threads;
* the server's ``Tracer`` records each request's stages.

Every span is kept in memory and written out once the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.core.pipeline import SpikeStreamInference, layer_profiler
from repro.net import framing
from repro.session import ResultStore, Session
from repro.snn import network as snn_network
from repro.snn import reference as snn_reference
from repro.snn.network import SpikingNetwork

#: S-VGG11's costed layers, in network order.
LAYERS = tuple(f"conv{i}" for i in range(1, 9)) + ("fc1", "fc2", "fc3")

#: Every per-layer metric, with its unit, in the order the output lists them.
PER_LAYER = (
    [("snn.forward_ms_per_frame", "ms/frame"), ("snn.conv2d_ms_per_frame", "ms/frame"),
     ("snn.im2row_ms_per_frame", "ms/frame"), ("snn.lif_ms_per_frame", "ms/frame"),
     ("snn.linear_ms_per_frame", "ms/frame"),
     ("core.cost_ms_per_frame", "ms/frame")]
    + [(f"core.cost_ms.{layer}", "ms/frame") for layer in LAYERS]
    + [("core.frames_costed", "count"),
       ("session.fingerprint_ms", "ms"), ("session.store_ms", "ms"),
       ("session.store_hits", "count"), ("session.store_misses", "count"),
       ("session.store_hit_ratio", "ratio"),
       ("eval.assembly_ms", "ms/op"),
       ("serve.admit_ms", "ms"), ("serve.queue_wait_ms", "ms"),
       ("serve.batch_assembly_ms", "ms"), ("serve.engine_pass_ms", "ms"),
       ("serve.frames_per_pass", "frames"), ("serve.passes", "count"),
       ("serve.store_short_circuits", "count"),
       ("net.dispatch_ms", "ms"), ("net.worker_execute_ms", "ms"), ("net.wire_ms", "ms"),
       ("net.bytes_per_request", "B/request"), ("net.encode_ms", "ms/request"),
       ("net.decode_ms", "ms/request"), ("net.credit_stalls", "count"),
       ("net.short_circuits", "count"),
       ("proc.cpu_ms_per_op", "ms/op"), ("proc.teardown_s", "s"),
       ("obs.trace_overhead_pct", "%"), ("obs.uncovered_pct", "%")]
)

#: Frame kinds that carry requests and results (heartbeats, replication and
#: blob traffic are not per-request work).
REQUEST_FRAMES = ("batch", "results")


class Probe:
    """Wrapper spans around functions, kept in memory: ``(name, start, end,
    thread, count)`` where ``count`` is frames, rows or hits as noted."""

    def __init__(self):
        self.records: List[Tuple[str, float, float, int, float]] = []
        self._restore: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, count=None, keep=None) -> None:
        original = getattr(owner, attr)
        records = self.records

        def wrapper(*args, **kwargs):
            if keep is not None and not keep(args):
                return original(*args, **kwargs)
            start = time.monotonic()
            result = original(*args, **kwargs)
            end = time.monotonic()
            records.append((name, start, end, threading.get_ident(),
                            count(args, result) if count else 0))
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def hook(self, layer: str, start: float, end: float) -> None:
        """The ``layer_profiler`` callback: one span per costed layer."""
        self.records.append((f"layer:{layer}", start, end, threading.get_ident(), 0))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


@contextmanager
def instrumented(stack):
    """Install the wrappers, the layer hook and the server's tracer."""
    probe = Probe()
    frames = lambda args, result: len(args[1])  # noqa: E731
    rows = lambda args, result: result.layers[0].batch_size  # noqa: E731
    probe.wrap(SpikingNetwork, "forward_batch", "snn.forward", count=frames)
    for attr in ("conv2d_hwc_batch", "conv2d_hwc_batch_sparse"):
        probe.wrap(snn_network, attr, "snn.conv2d")
    probe.wrap(snn_reference, "im2row_batch", "snn.im2row")
    probe.wrap(snn_network, "lif_step_batch", "snn.lif")
    for attr in ("linear_batch", "linear_batch_sparse"):
        probe.wrap(snn_network, attr, "snn.linear")
    for attr in ("run_statistical", "run_functional", "run_workloads"):
        probe.wrap(SpikeStreamInference, attr, "core.engine_pass", count=rows)
    for attr in ("fingerprint", "functional_fingerprint"):
        probe.wrap(Session, attr, "session.fingerprint")
    probe.wrap(ResultStore, "get", "session.store_get",
               count=lambda args, result: int(result is not None))
    probe.wrap(ResultStore, "put", "session.store_put")
    probe.wrap(framing, "encode_frame_segments", "net.encode",
               keep=lambda args: args[0].kind in REQUEST_FRAMES)
    probe.wrap(framing._InboundFrame, "finish", "net.decode",
               keep=lambda args: args[0].kind in REQUEST_FRAMES)
    tracer = getattr(stack.server, "tracer", None)
    if tracer is not None:
        tracer.enabled = True
    try:
        with layer_profiler(probe.hook):
            yield probe
    finally:
        if tracer is not None:
            tracer.enabled = False
        probe.restore()


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #
def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by a set of intervals (overlaps counted once)."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _ms(total_s: float, count: float) -> float:
    return 1e3 * total_s / count if count else 0.0


def _unique_mean_ms(records: List[dict], name: str) -> float:
    spans = {r["span_id"]: r["end"] - r["start"] for r in records if r["name"] == name}
    return _ms(sum(spans.values()), len(spans))


def _delta(before: dict, after: dict, *path) -> float:
    def get(snapshot):
        value = snapshot
        for key in path:
            value = value.get(key, 0.0) if isinstance(value, dict) else 0.0
        return float(value or 0.0)

    return get(after) - get(before)


def per_layer(plain, traced, probe: Probe, traces: List[dict],
              before: dict, after: dict, teardown_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run (0 where a layer is not on
    this workload's path)."""
    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    by_name: Dict[str, list] = defaultdict(list)
    for record in probe.records:
        by_name[record[0]].append(record)
    span_records = [span for trace in traces for span in trace["spans"]]
    # A span over a coalesced batch is filed once per request it served.
    layer_spans = {s["span_id"]: s for s in span_records if s["name"].startswith("layer:")}
    for span in layer_spans.values():
        by_name[span["name"]].append((span["name"], span["start"], span["end"], 0, 0))

    def busy(name: str) -> float:
        return sum(end - start for _n, start, end, _t, _c in by_name[name])

    def counted(name: str) -> float:
        return sum(record[4] for record in by_name[name])

    forwarded = counted("snn.forward")
    for layer in ("forward", "conv2d", "im2row", "lif", "linear"):
        metrics[f"snn.{layer}_ms_per_frame"] = _ms(busy(f"snn.{layer}"), forwarded)
    costed = counted("core.engine_pass")
    metrics["core.frames_costed"] = costed
    metrics["core.cost_ms_per_frame"] = _ms(busy("core.engine_pass") - busy("snn.forward"),
                                           costed)
    for layer in LAYERS:
        metrics[f"core.cost_ms.{layer}"] = _ms(busy(f"layer:{layer}"), costed)

    metrics["session.fingerprint_ms"] = _ms(busy("session.fingerprint"),
                                            len(by_name["session.fingerprint"]))
    store_calls = by_name["session.store_get"] + by_name["session.store_put"]
    metrics["session.store_ms"] = _ms(sum(e - s for _n, s, e, _t, _c in store_calls),
                                      len(store_calls))
    hits = counted("session.store_get")
    misses = len(by_name["session.store_get"]) - hits
    metrics["session.store_hits"] = hits
    metrics["session.store_misses"] = misses
    metrics["session.store_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    ops = traced.ops
    latency = sum(op.latency_s for op in ops)
    if not before:  # a single caller: the operations are regenerations
        engine = [(s, e) for _n, s, e, _t, _c in by_name["core.engine_pass"]]
        metrics["eval.assembly_ms"] = _ms(latency - union_length(engine), len(ops))

    if before:  # a server or coordinator ran the requests
        metrics["serve.admit_ms"] = _ms(sum(op.admit_s for op in ops), len(ops))
        for stage in ("queue_wait", "batch_assembly"):
            stage_spans = [s["end"] - s["start"] for s in span_records if s["name"] == stage]
            metrics[f"serve.{stage}_ms"] = _ms(sum(stage_spans), len(stage_spans))
        metrics["serve.engine_pass_ms"] = _unique_mean_ms(span_records, "engine_pass")
        frames = _delta(before, after, "serve.batch_frames", "sum")
        passes = _delta(before, after, "serve.batch_frames", "count")
        metrics["serve.frames_per_pass"] = frames / passes if passes else 0.0
        metrics["serve.passes"] = _delta(before, after, "serve.batches")
        metrics["serve.store_short_circuits"] = _delta(before, after,
                                                       "serve.store_short_circuits")
    if "net.bytes" in before:
        dispatch = _unique_mean_ms(span_records, "dispatch")
        execute = _unique_mean_ms(span_records, "worker_execute")
        metrics["net.dispatch_ms"] = dispatch
        metrics["net.worker_execute_ms"] = execute
        metrics["net.wire_ms"] = dispatch - execute
        wire = (_delta(before, after, "net.bytes", "sent_by_kind", "batch")
                + _delta(before, after, "net.bytes", "received_by_kind", "results"))
        metrics["net.bytes_per_request"] = wire / len(ops)
        metrics["net.encode_ms"] = _ms(busy("net.encode"), len(ops))
        metrics["net.decode_ms"] = _ms(busy("net.decode"), len(ops))
        metrics["net.credit_stalls"] = _delta(before, after, "net.credit_stalls")
        metrics["net.short_circuits"] = _delta(before, after, "net.dispatch_short_circuits")

    metrics["proc.cpu_ms_per_op"] = _ms(plain.cpu_s, len(plain.ops))
    metrics["proc.teardown_s"] = teardown_s
    metrics["obs.trace_overhead_pct"] = 100.0 * (plain.rate() / traced.rate() - 1.0)
    metrics["obs.uncovered_pct"] = 100.0 * uncovered(ops, probe, traces if before else None,
                                                     latency) / latency
    return metrics


def uncovered(ops, probe: Probe, traces, latency: float) -> float:
    """Seconds of the operations' latency that no per-layer timing covers.

    Synchronous workloads (``traces`` is None): the operations run on this
    thread, so covered time is the union of its spans.  Served workloads:
    each request is covered by its ``submit_*`` call plus the union of its
    trace's stage spans inside its root span.
    """
    if traces is None:
        me = threading.get_ident()
        mine = [(start, end) for _n, start, end, thread, _c in probe.records if thread == me]
        return latency - union_length(mine)
    covered = sum(op.admit_s for op in ops)
    for trace in traces:
        root = next(s for s in trace["spans"] if s["name"] == "request")
        children = [(max(s["start"], root["start"]), min(s["end"], root["end"]))
                    for s in trace["spans"] if s is not root]
        covered += union_length([c for c in children if c[1] > c[0]])
    return latency - covered


def write_spans(path: Path, probe: Probe, traces: List[dict]) -> None:
    """Write every kept span as JSON lines: wrapper spans, then request traces."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for name, start, end, thread, count in probe.records:
            out.write(json.dumps({"name": name, "start": start, "end": end,
                                  "thread": thread, "count": count}) + "\n")
        for trace in traces:
            out.write(json.dumps(trace, default=str) + "\n")
