"""Per-layer tracing for one simulation, installed from outside the package.

``instrument`` replaces the public entry points of each layer on the
objects of one run (and ``horizontal_distance_m`` in the gateway module)
with wrappers that record spans and counts. Nothing in ``arsusim`` is
edited. The wrappers draw no random numbers and change no arguments or
results, so a traced run produces the same ``report.json`` as an
untraced one; the benchmark checks that on every traced run.

Spans (name, start, end, parent) are kept in flat arrays while the run
executes and written to ``spans.npz`` at the end. A span's self time is
its duration minus the durations of its direct children; calls nest
strictly, so children never overlap.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

#: Per-layer metric -> the end-to-end metric it should move, and where.
MOVES = {
    **dict.fromkeys(
        ["sim.events", "sim.deliveries", "sim.events_per_delivery",
         "sim.self_s", "sim.record_delivery.s", "sim.deliveries_held",
         "sim.trace_rows", "sim.coverage.calls", "sim.coverage.s",
         "sim.coverage_mean"],
        "wall_s_per_sim_s and peak_rss_mb on radio-dense"),
    **dict.fromkeys(
        ["latency.half_delay.calls", "latency.half_delay.s",
         "latency.calls_per_delivery"],
        "wall_s_per_sim_s on radio-dense"),
    **dict.fromkeys(
        ["broker.publish.calls", "broker.publish.s", "broker.deliveries",
         "broker.fanout", "broker.drops", "broker.drop_ratio",
         "broker.log_held"],
        "wall_s_per_sim_s and peak_rss_mb on cell-fanout"),
    **dict.fromkeys(
        ["gateway.on_rx.calls", "gateway.on_rx.s", "gateway.relayed",
         "gateway.suppressed", "gateway.on_detection.calls",
         "gateway.on_detection.s", "gateway.on_detection.p99_us",
         "gateway.filter.connected", "gateway.filter.pending",
         "gateway.filter.non_connected", "gateway.on_grace_deadline.calls",
         "gateway.confirmed", "gateway.ghosts", "gateway.history_max",
         "gateway.tracks_held", "gateway.decisions_held",
         "geo.distance.calls", "geo.distance_per_detection"],
        "wall_s_per_sim_s (peak_rss_mb through tracks_held) on "
        "camera-crowd"),
    **dict.fromkeys(
        ["report.build_s", "report.write_s", "report.trace_bytes"],
        "wall_s_per_sim_s on cell-fanout"),
    **dict.fromkeys(
        ["import_s", "config.load_s", "sim.init_s"],
        "setup_s on all three workloads"),
    "trace.overhead": "nothing: traced over untraced wall time, minus one",
}


class Tracer:
    """Flat in-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as a span; ``after(result)`` runs outside it."""
        nid = self._id(name)
        name_id, parent, start, end = (
            self.name_id, self.parent, self.start, self.end
        )
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parents >= 0
        child = np.bincount(
            parents[nested], weights=dur[nested], minlength=len(ids)
        )
        self_s = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = ids == nid
            out[name] = (
                int(mask.sum()), float(dur[mask].sum()),
                float(self_s[mask].sum()),
            )
        return out

    def durations(self, name: str) -> np.ndarray:
        mask = np.frombuffer(self.name_id, dtype=np.int32) == self._ids[name]
        return (np.frombuffer(self.end) - np.frombuffer(self.start))[mask]

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_s=np.frombuffer(self.start),
            end_s=np.frombuffer(self.end),
        )


class Counts:
    """Outcome counters filled by the wrappers' ``after`` hooks."""

    def __init__(self):
        self.distance_calls = 0
        self.broker_deliveries = 0
        self.relayed = 0
        self.suppressed = 0
        self.filter = {"Connected": 0, "Pending": 0, "NonConnected": 0}
        self.history_max = 0


def instrument(simulation, gateway_module, tracer: Tracer) -> Counts:
    """Wrap each layer's entry points on the objects of ``simulation``."""
    counts = Counts()
    model = simulation.model
    # LatencyModel is a frozen dataclass; shadow the method per instance.
    object.__setattr__(model, "half_delay", tracer.wrap(
        "latency.half_delay", model.half_delay))
    simulation.metrics.record_delivery = tracer.wrap(
        "sim.record_delivery", simulation.metrics.record_delivery)
    simulation._coverage = tracer.wrap("sim.coverage", simulation._coverage)
    simulation.run = tracer.wrap("sim.run", simulation.run)

    def published(deliveries):
        counts.broker_deliveries += len(deliveries)

    broker = simulation.broker
    broker.publish = tracer.wrap("broker.publish", broker.publish, published)

    gateway = simulation.gateway
    if gateway is None:
        return counts

    def received(actions):
        if actions:
            counts.relayed += 1
        else:
            counts.suppressed += 1
        counts.history_max = max(counts.history_max, len(gateway.history))

    def classified(outcome):
        counts.filter[outcome.status.value] += 1
        counts.history_max = max(counts.history_max, len(gateway.history))

    gateway.on_rx = tracer.wrap("gateway.on_rx", gateway.on_rx, received)
    gateway.on_detection = tracer.wrap(
        "gateway.on_detection", gateway.on_detection, classified)
    gateway.on_grace_deadline = tracer.wrap(
        "gateway.on_grace_deadline", gateway.on_grace_deadline)

    distance = gateway_module.horizontal_distance_m

    def counted_distance(a, b):
        counts.distance_calls += 1
        return distance(a, b)

    gateway_module.horizontal_distance_m = counted_distance
    return counts


def layer_metrics(tracer: Tracer, counts: Counts, result,
                  trace_bytes: int) -> tuple[dict, dict]:
    """(deterministic counts, host times) of one traced run."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = result.metrics
    broker = result.broker
    gateway = result.gateway
    deliveries = len(metrics.deliveries)
    detections = calls("gateway.on_detection")
    on_detection = (
        tracer.durations("gateway.on_detection") if detections else None
    )
    layer_counts = {
        "sim.events": metrics.events_executed,
        "sim.deliveries": deliveries,
        "sim.events_per_delivery": ratio(metrics.events_executed, deliveries),
        "sim.deliveries_held": len(metrics.deliveries),
        "sim.trace_rows": len(result.trace_rows),
        "sim.coverage.calls": calls("sim.coverage"),
        "sim.coverage_mean": result.mean_coverage or 0.0,
        "latency.half_delay.calls": calls("latency.half_delay"),
        "latency.calls_per_delivery": ratio(
            calls("latency.half_delay"), deliveries),
        "broker.publish.calls": calls("broker.publish"),
        "broker.deliveries": counts.broker_deliveries,
        "broker.fanout": ratio(
            counts.broker_deliveries, calls("broker.publish")),
        "broker.drops": broker.drop_count,
        "broker.drop_ratio": ratio(
            broker.drop_count, broker.drop_count + counts.broker_deliveries),
        "broker.log_held": len(broker.delivery_log),
        "gateway.on_rx.calls": calls("gateway.on_rx"),
        "gateway.relayed": counts.relayed,
        "gateway.suppressed": counts.suppressed,
        "gateway.on_detection.calls": detections,
        "gateway.filter.connected": counts.filter["Connected"],
        "gateway.filter.pending": counts.filter["Pending"],
        "gateway.filter.non_connected": counts.filter["NonConnected"],
        "gateway.on_grace_deadline.calls": calls("gateway.on_grace_deadline"),
        "gateway.confirmed": gateway.confirmed_tracks if gateway else 0,
        "gateway.ghosts": gateway.ghost_count if gateway else 0,
        "gateway.history_max": counts.history_max,
        "gateway.tracks_held": (
            gateway.confirmed_tracks + gateway.pending_tracks if gateway else 0
        ),
        "gateway.decisions_held": len(gateway.trace) if gateway else 0,
        "geo.distance.calls": counts.distance_calls,
        "geo.distance_per_detection": ratio(counts.distance_calls, detections),
        "report.trace_bytes": trace_bytes,
    }
    layer_times = {
        "sim.self_s": totals["sim.run"][2],
        "sim.record_delivery.s": seconds("sim.record_delivery"),
        "sim.coverage.s": seconds("sim.coverage"),
        "latency.half_delay.s": seconds("latency.half_delay"),
        "broker.publish.s": seconds("broker.publish"),
        "gateway.on_rx.s": seconds("gateway.on_rx"),
        "gateway.on_detection.s": seconds("gateway.on_detection"),
        "gateway.on_detection.p99_us": (
            float(np.percentile(on_detection, 99)) * 1e6
            if detections else 0.0
        ),
        "report.build_s": seconds("report.build"),
        "report.write_s": seconds("report.write"),
    }
    return layer_counts, layer_times
