"""Per-layer measurement of a traced pass, from outside the program.

For the length of a traced pass, :func:`instrument` replaces the public
functions each layer exposes with wrappers that record a span around every
call, then puts the originals back.  The pass itself is the same call into
``run_campaign`` / ``campaign_report`` / ``predict_one`` as an untraced pass,
so the spans time the real flow, and the traced pass's extra wall time is the
cost of tracing.  Functions another module imported by name are wrapped where
that module looks them up (``batch_point_values`` in
``repro.backends.vectorized``, ``predict`` in ``repro.backends.analytic``,
``result_record`` in ``repro.campaigns.runner``).

A workload marks its timed regions with ``phase("pass")`` (the cold pass)
and ``phase("rerun")`` (its repeat against the full store or warm memo); the
phases are the root spans, and each phase keeps its own exact counts.
"""

from __future__ import annotations

import statistics
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Optional

import repro.backends.analytic as analytic
import repro.backends.vectorized as vectorized
import repro.campaigns as campaigns
import repro.campaigns.runner as runner
from repro.backends.analytic import AnalyticBackend
from repro.backends.base import PredictionRequest
from repro.backends.simulator import SimulatorBackend, simulation_cache_info
from repro.backends.vectorized import VectorizedAnalyticBackend
from repro.campaigns import CampaignPoint, CampaignSpec, ResultStore
from repro.core.predictor import prediction_cache_info
from repro.simulator.wavefront import WavefrontSimulator

from tracing import Tracer

__all__ = ["Recorder", "instrument", "layer_metrics", "pass_layers"]


def _cache_state() -> Counter:
    predictions = prediction_cache_info()
    return Counter(
        predict_hits=predictions.hits,
        predict_misses=predictions.misses,
        sim_cache_misses=simulation_cache_info().misses,
    )


class Recorder:
    """The spans and exact counts of one traced pass, split by phase.

    Memo hits and misses are counted as the change of the memo statistics
    over each phase; the workloads clear the memos only outside a phase.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counts: dict[str, Counter] = {}
        self._bucket = Counter()

    @contextmanager
    def phase(self, name: str):
        outer, self._bucket = self._bucket, self.counts.setdefault(name, Counter())
        before = _cache_state()
        try:
            with self.tracer.span(name):
                yield
        finally:
            self._bucket.update(_cache_state() - before)
            self._bucket = outer

    def count(self, key: str, amount: int = 1) -> None:
        self._bucket[key] += amount

    def sized(self, name: str, function: Callable, size: Callable) -> Callable:
        """Like :meth:`Tracer.wrap`, also counting ``size(*args)`` under
        ``name`` (the configurations a batch call received)."""
        traced = self.tracer.wrap(name, function)

        def counted(*args, **kwargs):
            self.count(name, size(*args))
            return traced(*args, **kwargs)

        return counted

    def simulation(self, run: Callable) -> Callable:
        """``WavefrontSimulator.run`` with a span named after the engine the
        simulator will take, and its machine counts."""
        span = self.tracer.span

        def traced_run(simulator, **kwargs):
            engine = simulator.engine
            if engine == "auto":
                reason = simulator.aggregation_unsupported_reason()
                engine = "aggregated" if reason is None else "event"
            with span(f"simulator.wavefront.{engine}"):
                result = run(simulator, **kwargs)
            stats = result.stats
            self.count(f"sim_{engine}")
            self.count("events", stats.events)
            self.count("messages", stats.total_messages)
            self.count("bus_transfers", stats.bus_transfers)
            return result

        return traced_run


@contextmanager
def instrument(recorder: Recorder):
    """Wrap every measured public function for the ``with`` block."""
    wrap = recorder.tracer.wrap
    targets: list[tuple[Any, str, Callable[[Callable], Callable]]] = [
        (CampaignSpec, "points", lambda f: wrap("campaigns.spec.points", f)),
        (CampaignPoint, "key", lambda f: wrap("campaigns.spec.key", f)),
        (CampaignPoint, "request", lambda f: wrap("campaigns.spec.request", f)),
        (PredictionRequest, "resolve", lambda f: wrap("backends.service.resolve", f)),
        (AnalyticBackend, "evaluate", lambda f: wrap("backends.analytic.evaluate", f)),
        (analytic, "predict", lambda f: wrap("core.predictor.predict", f)),
        (VectorizedAnalyticBackend, "evaluate_batch",
         lambda f: recorder.sized("backends.vectorized.evaluate_batch", f,
                                  lambda _backend, configs: len(configs))),
        (vectorized, "batch_point_values",
         lambda f: recorder.sized("core.model_vec.kernel", f, len)),
        (SimulatorBackend, "evaluate", lambda f: wrap("backends.simulator.evaluate", f)),
        (WavefrontSimulator, "run", recorder.simulation),
        (runner, "result_record", lambda f: wrap("campaigns.runner.record", f)),
        (ResultStore, "__init__", lambda f: wrap("campaigns.store.open", f)),
        (ResultStore, "__contains__", lambda f: wrap("campaigns.store.contains", f)),
        (ResultStore, "put_many", lambda f: wrap("campaigns.store.put_many", f)),
        (campaigns, "campaign_report", lambda f: wrap("campaigns.report.render", f)),
    ]
    saved = []
    try:
        for owner, attribute, wrapper in targets:
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, wrapper(original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def pass_layers(recorder: Recorder, store: Optional[Path]) -> dict[str, Any]:
    """Summarise one traced pass: each span name's own time and call count
    in the cold pass and in its re-runs, the predictor call durations of the
    cold pass, the cold pass's counts and the store it left."""
    tracer = recorder.tracer
    times = {"pass": Counter(), "rerun": Counter()}
    calls: Counter = Counter()
    predict_durations: list[float] = []
    for phase, first, end in tracer.roots():
        if phase not in times:  # a call the workload makes outside its timed regions
            continue
        times[phase].update(tracer.totals(first, end))
        if phase == "pass":
            calls.update(span[1] for span in tracer.spans[first:end])
            predict_durations += tracer.durations("core.predictor.predict", first, end)
    counts = Counter(recorder.counts.get("pass", {}))
    if store is not None:
        counts["bytes_on_disk"] = sum(f.stat().st_size for f in store.rglob("*") if f.is_file())
        reopened = ResultStore(store)
        counts["quarantined"] = reopened.quarantined
        reopened.close()
    return {"times": times, "calls": calls, "predict_durations": predict_durations,
            "counts": counts, "spans": len(tracer.spans)}


def _percentiles_us(durations: list[float]) -> tuple[float, float]:
    if len(durations) < 2:
        return (durations[0] * 1e6, durations[0] * 1e6) if durations else (0.0, 0.0)
    cuts = statistics.quantiles(durations, n=100)
    return cuts[49] * 1e6, cuts[98] * 1e6


def layer_metrics(summaries: list[dict], traced_pass_s: float,
                  untraced_pass_s: float) -> dict[str, float]:
    """Per-layer figures over the traced passes.

    A layer time is the median over passes of the own time of its spans in
    the cold pass (``open_s`` and ``contains_s``: in the re-run).  Counts
    come from the last pass; they repeat exactly.  ``trace.overhead_pct``
    compares the median traced cold pass with the median untraced one.
    """
    last = summaries[-1]
    counts, calls = last["counts"], last["calls"]

    def time(name: str, phase: str = "pass") -> float:
        return statistics.median(s["times"][phase].get(name, 0.0) for s in summaries)

    def per_second(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    kernel_s = time("core.model_vec.kernel")
    put_many_s = time("campaigns.store.put_many")
    event_s = time("simulator.wavefront.event")
    aggregated_s = time("simulator.wavefront.aggregated")
    simulated = counts["sim_event"] + counts["sim_aggregated"]
    resolved = calls["backends.service.resolve"]
    distinct = (calls["backends.analytic.evaluate"] + calls["backends.simulator.evaluate"]
                + counts["backends.vectorized.evaluate_batch"])
    lookups = counts["predict_hits"] + counts["predict_misses"]
    call_p50, call_p99 = _percentiles_us([d for s in summaries for d in s["predict_durations"]])
    return {
        "campaigns.spec.points_s": time("campaigns.spec.points"),
        "campaigns.spec.key_s": time("campaigns.spec.key"),
        "campaigns.spec.request_s": time("campaigns.spec.request"),
        "backends.service.resolve_s": time("backends.service.resolve"),
        "backends.service.distinct_ratio": distinct / resolved if resolved else 0.0,
        "core.model_vec.kernel_s": kernel_s,
        "core.model_vec.points_per_s": per_second(counts["core.model_vec.kernel"], kernel_s),
        "backends.vectorized.wrap_s": time("backends.vectorized.evaluate_batch"),
        "campaigns.runner.record_s": time("campaigns.runner.record"),
        "campaigns.store.put_many_s": put_many_s,
        "campaigns.store.records_per_s": per_second(calls["campaigns.runner.record"], put_many_s),
        "campaigns.store.bytes_on_disk": counts["bytes_on_disk"],
        "campaigns.store.quarantined": counts["quarantined"],
        "campaigns.store.open_s": time("campaigns.store.open", "rerun"),
        "campaigns.store.contains_s": time("campaigns.store.contains", "rerun"),
        "core.predictor.call_us_p50": call_p50,
        "core.predictor.call_us_p99": call_p99,
        "core.predictor.hit_ratio": counts["predict_hits"] / lookups if lookups else 0.0,
        "simulator.wavefront.event_run_s": event_s,
        "simulator.wavefront.aggregated_run_s": aggregated_s,
        "simulator.wavefront.event_path_share": (
            counts["sim_event"] / simulated if simulated else 0.0
        ),
        "simulator.machine.events": counts["events"],
        "simulator.machine.messages": counts["messages"],
        "simulator.machine.bus_transfers": counts["bus_transfers"],
        "simulator.machine.events_per_host_s": per_second(counts["events"], event_s + aggregated_s),
        "simulator.machine.messages_per_host_s": per_second(
            counts["messages"], event_s + aggregated_s
        ),
        "backends.simulator.cache_misses": counts["sim_cache_misses"],
        "campaigns.report.render_s": time("campaigns.report.render"),
        "trace.overhead_pct": (
            100.0 * (traced_pass_s / untraced_pass_s - 1.0) if untraced_pass_s > 0 else 0.0
        ),
        "trace.spans": last["spans"],
    }
