"""The benchmark's three workloads: inputs, passes, traced passes, checks.

Every workload is a class with the same five methods, which ``run.py``
drives:

``generate(seed)``
    Build the inputs from the seed alone (the program sees only these).
``ops(inputs)``
    The operations one pass attempts.
``run(inputs, workdir, phase)``
    One timed *cold pass* through the public entry points
    (``run_campaign``, ``campaign_report``, ``predict_one``), starting from
    cold memos and an empty store, followed by the *re-run* of the same work
    against the full store or warm memo.  Returns a :class:`PassResult`.
    Each timed region runs inside ``phase("pass")`` or ``phase("rerun")``,
    which a traced pass uses to split its spans (see ``layers.py``).
``check(inputs, output, rng)``
    Verify a pass's output; returns one message per failed operation.  It
    runs after every pass, so the re-pricing samples are small and the
    seeded ``rng`` moves them on from pass to pass.
``named(passes)``
    The workload's own end-to-end figures under the names used in
    ``perfbench/NOTES.md``.

Why each workload exists, and which end-to-end figure each layer moves on
it, is written down in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

import repro.campaigns as campaigns
from repro.apps.workloads import standard_workloads
from repro.backends.service import predict_one
from repro.campaigns import (
    CampaignPoint,
    CampaignSpec,
    ResultStore,
    apply_htile,
    run_campaign,
)
from repro.core.predictor import clear_prediction_cache
from repro.platforms import get_platform

__all__ = ["PassResult", "WORKLOADS", "median_rate", "relative_difference", "untimed"]

#: Re-pricing must agree with the stored or served value to this relative
#: tolerance (the repo's exact == fast contract).
AGREEMENT = 1e-9
#: The paper's validation bar: model within 10% of measurement.
MAX_MODEL_ERROR_PCT = 10.0
#: Recorded sha256 of the validation report per matrix (see ``_matrix_key``).
REFERENCE_FILE = Path(__file__).with_name("reference.json")

#: ``phase(name)`` gives the context manager a timed region runs in.
Phase = Callable[[str], Any]


def untimed(name: str) -> nullcontext:
    """The ``phase`` of an untraced pass: marks nothing."""
    return nullcontext()


@dataclass
class PassResult:
    """What one cold pass (plus its re-run) did and how long it took."""

    ops: int
    pass_s: float
    rerun_s: float
    output: dict[str, Any]
    latencies: list[float] = field(default_factory=list)
    #: Figures of the pass's output kept after the output is dropped.
    figures: dict[str, float] = field(default_factory=dict)
    #: Machine-speed probe taken just before the pass (set by ``run.py``).
    probe_s: float = 0.0


def relative_difference(a: float, b: float) -> float:
    """``|a - b| / max(|a|, |b|)``, 0 when both are 0.

    >>> relative_difference(2.0, 2.0)
    0.0
    >>> relative_difference(1.0, 2.0)
    0.5
    """
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def median_rate(passes: list[PassResult]) -> float:
    """Median operations per wall-clock second of the cold passes."""
    return statistics.median(p.ops / p.pass_s for p in passes)


def _check_store(store: ResultStore, keys: list[str], rng: random.Random, sample: int):
    """Re-price a seeded sample of stored records with ``analytic-fast``."""
    failures = []
    for key in rng.sample(keys, min(sample, len(keys))):
        record = store.get(key)
        point = CampaignPoint.from_dict(record["point"])
        if point.key() != key:
            failures.append(f"record {key} holds the point of key {point.key()}")
            continue
        fresh = predict_one(
            point.build_spec(), point.build_platform(),
            total_cores=point.total_cores, backend="analytic-fast",
        ).time_per_iteration_us
        stored = record["result"]["time_per_iteration_us"]
        if relative_difference(fresh, stored) > AGREEMENT:
            failures.append(f"record {key}: stored {stored!r} us, analytic-fast {fresh!r} us")
    return failures


class DesignSweep:
    """The paper's design-space study (Figures 5-10): a fresh
    ``analytic-vec`` campaign over a seeded Htile grid, then the same spec
    re-run against the full store."""

    name = "design_sweep"
    apps = ("chimaera-240", "chimaera-240x240x960", "lu-classC")
    platforms = ("cray-xt4", "cray-xt4-quad-chip")
    #: Stored records re-priced per pass.
    sample = 16

    def generate(self, seed: int, htiles: int = 32, max_cores: int = 65536) -> CampaignSpec:
        rng = random.Random(seed)
        candidates = [0.25 * step for step in range(1, 257)]
        cores = tuple(2**k for k in range(6, 17) if 2**k <= max_cores)
        return CampaignSpec(
            name=f"design-sweep-{seed}",
            apps=self.apps,
            platforms=self.platforms,
            total_cores=cores,
            htiles=tuple(rng.sample(candidates, htiles)),
            backends=("analytic-vec",),
        )

    def ops(self, spec: CampaignSpec) -> int:
        return len(spec.apps) * len(spec.platforms) * len(spec.total_cores) * len(spec.htiles)

    def run(self, spec: CampaignSpec, workdir: Path, phase: Phase = untimed) -> PassResult:
        path = workdir / "sweep.store"
        clear_prediction_cache()
        start = perf_counter()
        with phase("pass"):
            first = run_campaign(spec, store=path)
        middle = perf_counter()
        clear_prediction_cache()
        rerun_start = perf_counter()
        with phase("rerun"):
            second = run_campaign(spec, store=path)
        end = perf_counter()
        return PassResult(
            ops=first.computed,
            pass_s=middle - start,
            rerun_s=end - rerun_start,
            output={"store": path, "points": first.total_points,
                    "computed": first.computed, "recomputed": second.computed},
        )

    def check(self, spec: CampaignSpec, output: dict, rng: random.Random):
        failures = []
        expected = self.ops(spec)
        store = ResultStore(output["store"])
        for label, value in (("points", output["points"]), ("computed", output["computed"]),
                             ("stored", len(store))):
            if value != expected:
                failures.append(f"{label}: {value} != {expected} sweep points")
        if store.quarantined:
            failures.append(f"{store.quarantined} quarantined store line(s)")
        if output["recomputed"]:
            failures.append(f"re-run computed {output['recomputed']} point(s), expected 0")
        failures += _check_store(store, store.keys(), rng, self.sample)
        store.close()
        return failures

    def named(self, passes: list[PassResult]) -> dict[str, tuple[float, str]]:
        return {"sweep_points_per_s": (median_rate(passes), "1/s")}


def _matrix_key(spec: CampaignSpec) -> str:
    """The validation matrix independent of axis order (the report is too)."""
    return "|".join(
        ",".join(sorted(str(v) for v in axis))
        for axis in (spec.apps, spec.platforms, spec.total_cores, spec.backends)
    )


def model_errors(store: ResultStore) -> dict[tuple, float]:
    """Signed model-vs-simulator error (%) per configuration in a store."""
    by_config: dict[tuple, dict[str, float]] = {}
    for record in store.records():
        point = record["point"]
        config = (point["app"], point["platform"], point["total_cores"], point["htile"])
        by_config.setdefault(config, {})[point["backend"]] = (
            record["result"]["time_per_iteration_us"]
        )
    return {
        config: 100.0 * (times["analytic-fast"] - times["simulator"]) / times["simulator"]
        for config, times in by_config.items()
        if "analytic-fast" in times and "simulator" in times
    }


class ValidationSim:
    """The paper-validation matrix (Tables 4-7): ``analytic-fast`` against
    the simulator as measurement, on a 2-core/node platform (per-rank event
    engine) and a 1-core/node one (aggregated engine), then the report."""

    name = "validation_sim"
    apps = ("lu-classA", "sweep3d-20m", "chimaera-240")
    platforms = ("cray-xt4", "cray-xt4-1core")
    cores = (4,)
    reruns = 20

    def generate(self, seed: int, apps=apps) -> CampaignSpec:
        rng = random.Random(seed)
        axes = [list(apps), list(self.platforms), list(self.cores)]
        for axis in axes:
            rng.shuffle(axis)
        return CampaignSpec(
            name="paper-validation-bench",
            apps=axes[0],
            platforms=axes[1],
            total_cores=axes[2],
            backends=("analytic-fast", "simulator"),
            baseline="simulator",
        )

    def ops(self, spec: CampaignSpec) -> int:
        return len(spec.apps) * len(spec.platforms) * len(spec.total_cores) * 2 + 1

    def run(self, spec: CampaignSpec, workdir: Path, phase: Phase = untimed) -> PassResult:
        path = workdir / "validation.store"
        clear_prediction_cache()
        start = perf_counter()
        with phase("pass"):
            first = run_campaign(spec, store=path)
            report = campaigns.campaign_report(path)
        end = perf_counter()
        reruns, recomputed, rerun_reports = [], 0, []
        for _ in range(self.reruns):
            clear_prediction_cache()
            rerun_start = perf_counter()
            with phase("rerun"):
                second = run_campaign(spec, store=path)
                rerun_reports.append(campaigns.campaign_report(path))
            reruns.append(perf_counter() - rerun_start)
            recomputed += second.computed
        store = ResultStore(path)
        error_max = max((abs(error) for error in model_errors(store).values()), default=0.0)
        store.close()
        return PassResult(
            ops=first.computed + 1,
            pass_s=end - start,
            rerun_s=statistics.median(reruns),
            output={"store": path, "points": first.total_points, "computed": first.computed,
                    "recomputed": recomputed, "report": report,
                    "rerun_reports": rerun_reports},
            figures={"model_error_max_pct": error_max},
        )

    def check(self, spec: CampaignSpec, output: dict, rng: random.Random):
        failures = []
        store = ResultStore(output["store"])
        errors = model_errors(store)
        expected_pairs = len(spec.apps) * len(spec.platforms) * len(spec.total_cores)
        if len(errors) != expected_pairs:
            failures.append(f"{len(errors)} model/simulator pairs, expected {expected_pairs}")
        for config, error in errors.items():
            if not abs(error) < MAX_MODEL_ERROR_PCT:
                failures.append(f"{config}: model error {error:+.2f}% is not below 10%")
        expected = 2 * expected_pairs
        for label, value in (("points", output["points"]), ("computed", output["computed"]),
                             ("stored", len(store))):
            if value != expected:
                failures.append(f"{label}: {value} != {expected} matrix points")
        if output["recomputed"]:
            failures.append(f"re-run computed {output['recomputed']} point(s), expected 0")
        store.close()
        references = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
        reference = references.get(_matrix_key(spec))
        reports = [("report", output["report"])]
        reports += [(f"re-run {i} report", text) for i, text in enumerate(output["rerun_reports"])]
        for label, text in reports:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if digest != reference:
                failures.append(f"{label} sha256 {digest} != recorded {reference}")
        return failures

    def named(self, passes: list[PassResult]) -> dict[str, tuple[float, str]]:
        return {
            "validation_s": (statistics.median(p.pass_s for p in passes), "s"),
            "model_error_max_pct": (passes[-1].figures["model_error_max_pct"], "%"),
        }


@dataclass(frozen=True)
class Query:
    spec: Any
    platform: Any
    total_cores: int


class PointQueries:
    """One caller in a closed loop issuing ``predict_one`` queries on
    ``analytic-fast``; half of the stream repeats an earlier query."""

    name = "point_queries"
    apps = ("chimaera-240", "chimaera-240x240x960", "lu-classA", "lu-classC", "sweep3d-20m")
    platforms = ("cray-xt4", "cray-xt4-1core", "cray-xt4-quad-chip")
    #: Chance, before each new query, of first re-asking an earlier one.
    repeat_share = 0.5
    #: Queries re-priced with ``analytic-exact`` per pass.
    sample = 8

    def generate(self, seed: int, per_cell: int = 3) -> list[Query]:
        """``per_cell`` distinct queries (seeded Htile values) for every
        app x platform x P cell, each asked twice, in a seeded order where a
        repeat always follows its first asking.  The mix of cheap and costly
        queries is then the same for every seed."""
        rng = random.Random(seed)
        registry = standard_workloads()
        htiles = [0.5 * step for step in range(1, 33)]
        cores = [2**k for k in range(4, 21)]
        distinct = []
        for app in self.apps:
            for name in self.platforms:
                platform = get_platform(name)
                for total_cores in cores:
                    for htile in rng.sample(htiles, per_cell):
                        spec = apply_htile(registry[app](), htile)
                        distinct.append(Query(spec, platform, total_cores))
        rng.shuffle(distinct)
        stream: list[Query] = []
        asked: list[Query] = []
        for query in distinct:
            while asked and rng.random() < self.repeat_share:
                stream.append(asked.pop(rng.randrange(len(asked))))
            stream.append(query)
            asked.append(query)
        rng.shuffle(asked)
        return stream + asked

    def ops(self, stream: list[Query]) -> int:
        return len(stream)

    @staticmethod
    def _serve(stream: list[Query], latencies: Optional[list]) -> list:
        """Answer every query; a query that raises leaves its message in
        place of the value, for :meth:`check` to count as failed."""
        values: list = []
        for query in stream:
            start = perf_counter()
            try:
                result = predict_one(query.spec, query.platform,
                                     total_cores=query.total_cores, backend="analytic-fast")
            except Exception as exc:  # one failed query must not end the run
                values.append(f"{type(exc).__name__}: {exc}")
                continue
            if latencies is not None:
                latencies.append(perf_counter() - start)
            values.append(result.time_per_iteration_us)
        return values

    def run(self, stream: list[Query], workdir: Path, phase: Phase = untimed) -> PassResult:
        clear_prediction_cache()
        latencies: list[float] = []
        start = perf_counter()
        with phase("pass"):
            values = self._serve(stream, latencies)
        middle = perf_counter()
        with phase("rerun"):
            warm = self._serve(stream, None)
        end = perf_counter()
        return PassResult(
            ops=len(stream), pass_s=middle - start, rerun_s=end - middle,
            output={"values": values, "warm": warm}, latencies=latencies,
        )

    def check(self, stream: list[Query], output: dict, rng: random.Random):
        values, warm = output["values"], output["warm"]
        failures = [f"query {i} raised {v}" for i, v in enumerate(values) if isinstance(v, str)]
        failures += [
            f"query {i}: warm re-run served {w!r}, cold pass {v!r}"
            for i, (v, w) in enumerate(zip(values, warm))
            if not isinstance(v, str) and w != v
        ]
        for index in rng.sample(range(len(stream)), min(self.sample, len(stream))):
            query, value = stream[index], values[index]
            if isinstance(value, str):
                continue
            exact = predict_one(query.spec, query.platform, total_cores=query.total_cores,
                                backend="analytic-exact").time_per_iteration_us
            if relative_difference(exact, value) > AGREEMENT:
                failures.append(f"query {index}: served {value!r} us, analytic-exact {exact!r} us")
        return failures

    def named(self, passes: list[PassResult]) -> dict[str, tuple[float, str]]:
        latencies = [latency for p in passes for latency in p.latencies]
        percentiles = statistics.quantiles(latencies, n=100) if len(latencies) > 1 else [0.0] * 99
        return {
            "queries_per_s": (median_rate(passes), "1/s"),
            "query_p50_us": (percentiles[49] * 1e6, "us"),
            "query_p99_us": (percentiles[98] * 1e6, "us"),
            "query_latency_samples": (len(latencies), "count"),
        }


WORKLOADS = {cls.name: cls for cls in (DesignSweep, ValidationSim, PointQueries)}
