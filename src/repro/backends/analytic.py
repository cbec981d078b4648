"""Analytic prediction backends: the Table 5 / Table 6 plug-and-play model.

Two registered variants share one implementation:

* ``analytic-fast`` - the closed-form / period-folded ``StartP`` engine
  (``method="fast"``), ~100-1000x faster than the grid walk at scale;
* ``analytic-exact`` - the reference full-grid recurrence
  (``method="exact"``), kept for cross-checking the fast engine.

Both go through :func:`repro.core.predictor.predict`, so they share its
memoisation: re-evaluating a configuration anywhere in the process is free.

Heterogeneous platform descriptions (:mod:`repro.core.hetero`) are handled
inside the model itself: per-node speed profiles enter the ``StartP``
recurrence through the bounded slowest-rank-per-diagonal correction,
hierarchical interconnects through the three-level hop classification of
the communication-cost tables, and noise models through the mean compute
inflation - so every analytic variant prices the same degraded machines the
simulator executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.apps.base import WavefrontSpec
from repro.backends.base import BackendResult
from repro.core.decomposition import CoreMapping, ProcessorGrid
from repro.core.loggp import Platform
from repro.core.model import FILL_METHODS
from repro.core.predictor import Prediction, predict

__all__ = ["AnalyticBackend", "analytic_phases"]


def analytic_phases(
    pipeline_fill: float, stack: float, nonwavefront: float, rework: float
) -> Tuple[Tuple[str, float], ...]:
    """The analytic backends' named phase breakdown of one iteration.

    ``rework`` (the expected-rework correction of fault-model platforms) is
    appended only when nonzero, so fault-free results keep three phases.

    >>> [name for name, _time in analytic_phases(3.0, 2.0, 1.0, 0.0)]
    ['pipeline_fill', 'stack', 'nonwavefront']
    """
    phases = (
        ("pipeline_fill", pipeline_fill),
        ("stack", stack),
        ("nonwavefront", nonwavefront),
    )
    if rework != 0.0:  # repro: noqa[RPR004] fault-free points carry exactly 0.0 and keep the three-phase breakdown
        phases = phases + (("rework", rework),)
    return phases


@dataclass(frozen=True)
class AnalyticBackend:
    """The plug-and-play model as a :class:`PredictionBackend`.

    ``method`` selects the ``StartP`` evaluator (``"auto"``/``"fast"``/
    ``"exact"``, see :func:`repro.core.model.fill_times`).

    >>> AnalyticBackend(method="exact").name
    'analytic-exact'
    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> from repro.core.decomposition import decompose
    >>> result = AnalyticBackend().evaluate(
    ...     lu_class("A"), cray_xt4(), decompose(16))
    >>> [name for name, _time in result.phases]
    ['pipeline_fill', 'stack', 'nonwavefront']
    """

    method: str = "fast"

    def __post_init__(self) -> None:
        if self.method not in FILL_METHODS:
            raise ValueError(f"method must be one of {FILL_METHODS}, got {self.method!r}")

    @property
    def name(self) -> str:
        return f"analytic-{'fast' if self.method == 'auto' else self.method}"

    def evaluate(
        self,
        spec: WavefrontSpec,
        platform: Platform,
        grid: ProcessorGrid,
        core_mapping: Optional[CoreMapping] = None,
    ) -> BackendResult:
        prediction = predict(
            spec, platform, grid=grid, core_mapping=core_mapping, method=self.method
        )
        return self._wrap(prediction)

    def _wrap(self, prediction: Prediction) -> BackendResult:
        iteration = prediction.iteration
        return BackendResult(
            backend=self.name,
            spec=prediction.spec,
            platform=prediction.platform,
            grid=prediction.grid,
            core_mapping=prediction.core_mapping,
            time_per_iteration_us=iteration.time_per_iteration,
            computation_per_iteration_us=iteration.computation_per_iteration,
            pipeline_fill_per_iteration_us=iteration.pipeline_fill_time,
            phases=analytic_phases(
                iteration.pipeline_fill_time,
                iteration.nsweeps * iteration.stack.total,
                iteration.tnonwavefront,
                iteration.trework,
            ),
            prediction=prediction,
        )
