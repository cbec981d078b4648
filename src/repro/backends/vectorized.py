"""``analytic-vec``: the plug-and-play model over whole design matrices.

:class:`VectorizedAnalyticBackend` implements the optional batch protocol
(``evaluate_batch``) on top of :func:`repro.core.model_vec
.batch_point_values`: the service layer (:func:`repro.backends.service
.predict_many`) hands it whole lists of resolved configurations, which it
prices as struct-of-arrays numpy operations.  Without numpy it prices each
point on the scalar fast path (see the README's optional-numpy policy).
Results match ``analytic-fast`` within 1e-9 relative (bit-identical on
homogeneous platforms), so it is a drop-in replacement wherever throughput
matters: exhaustive optimisation, Pareto fronts, campaigns.

Single-point ``evaluate`` calls also work (they are one-element batches), so
the backend satisfies :class:`~repro.backends.base.PredictionBackend` and
every existing consumer - CLI, validation, studies - accepts
``backend="analytic-vec"`` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.apps.base import WavefrontSpec
from repro.backends.analytic import analytic_phases
from repro.backends.base import BackendResult
from repro.core.decomposition import CoreMapping, ProcessorGrid
from repro.core.loggp import Platform
from repro.core.model_vec import PointValues, batch_point_values
from repro.core.multicore import resolve_core_mapping

__all__ = ["VectorizedAnalyticBackend"]

_Config = Tuple[WavefrontSpec, Platform, ProcessorGrid, CoreMapping]


@dataclass(frozen=True)
class VectorizedAnalyticBackend:
    """The ``analytic-vec`` engine: batches through ``core.model_vec``.

    >>> backend = VectorizedAnalyticBackend()
    >>> backend.name
    'analytic-vec'
    >>> from repro.apps.workloads import lu_class
    >>> from repro.platforms import cray_xt4
    >>> from repro.core.decomposition import decompose
    >>> result = backend.evaluate(lu_class("A"), cray_xt4(), decompose(16))
    >>> [name for name, _time in result.phases]
    ['pipeline_fill', 'stack', 'nonwavefront']
    """

    @property
    def name(self) -> str:
        return "analytic-vec"

    def evaluate(
        self,
        spec: WavefrontSpec,
        platform: Platform,
        grid: ProcessorGrid,
        core_mapping: Optional[CoreMapping] = None,
    ) -> BackendResult:
        """Evaluate one configuration (a one-element batch)."""
        mapping = resolve_core_mapping(platform, core_mapping)
        return self.evaluate_batch([(spec, platform, grid, mapping)])[0]

    def evaluate_batch(self, resolved: Sequence[_Config]) -> List[BackendResult]:
        """Evaluate resolved configurations in one pass, in input order.

        This is the batch-protocol entry point :func:`repro.backends
        .service.predict_many` discovers (it deduplicates the batch first).
        """
        resolved = list(resolved)
        points = batch_point_values(resolved)
        name = self.name
        return [_wrap(name, config, point) for config, point in zip(resolved, points)]


def _wrap(name: str, config: _Config, point: PointValues) -> BackendResult:
    """Shape one point's values like ``AnalyticBackend._wrap`` does."""
    spec, platform, grid, mapping = config
    time_us, computation_us, fill, stack, nonwavefront, rework = point
    return BackendResult(
        backend=name,
        spec=spec,
        platform=platform,
        grid=grid,
        core_mapping=mapping,
        time_per_iteration_us=time_us,
        computation_per_iteration_us=computation_us,
        pipeline_fill_per_iteration_us=fill,
        phases=analytic_phases(fill, stack, nonwavefront, rework),
    )
