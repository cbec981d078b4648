"""Vectorized struct-of-arrays evaluation of the plug-and-play model.

:func:`batch_point_values` prices a whole design matrix - a list of resolved
``(spec, platform, grid, core_mapping)`` configurations - in one pass, with
results numerically equivalent (<= 1e-9 relative) to evaluating
:func:`repro.core.model.iteration_prediction` with ``method="fast"`` point by
point.  The speedup comes from amortising the Python interpreter: the batch
is grouped by ``(platform, core_mapping)`` and every group is evaluated as a
handful of elementwise operations over *arrays* of per-point quantities
(``W``, ``Wpre``, message sizes, grid shapes) instead of thousands of scalar
calls.

Array backend
-------------

Operations run on numpy arrays.  numpy is optional at install time: without
it, :func:`batch_point_values` prices each point on the scalar fast path
(:func:`repro.core.model.iteration_prediction` with ``method="fast"``) -
the same numbers as ``analytic-fast``, at its speed.

What vectorizes, what falls back
--------------------------------

Vectorized exactly (same elementwise operation order as the scalar code,
so homogeneous-platform results are bit-identical):

* the closed-form ``StartP`` path for position-independent costs;
* the period-folded ``StartP`` path for multi-core periodic costs,
  including the per-point linearity verification (sub-grouped by grid
  shape so the fold geometry stays scalar);
* the Table 1 communication-cost kernels at all three hop levels, the
  stack costs with Table 6 bus contention, and the all-reduce
  non-wavefront term (equation (9));
* noise mean-inflation and checkpoint-dump inflation of ``W``/``Wpre``
  (scalar factors per group), plus the per-point bounded expected-rework
  correction of fault-model platforms (see :mod:`repro.core.faults`).

Per-point scalar fallbacks (delegating to the scalar model, so results
match by construction):

* grid points whose fold linearity check fails (rare; the exact walk);
* the bounded per-diagonal heterogeneity correction of non-trivial
  :class:`~repro.core.hetero.SpeedProfile` platforms;
* :class:`~repro.apps.base.StencilNonWavefront` and custom
  ``NonWavefrontModel`` implementations;
* configurations with unhashable (subclassed) platforms or mappings.

>>> from repro.apps.workloads import lu_class
>>> from repro.platforms import cray_xt4
>>> from repro.core.decomposition import decompose
>>> from repro.core.multicore import resolve_core_mapping
>>> from repro.core.model import iteration_prediction
>>> spec, platform = lu_class("A"), cray_xt4()
>>> grid = decompose(16)
>>> mapping = resolve_core_mapping(platform, None)
>>> [point] = batch_point_values([(spec, platform, grid, mapping)])
>>> reference = iteration_prediction(spec, platform, grid, mapping, method="fast")
>>> abs(point.time_per_iteration - reference.time_per_iteration) <= (
...     1e-9 * reference.time_per_iteration)
True
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.apps.base import AllReduceNonWavefront, NoNonWavefront, WavefrontSpec
from repro.core.comm import _level_params
from repro.core.decomposition import CoreMapping, ProcessorGrid
from repro.core.hetero import max_multiplier
from repro.core.loggp import OffNodeParams, OnChipParams, Platform
from repro.core.faults import expected_rework_us, rework_guard
from repro.core.model import (
    _FOLD_BASE_PERIODS,
    _FOLD_REL_TOL,
    _count_residue,
    _fault_inflation,
    _fill_cost_table,
    _fill_heterogeneity_extras,
    _require_analytic_supported,
    _startp_exact,
    iteration_prediction,
)

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the container always has numpy
    _np = None

__all__ = ["PointValues", "batch_point_values"]

#: One resolved configuration: what ``PredictionRequest.resolve()`` returns.
_Config = Tuple[WavefrontSpec, Platform, ProcessorGrid, CoreMapping]


# ---------------------------------------------------------------------------
# Vector communication-cost kernels (Table 1, same operation order as
# repro.core.comm so homogeneous results are bit-identical)
# ---------------------------------------------------------------------------

def _v_total_off(params: OffNodeParams, size):
    base = params.overhead + size * params.gap_per_byte + params.latency + params.overhead
    eager = size <= float(params.eager_limit)
    return _np.where(eager, base, base + params.handshake_time + params.overhead)


def _v_send_off(params: OffNodeParams, size):
    eager = size <= float(params.eager_limit)
    return _np.where(eager, params.overhead, params.overhead + params.handshake_time)


def _v_receive_off(params: OffNodeParams, size):
    eager = size <= float(params.eager_limit)
    rendezvous = (
        params.latency
        + params.overhead
        + size * params.gap_per_byte
        + params.latency
        + params.overhead
    )
    return _np.where(eager, params.overhead, rendezvous)


def _v_total_chip(params: OnChipParams, size):
    eager = size <= float(params.eager_limit)
    small = params.copy_overhead + size * params.gap_per_byte_copy + params.copy_overhead
    large = params.overhead + size * params.gap_per_byte_dma + params.copy_overhead
    return _np.where(eager, small, large)


def _v_send_chip(params: OnChipParams, size):
    eager = size <= float(params.eager_limit)
    return _np.where(eager, params.copy_overhead, params.overhead)


def _v_receive_chip(params: OnChipParams, size):
    eager = size <= float(params.eager_limit)
    return _np.where(
        eager,
        params.copy_overhead,
        size * params.gap_per_byte_dma + params.copy_overhead,
    )


def _v_cost(platform: Platform, level: str, size, kind: str):
    """One vectorized Table 1 cost (``kind`` in total/send/receive) at ``level``."""
    off_params, chip_params = _level_params(platform, False, level)
    if off_params is not None:
        if kind == "total":
            return _v_total_off(off_params, size)
        if kind == "send":
            return _v_send_off(off_params, size)
        return _v_receive_off(off_params, size)
    if kind == "total":
        return _v_total_chip(chip_params, size)
    if kind == "send":
        return _v_send_chip(chip_params, size)
    return _v_receive_chip(chip_params, size)


def _v_fill_table(
    platform: Platform,
    mapping: CoreMapping,
    multicore: bool,
    ew,
    ns,
) -> Tuple[list, int, int]:
    """Vectorized per-residue-class fill-cost table (model._fill_cost_table).

    Entries are ``(TotalCommE, ReceiveN, SendE, TotalCommS)`` vectors over
    the batch, indexed ``[i % Cx][j % Cy]``.
    """
    cx, cy = (mapping.cx, mapping.cy) if multicore else (1, 1)
    table = []
    for im in range(cx):
        i = im if im >= 1 else cx
        column = []
        for jm in range(cy):
            j = jm if jm >= 1 else cy
            if not multicore:
                entry = (
                    _v_total_off(platform.off_node, ew),
                    _v_receive_off(platform.off_node, ns),
                    _v_send_off(platform.off_node, ew),
                    _v_total_off(platform.off_node, ns),
                )
            else:
                entry = (
                    _v_cost(platform, mapping.comm_from_west_level(i, j), ew, "total"),
                    _v_cost(platform, mapping.receive_north_level(i, j), ns, "receive"),
                    _v_cost(platform, mapping.send_east_level(i, j), ew, "send"),
                    _v_cost(platform, mapping.send_south_level(i, j), ns, "total"),
                )
            column.append(entry)
        table.append(column)
    return table, cx, cy


# ---------------------------------------------------------------------------
# Vector StartP evaluators (model._startp_* over a batch dimension)
# ---------------------------------------------------------------------------

def _v_startp_homogeneous(n_list, m_list, w, wpre, entry):
    """Closed-form ``StartP`` corners, vectorized over grid shapes."""
    comm_e, recv_n, send_e, comm_s = entry
    n_vec = _np.asarray(n_list, dtype=float)
    m_vec = _np.asarray(m_list, dtype=float)
    send_e_eff = _np.where(n_vec > 1.0, send_e, 0.0)
    south = w + send_e_eff + comm_s
    tdiag = wpre + (m_vec - 1.0) * south
    tfull_single_column = wpre + (n_vec - 1.0) * (w + comm_e)
    tfull_general = tdiag + (n_vec - 1.0) * (w + comm_e + recv_n)
    tfull = _np.where(m_vec > 1.0, tfull_general, tfull_single_column)
    return tdiag, tfull


def _v_startp_cells(
    big_n: int, big_m: int, w, wpre, table, cx: int, cy: int, cells
):
    """The full-grid recurrence, harvesting ``StartP(i, j)`` at ``cells``.

    ``big_n``/``big_m`` are scalars (the batch is sub-grouped by grid
    shape); every grid step performs one elementwise operation over the
    batch.  Harvesting ``(1, big_m)`` and ``(big_n, big_m)`` gives the
    exact walk's two fill corners.  The recurrence value at ``(i, j)``
    depends only on the rectangle below and left of it, so the corner
    values of every smaller ``(i, j)`` grid can be read off the same walk -
    provided every requested ``i`` agrees with ``big_n`` on the ``n > 1``
    first-column guard (callers check).  This cuts the period-folded
    path's six corner walks down to one.
    """
    wanted_rows: Dict[int, List[int]] = {}
    for i, j in cells:
        wanted_rows.setdefault(j, []).append(i)
    out = {}
    rows = [[table[i % cx][jm] for i in range(1, big_n + 1)] for jm in range(cy)]

    prev: list = [None] * big_n
    prev[0] = wpre
    row1 = rows[1 % cy]
    for i in range(2, big_n + 1):
        prev[i - 1] = prev[i - 2] + w + row1[i - 1][0]
    for i in wanted_rows.get(1, ()):
        out[(i, 1)] = prev[i - 1]

    for j in range(2, big_m + 1):
        row = rows[j % cy]
        cur: list = [None] * big_n
        send_e_first = row[0][2] if big_n > 1 else 0.0
        cur[0] = prev[0] + w + send_e_first + row[0][3]
        for i in range(2, big_n + 1):
            comm_e, recv_n, send_e, comm_s = row[i - 1]
            west = cur[i - 2] + w + comm_e + recv_n
            north = prev[i - 1] + w + send_e + comm_s
            cur[i - 1] = _np.maximum(west, north)
        prev = cur
        for i in wanted_rows.get(j, ()):
            out[(i, j)] = prev[i - 1]
    return out


def _v_startp_diag(n: int, m: int, w, wpre, table, cx: int, cy: int):
    """``StartP(1, m)`` in closed form (model._startp_diag), vectorized."""
    send_e = table[1 % cx][0][2] if n > 1 else 0.0
    total = wpre
    for jm in range(cy):
        count = _count_residue(2, m, cy, jm)
        if count:
            total = total + count * (w + send_e + table[1 % cx][jm][3])
    return total


def _v_startp_periodic(n: int, m: int, w, wpre, table, cx: int, cy: int):
    """Period-folded ``StartP`` over a batch; per-point linearity verification.

    Returns ``(tdiag, tfull, bad)`` where the boolean array ``bad`` flags
    the points whose linearity checks failed (they need the scalar exact
    walk), or ``None`` when the fold does not apply to the whole sub-group
    (too small to fold, or folding costs more than the exact walk) -
    exactly the decisions of :func:`repro.core.model._startp_periodic`.
    """
    base = _FOLD_BASE_PERIODS
    n0 = n if n <= (base + 2) * cx else base * cx + (n - base * cx) % cx
    m0 = m if m <= (base + 2) * cy else base * cy + (m - base * cy) % cy
    kx = (n - n0) // cx
    ky = (m - m0) // cy
    if kx == 0 and ky == 0:
        return None
    evaluations = 1 + (2 if kx else 0) + (2 if ky else 0) + (1 if kx and ky else 0)
    if evaluations * (n0 + 2 * cx) * (m0 + 2 * cy) >= n * m:
        return None

    # Every corner value is a cell of one big walk (identical op order), so
    # harvest all of them from a single pass over the largest grid.  When
    # ``kx > 0``, ``n0 >= base * cx > 1``, so every corner agrees with the
    # big walk on the first-column ``n > 1`` guard.
    cells = [(n0, m0)]
    if kx:
        cells += [(n0 + cx, m0), (n0 + 2 * cx, m0)]
    if ky:
        cells += [(n0, m0 + cy), (n0, m0 + 2 * cy)]
    if kx and ky:
        cells.append((n0 + cx, m0 + cy))
    big_n = n0 + 2 * cx if kx else n0
    big_m = m0 + 2 * cy if ky else m0
    harvested = _v_startp_cells(big_n, big_m, w, wpre, table, cx, cy, cells)

    def corner(a: int, b: int):
        return harvested[(n0 + a * cx, m0 + b * cy)]

    f00 = corner(0, 0)
    tolerance = _FOLD_REL_TOL * _np.maximum(_np.abs(f00), 1.0)
    bad = _np.zeros(len(f00), dtype=bool)
    dx = dy = 0.0
    if kx:
        f10 = corner(1, 0)
        dx = f10 - f00
        bad |= _np.abs((corner(2, 0) - f10) - dx) > tolerance
    if ky:
        f01 = corner(0, 1)
        dy = f01 - f00
        bad |= _np.abs((corner(0, 2) - f01) - dy) > tolerance
    if kx and ky:
        bad |= _np.abs(corner(1, 1) - (f00 + dx + dy)) > tolerance

    tfull = f00 + kx * dx + ky * dy
    return _v_startp_diag(n, m, w, wpre, table, cx, cy), tfull, bad


# ---------------------------------------------------------------------------
# Vector all-reduce (equation (9))
# ---------------------------------------------------------------------------

def _v_allreduce(platform: Platform, cores_list, payload):
    """``MPI_Allreduce`` time over vectors of core counts and payload sizes."""
    cores_vec = _np.asarray(cores_list, dtype=float)
    cores_per_node = _np.minimum(cores_vec, float(platform.node.cores_per_node))
    log_p = _np.log2(cores_vec)
    log_c = _np.log2(cores_per_node)
    off_node_term = (
        (log_p - log_c) * cores_per_node * _v_total_off(platform.off_node, payload)
    )
    if platform.node.cores_per_node > 1:
        on_chip_term = _np.where(
            cores_per_node > 1.0,
            log_c * cores_per_node * _v_total_chip(platform.on_chip, payload),
            0.0,
        )
        total = off_node_term + on_chip_term
    else:
        total = off_node_term + 0.0
    return _np.where(cores_vec > 1.0, total, 0.0)


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------

class PointValues(NamedTuple):
    """Per-point model outputs needed to build a ``BackendResult``.

    ``stack_phase`` is ``nsweeps * Tstack`` and ``nonwavefront_phase`` is
    ``Tnonwavefront`` - the two non-fill entries of the analytic backends'
    phase breakdown.  ``rework`` is the bounded expected-rework correction
    of fault-model platforms, exactly 0.0 on fault-free ones.  A named
    tuple rather than a dataclass: one is built per design point, and a
    tuple of floats is cheap to build and is not tracked by the cyclic
    garbage collector.
    """

    time_per_iteration: float
    computation_per_iteration: float
    pipeline_fill: float
    stack_phase: float
    nonwavefront_phase: float
    rework: float = 0.0


def _scalar_point(config: _Config) -> PointValues:
    """Per-point fallback through the scalar model (no numpy, unhashable keys)."""
    spec, platform, grid, mapping = config
    iteration = iteration_prediction(spec, platform, grid, mapping, method="fast")
    return PointValues(
        time_per_iteration=iteration.time_per_iteration,
        computation_per_iteration=iteration.computation_per_iteration,
        pipeline_fill=iteration.pipeline_fill_time,
        stack_phase=iteration.nsweeps * iteration.stack.total,
        nonwavefront_phase=iteration.tnonwavefront,
        rework=iteration.trework,
    )


def batch_point_values(configs: Sequence[_Config]) -> List[PointValues]:
    """Evaluate the model over a design matrix, one group at a time.

    ``configs`` holds resolved ``(spec, platform, grid, core_mapping)``
    tuples (what :meth:`PredictionRequest.resolve` returns); the result list
    is in input order.  Equivalent to per-point ``method="fast"`` evaluation
    within 1e-9 relative (bit-identical on homogeneous platforms).  Without
    numpy every point goes through that scalar evaluation.
    """
    configs = list(configs)
    if _np is None:
        return [_scalar_point(config) for config in configs]
    results: List[PointValues] = [None] * len(configs)  # type: ignore[list-item]
    groups: Dict[Tuple[Platform, CoreMapping], List[int]] = {}
    # Design matrices list long runs of one platform and mapping object, so
    # the group key is hashed only when the objects change.
    key = members = None
    for index, config in enumerate(configs):
        _spec, platform, _grid, mapping = config
        if key is None or platform is not key[0] or mapping is not key[1]:
            key = (platform, mapping)
            try:
                members = groups.setdefault(key, [])
            except TypeError:
                key = None
                results[index] = _scalar_point(config)
                continue
        members.append(index)
    for (platform, mapping), indices in groups.items():
        group_results = _evaluate_group(
            platform, mapping, [configs[i] for i in indices]
        )
        for index, point in zip(indices, group_results):
            results[index] = point
    return results


def _evaluate_group(
    platform: Platform,
    mapping: CoreMapping,
    configs: Sequence[_Config],
) -> List[PointValues]:
    """Evaluate one ``(platform, mapping)`` group as struct-of-arrays."""
    _require_analytic_supported(platform)
    specs = [config[0] for config in configs]
    grids = [config[2] for config in configs]

    # Per-point inputs.  Spec-level quantities are read once per distinct
    # spec (id-keyed memoisation is safe because `configs` keeps every spec
    # alive); the Table 3 per-tile quantities (WavefrontSpec.work_per_tile,
    # pre_work_per_tile, message_size_ew/ns, tiles_per_stack) then run as
    # array operations in the scalar methods' operation order.
    spec_rows: Dict[int, Tuple[float, ...]] = {}
    rows = []
    for spec in specs:
        row = spec_rows.get(id(spec))
        if row is None:
            problem = spec.problem
            row = spec_rows[id(spec)] = (
                spec.wg_us, spec.wg_pre_us, spec.htile, spec.boundary_bytes_per_cell,
                problem.nx, problem.ny, problem.nz,
                spec.ndiag, spec.nfull, spec.nsweeps,
            )
        rows.append(row)
    (
        wg, wg_pre, htile, bytes_per_cell, nx, ny, nz, ndiag, nfull, nsweeps
    ) = _np.asarray(rows, dtype=float).reshape(-1, 10).T
    n_list = [grid.n for grid in grids]
    m_list = [grid.m for grid in grids]
    n, m = _np.asarray(n_list), _np.asarray(m_list)
    sub_x, sub_y = nx / n, ny / m
    w = wg * htile * sub_x * sub_y * platform.compute_scale
    wpre = wg_pre * htile * sub_x * sub_y * platform.compute_scale
    ew = bytes_per_cell * htile * sub_y
    ns = bytes_per_cell * htile * sub_x
    inflation = platform.noise_inflation()
    if inflation != 1.0:  # repro: noqa[RPR004] exactly 1.0 on homogeneous platforms; preserves bit-for-bit identity
        w, wpre = w * inflation, wpre * inflation
    dump = _fault_inflation(platform)
    if dump != 1.0:  # repro: noqa[RPR004] exactly 1.0 on fault-free platforms; preserves bit-for-bit identity
        w, wpre = w * dump, wpre * dump

    multicore = platform.is_multicore and mapping.cores_per_node > 1
    profile = platform.speed_profile
    heterogeneous = profile is not None and not profile.is_trivial

    # -- fill times (r2a)-(r3b) ------------------------------------------------------
    tdiag, tfull = _fill_corners(
        platform, mapping, multicore, configs, w, wpre, ew, ns, n_list, m_list
    )
    tdiag_work = wpre + (m - 1) * w
    tfull_work = wpre + (n + m - 2) * w
    if heterogeneous:
        extras = [
            _fill_heterogeneity_extras(platform, grid, mapping, w_i, wpre_i)
            for grid, w_i, wpre_i in zip(grids, w.tolist(), wpre.tolist())
        ]
        extra_diag, extra_full = _np.asarray(extras, dtype=float).reshape(-1, 2).T
        tdiag, tfull = tdiag + extra_diag, tfull + extra_full
        tdiag_work, tfull_work = tdiag_work + extra_diag, tfull_work + extra_full

    # -- stack time (r4) -------------------------------------------------------------
    # The slowest-node multiplier scales W, Wpre and the non-wavefront work;
    # on homogeneous points it is exactly 1.0, an exact no-op.
    slowest = None
    w_stack, wpre_stack = w, wpre
    if heterogeneous:
        slowest = _np.asarray(
            [max_multiplier(profile, grid, mapping) for grid in grids], dtype=float
        )
        w_stack, wpre_stack = w * slowest, wpre * slowest
    stack_total, stack_work = _stack_times(
        platform, mapping, nz / htile, w_stack, wpre_stack, ew, ns
    )

    # -- non-wavefront term ----------------------------------------------------------
    nonwf_work, nonwf_comm = _nonwavefront_components(platform, specs, grids)
    if inflation != 1.0:  # repro: noqa[RPR004] exactly 1.0 on homogeneous platforms; preserves bit-for-bit identity
        nonwf_work = nonwf_work * inflation
    if dump != 1.0:  # repro: noqa[RPR004] exactly 1.0 on fault-free platforms; preserves bit-for-bit identity
        nonwf_work = nonwf_work * dump
    if slowest is not None:
        nonwf_work = nonwf_work * slowest
    tnonwavefront = nonwf_work + nonwf_comm

    # -- assembly (r5) ---------------------------------------------------------------
    pipeline_fill = ndiag * tdiag + nfull * tfull
    stack_phase = nsweeps * stack_total
    trework = _np.zeros(len(specs))
    faults = platform.faults
    if faults is not None and faults.fails:
        # Same operation order as iteration_prediction's base_time so the
        # guard and correction agree with the scalar model.
        base_time = pipeline_fill + stack_phase + nonwf_work + nonwf_comm
        for i, value in enumerate(base_time.tolist()):
            rework_guard(faults, value)
            trework[i] = expected_rework_us(faults, value)
    time_per_iteration = pipeline_fill + stack_phase + tnonwavefront + trework
    computation = (
        ndiag * tdiag_work
        + nfull * tfull_work
        + nsweeps * stack_work
        + nonwf_work
        + trework
    )
    return list(
        map(
            PointValues,
            time_per_iteration.tolist(),
            computation.tolist(),
            pipeline_fill.tolist(),
            stack_phase.tolist(),
            tnonwavefront.tolist(),
            trework.tolist(),
        )
    )


def _fill_corners(
    platform: Platform,
    mapping: CoreMapping,
    multicore: bool,
    configs: Sequence[_Config],
    w, wpre, ew, ns, n_list, m_list,
):
    """``(StartP(1, m), StartP(n, m))`` arrays for one group (fast method)."""
    if not multicore:
        table, _cx, _cy = _v_fill_table(platform, mapping, False, ew, ns)
        return _v_startp_homogeneous(n_list, m_list, w, wpre, table[0][0])

    tdiag = _np.empty(len(configs))
    tfull = _np.empty(len(configs))
    shapes: Dict[Tuple[int, int], List[int]] = {}
    for i, shape in enumerate(zip(n_list, m_list)):
        shapes.setdefault(shape, []).append(i)
    for (n, m), indices in shapes.items():
        rows = _np.asarray(indices)
        table, cx, cy = _v_fill_table(platform, mapping, True, ew[rows], ns[rows])
        folded = _v_startp_periodic(n, m, w[rows], wpre[rows], table, cx, cy)
        if folded is None:
            corners = _v_startp_cells(
                n, m, w[rows], wpre[rows], table, cx, cy, [(1, m), (n, m)]
            )
            tdiag[rows], tfull[rows] = corners[(1, m)], corners[(n, m)]
            continue
        tdiag[rows], tfull[rows], bad = folded
        for index in rows[bad].tolist():
            # Rare: this point's fold linearity check failed; use the
            # scalar exact walk exactly as the scalar fast path would.
            spec, _platform, grid, _mapping = configs[index]
            scalar_table, _ = _fill_cost_table(spec, platform, grid, mapping)
            tdiag[index], tfull[index] = _startp_exact(
                n, m, float(w[index]), float(wpre[index]), scalar_table, cx, cy
            )
    return tdiag, tfull


def _stack_times(
    platform: Platform,
    mapping: CoreMapping,
    tiles, w, wpre, ew, ns,
):
    """Vectorized equation (r4): ``(Tstack, stack work)`` arrays for a group.

    ``tiles`` is the per-point stack depth ``Nz / Htile``.
    """
    receive_west = _v_receive_off(platform.off_node, ew)
    receive_north = _v_receive_off(platform.off_node, ns)
    send_east = _v_send_off(platform.off_node, ew)
    send_south = _v_send_off(platform.off_node, ns)
    cores_per_bus = max(1, mapping.cores_per_node // platform.node.buses_per_node)
    if cores_per_bus <= 1 or platform.on_chip is None:
        contention = 0.0
    elif cores_per_bus == 2:
        i_ns = platform.on_chip.dma_setup + ns * platform.on_chip.gap_per_byte_dma
        contention = i_ns + i_ns
    else:
        i_ew = platform.on_chip.dma_setup + ew * platform.on_chip.gap_per_byte_dma
        i_ns = platform.on_chip.dma_setup + ns * platform.on_chip.gap_per_byte_dma
        multiplier = cores_per_bus / 4.0
        contention = (
            multiplier * i_ew
            + multiplier * i_ns
            + multiplier * i_ew
            + multiplier * i_ns
        )
    per_tile_comm = receive_west + receive_north + send_east + send_south + contention
    per_tile = per_tile_comm + w + wpre
    total = per_tile * tiles - wpre
    work = (w + wpre) * tiles - wpre
    return total, work


def _nonwavefront_components(platform: Platform, specs, grids):
    """``(work, comm)`` arrays of the non-wavefront term over a group.

    All-reduce models vectorize (equation (9)); stencil and custom models
    fall back to their own scalar ``evaluate_components``.
    """
    work = _np.zeros(len(specs))
    comm = _np.zeros(len(specs))
    allreduce_indices = []
    for i, spec in enumerate(specs):
        model = spec.nonwavefront
        if type(model) is NoNonWavefront:
            continue
        if type(model) is AllReduceNonWavefront:
            allreduce_indices.append(i)
        else:
            work[i], comm[i] = model.evaluate_components(platform, spec, grids[i])
    if allreduce_indices:
        cores = [grids[i].total_processors for i in allreduce_indices]
        payload = _np.asarray(
            [specs[i].nonwavefront.payload_bytes for i in allreduce_indices], dtype=float
        )
        counts = _np.asarray(
            [specs[i].nonwavefront.count for i in allreduce_indices], dtype=float
        )
        comm[allreduce_indices] = counts * _v_allreduce(platform, cores, payload)
    return work, comm
