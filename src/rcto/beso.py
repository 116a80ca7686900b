"""Concurrent discrete evolutionary optimization of both scales.

One iteration: homogenize the cell, evaluate the robust objective and its
sensitivity by the hybrid perturbation analysis (deterministic CTO is its
n = 0 case: no uncertain parameters, one factorization and one backsolve),
build mass-normalized filtered sensitivity numbers, rank the
merged macro/micro candidates, and flip design variables against a single
total-weight budget that walks toward the target fraction by a fixed
evolutionary ratio.  The weight is ``problem.design_weight`` and its
derivatives ``problem.weight_gradient``: the budget, the fractions, the
update's prefix weights and the quantum, (1 - x_min) times the larger
derivative, all read them.  Convergence compares the objective sum over the
last window against the preceding window, once the weight target is met.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleTargetError, SingularSystemError
from .homogenization import EffectiveProperties, effective_density, seed_cell
from .materials import TwoPhaseMaterial
from .problem import DesignState, MacroProblem, X_MIN_DEFAULT, design_weight, weight_gradient
from .sensitivity import (
    SensitivityField,
    history_average,
    normalize,
    robust_sensitivity,
    SensitivityFilter,
)
from .uncertainty import RobustObjective, UncertainSet, ihpa_evaluate

logger = logging.getLogger(__name__)

HISTORY_WINDOW = 5  # iterations per window of the convergence test

# Ranking resolution: the key rounds every value to 2^-32 of the largest
# |value|.  Rounding noise of the sensitivity numbers sits near 2^-52 of it,
# about 1e-6 of that quantum, so it cannot reorder values that are equal in
# exact arithmetic; a real gap below 2.3e-10 relative is below what the
# solves resolve (their residual contract is 1e-9) and ties as well.
RANK_LEVELS = 2.0**32


@dataclass(frozen=True)
class Schedule:
    """Evolution parameters of the discrete update."""

    target_weight_fraction: float
    evolution_ratio: float = 0.02
    kappa: float = 1.0
    convergence_tol: float = 1e-3
    flip_cap: float | None = 0.05
    max_iterations: int = 500
    beta: float | None = None  # sign-smoothing sharpness; None picks it per evaluation

    def __post_init__(self):
        if not 0.0 < self.target_weight_fraction <= 1.0:
            raise ValueError("target weight fraction must be in (0, 1]")
        if self.evolution_ratio <= 0.0:
            raise ValueError("evolutionary ratio must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


def update_weight_target(current: float, target: float, evolution_ratio: float) -> float:
    """Next weight fraction: move by (1 +/- ER) toward the target, clamped on overshoot."""
    if current > target:
        return max(current * (1.0 - evolution_ratio), target)
    if current < target:
        return min(current * (1.0 + evolution_ratio), target)
    return target


def reference_mass(problem: MacroProblem, material: TwoPhaseMaterial) -> float:
    """Phase-1-full design mass, the denominator of every weight fraction."""
    return float(design_weight(problem, material, problem.grid.n_elems, problem.cell.n_elems))


def total_mass(problem: MacroProblem, state: DesignState, material: TwoPhaseMaterial) -> float:
    return float(design_weight(problem, material, np.sum(state.x_macro), np.sum(state.x_micro)))


def mass_quantum(problem: MacroProblem, state: DesignState, material: TwoPhaseMaterial) -> float:
    """Largest single-flip mass change at the given state: (1 - x_min) times the larger weight derivative."""
    rho_h = effective_density(state.x_micro, material, problem.cell)
    gradient = weight_gradient(problem, state, rho_h, material.phase1.density - material.phase2.density)
    return (1.0 - state.x_min) * max(abs(g) for g in gradient)


@dataclass
class UpdateInfo:
    cap_bound: bool
    flips_macro: int
    flips_micro: int


def concurrent_update(
    problem: MacroProblem,
    state: DesignState,
    material: TwoPhaseMaterial,
    xi: SensitivityField,
    target_mass: float,
    flip_cap: float | None = 0.05,
) -> tuple[DesignState, UpdateInfo]:
    """Rank both scales together and assign {1, x_min} to meet the weight budget.

    The merged ranking is cut at the prefix whose total weight (with the
    effective density recomputed from the candidate micro field) is closest
    to the target; ties in the ranking break deterministically by (scale,
    element index), the order of the merged array, which a stable sort
    keeps.  The ranking reads each value rounded to 1 / RANK_LEVELS of the
    largest magnitude, so values that differ only by rounding (mirror or
    periodic images of one element) tie instead of being ordered by their
    last bits.  A per-scale flip cap limits oscillation; when it binds, the
    weight target is approached over the following iterations instead.
    """
    ne_mac = problem.grid.n_elems
    ne_mic = problem.cell.n_elems
    x_min = state.x_min

    values = np.concatenate([xi.macro, xi.micro])
    scale = np.max(np.abs(values))
    key = np.rint(values * RANK_LEVELS / scale) if scale > 0.0 else np.zeros_like(values)
    order = np.argsort(-key, kind="stable")

    is_micro = order >= ne_mac
    n1 = np.concatenate([[0], np.cumsum(~is_micro)])  # macro solids in prefix
    m1 = np.concatenate([[0], np.cumsum(is_micro)])   # micro phase-1 voxels in prefix
    prefix_mass = design_weight(problem, material, n1 + x_min * (ne_mac - n1), m1 + x_min * (ne_mic - m1))

    if target_mass < prefix_mass[0] - 1e-12 * prefix_mass[-1]:
        raise InfeasibleTargetError(
            f"weight target {target_mass:.6e} below the empty-design minimum {prefix_mass[0]:.6e}"
        )
    if target_mass > prefix_mass[-1] * (1.0 + 1e-12):
        raise InfeasibleTargetError(
            f"weight target {target_mass:.6e} above the full-design maximum {prefix_mass[-1]:.6e}"
        )

    k = int(np.searchsorted(prefix_mass, target_mass))
    if k > 0 and (
        k == prefix_mass.size
        or abs(prefix_mass[k - 1] - target_mass) <= abs(prefix_mass[k] - target_mass)
    ):
        k -= 1

    desired = np.full(ne_mac + ne_mic, x_min)
    desired[order[:k]] = 1.0
    current = np.concatenate([state.x_macro, state.x_micro])

    cap_bound = False
    new = desired.copy()
    if flip_cap is not None:
        # how strongly the threshold demands each flip: its rank distance from the cut
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        strength = np.where(rank < k, k - rank, rank - k + 1)
        for lo, hi in ((0, ne_mac), (ne_mac, ne_mac + ne_mic)):
            cap = max(1, int(np.ceil(flip_cap * (hi - lo))))
            flip_ids = lo + np.flatnonzero(desired[lo:hi] != current[lo:hi])
            if flip_ids.size > cap:
                cap_bound = True
                # keep the strongest flips, ties by element index
                revert = flip_ids[np.argsort(-strength[flip_ids], kind="stable")[cap:]]
                new[revert] = current[revert]

    x_macro = new[:ne_mac]
    x_micro = new[ne_mac:]
    new_state = DesignState(x_macro=x_macro, x_micro=x_micro, x_min=x_min, iteration=state.iteration + 1)
    info = UpdateInfo(
        cap_bound=cap_bound,
        flips_macro=int(np.sum(x_macro != state.x_macro)),
        flips_micro=int(np.sum(x_micro != state.x_micro)),
    )
    return new_state, info


def check_convergence(objectives, window: int = HISTORY_WINDOW, tol: float = 1e-3) -> tuple[bool, float]:
    """Relative change between the last window-sum and the preceding one."""
    objectives = list(objectives)
    if len(objectives) < 2 * window:
        return False, float("inf")
    recent = sum(objectives[-window:])
    older = sum(objectives[-2 * window : -window])
    error = abs(recent - older) / abs(recent)
    return error <= tol, error


@dataclass
class HistoryRow:
    iteration: int
    objective: float
    expectation: float
    std: float
    weight_fraction: float
    macro_solid_fraction: float
    micro_phase1_fraction: float


@dataclass
class OptimizationResult:
    state: DesignState
    history: list[HistoryRow]
    converged: bool
    objective: RobustObjective
    props: EffectiveProperties
    field_snapshots: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.history)


def initial_state(
    problem: MacroProblem,
    x_min: float = X_MIN_DEFAULT,
    seed_fraction: float = 0.05,
) -> DesignState:
    """Full macro design plus the disclosed phase-2 disk seed in the cell."""
    x_micro = seed_cell(problem.cell, seed_fraction, x_min)
    return DesignState(x_macro=np.ones(problem.grid.n_elems), x_micro=x_micro, x_min=x_min)


def run(
    problem: MacroProblem,
    base_material: TwoPhaseMaterial,
    params: UncertainSet,
    schedule: Schedule,
    r_min_macro: float,
    r_min_micro: float,
    seed_fraction: float = 0.05,
    x_min: float = X_MIN_DEFAULT,
    keep_snapshots: bool = False,
) -> OptimizationResult:
    """Full concurrent optimization loop; deterministic when params is empty.

    Per iteration: homogenize, evaluate, test convergence once the target
    fraction is reached, and unless the run stops there build sensitivities,
    normalize, filter, average with history and update both scales against
    the scheduled weight budget.  The perturbation vectors are released
    before the next evaluation; the filtered field stays for the history
    average.
    """
    material = params.mean_material(base_material)
    state = initial_state(problem, x_min=x_min, seed_fraction=seed_fraction)

    half_box = 0.49 * min(n * h for n, h in zip(problem.cell.shape, problem.cell.spacing))
    if r_min_micro > half_box:
        logger.info("micro filter radius %.3g clamped to %.3g (half cell size)", r_min_micro, half_box)
        r_min_micro = half_box
    filt_macro = SensitivityFilter(problem.grid, r_min_macro, periodic=False)
    filt_micro = SensitivityFilter(problem.cell, r_min_micro, periodic=True)

    m0 = reference_mass(problem, material)
    floor = design_weight(problem, material, problem.grid.n_elems * x_min, problem.cell.n_elems * x_min)
    if schedule.target_weight_fraction * m0 < floor:
        raise InfeasibleTargetError(
            f"target weight fraction {schedule.target_weight_fraction} is below the "
            f"empty-design floor {floor / m0:.3e} set by x_min = {x_min:g}"
        )
    history: list[HistoryRow] = []
    snapshots = []
    previous_field: SensitivityField | None = None
    converged = False
    # the scheduled fraction compounds on itself; the achieved weight follows
    # within one mass_quantum
    target_fraction = total_mass(problem, state, material) / m0

    for _ in range(schedule.max_iterations):
        try:
            objective, cache = ihpa_evaluate(problem, state, base_material, params, kappa=schedule.kappa)
        except SingularSystemError as exc:
            raise SingularSystemError(f"iteration {state.iteration}: {exc}") from exc

        mass_now = total_mass(problem, state, material)
        history.append(
            HistoryRow(
                iteration=state.iteration,
                objective=objective.objective,
                expectation=objective.expectation,
                std=objective.std,
                weight_fraction=mass_now / m0,
                macro_solid_fraction=state.macro_solid_fraction,
                micro_phase1_fraction=state.micro_phase1_fraction,
            )
        )
        if keep_snapshots:
            snapshots.append((state.iteration, state.x_macro.copy(), state.x_micro.copy()))

        quantum = mass_quantum(problem, state, material)
        at_target = abs(mass_now - schedule.target_weight_fraction * m0) <= quantum
        if at_target:
            converged, err = check_convergence(
                [row.objective for row in history], tol=schedule.convergence_tol
            )
            if converged:
                logger.info("converged at iteration %d (windowed change %.3e)", state.iteration, err)
                break
        if len(history) == schedule.max_iterations:
            break  # return the design the last objective was evaluated at

        # sensitivities only for an update: neither stop above reads them
        xi = normalize(robust_sensitivity(cache, schedule.kappa, beta=schedule.beta), problem, state, cache.props)
        del cache  # its perturbation vectors and cell basis would otherwise live through the next evaluation
        filtered = SensitivityField(filt_macro.apply(xi.macro), filt_micro.apply(xi.micro))
        smoothed = history_average(filtered, previous_field)
        previous_field = filtered
        target_fraction = update_weight_target(
            target_fraction, schedule.target_weight_fraction, schedule.evolution_ratio
        )
        state, info = concurrent_update(
            problem, state, material, smoothed, target_fraction * m0, flip_cap=schedule.flip_cap
        )
        if info.cap_bound:
            logger.info(
                "iteration %d: flip cap bound (%d macro / %d micro flips kept)",
                state.iteration, info.flips_macro, info.flips_micro,
            )

    if not converged:
        logger.warning("stopped after %d iterations without meeting the convergence test", len(history))
    return OptimizationResult(
        state=state,
        history=history,
        converged=converged,
        objective=objective,
        props=cache.props,
        field_snapshots=snapshots,
    )
