"""Hybrid interval-random material uncertainty and its propagation.

A type-I hybrid parameter is a normally distributed quantity whose
expectation and standard deviation are known only as closed intervals.  The
worst-case expectation and standard deviation of the mean compliance are
estimated two ways:

* a nested first-order perturbation analysis around the midpoint means
  (one matrix factorization, 1 + 3n backsolves for n parameters), and
* a nested Monte Carlo oracle (outer loop over interval realizations of
  (mu, sigma), inner loop over normal samples) used for verification.  It
  solves each sample's cell and macro problems by Galerkin projection on
  reduced bases of full solutions, grown as the samples need them, and
  holds every sample to a residual contract in the full space.

The perturbation estimate combines, per parameter: the displacement
derivative taken along the expectation interval, the same derivative
weighted by the distribution spread, and a second-order term coupling the
two.  Hard sign factors give each term its worst-case (magnitude) sense; a
tanh smoothing of those signs makes the objective differentiable for the
sensitivity analysis.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SingularSystemError
from .fem import element_stiffness_batch, mean_compliance
from .homogenization import (
    EffectiveProperties,
    cell_loads,
    cell_operator,
    homogenize,
    phase1_fraction,
    solve_cell_problems,
    stiffness_weights,
)
from .materials import _PARTS, PARAMETER_NAMES, PARAMETERS, TwoPhaseMaterial, voigt_size
from .problem import DesignState, MacroProblem, ParameterOperator, factorized_dynamic

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Interval:
    """Closed real interval with midpoint/deviation views."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("interval bounds must be finite")
        if self.lo > self.hi:
            raise ValueError(f"interval bounds out of order: [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, value: float) -> "Interval":
        return cls(value, value)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def deviation(self) -> float:
        return 0.5 * (self.hi - self.lo)

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi


@dataclass(frozen=True)
class HybridParameter:
    """Normally distributed parameter with interval-valued expectation and std."""

    name: str
    mean: Interval
    std: Interval

    def __post_init__(self):
        if self.name not in PARAMETER_NAMES:
            raise ValueError(f"unknown parameter name {self.name!r} (expected one of {PARAMETER_NAMES})")
        if self.std.lo < 0:
            raise ValueError(f"{self.name}: standard deviation interval must be nonnegative")


class UncertainSet:
    """Ordered, independent hybrid parameters; n drives the 1 + 3n FEA-call count."""

    def __init__(self, parameters=()):
        self.parameters = tuple(parameters)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate parameter names in uncertain set")
        setter = {}  # (phase, field) -> the parameter that sets it
        for name in self.names:
            row = PARAMETERS[name]
            for key in ((p, row.field) for p in row.phases):
                if key in setter:
                    raise ValueError(f"{setter[key]!r} and {name!r} both set the {key[1]} of phase {key[0]}")
                setter[key] = name

    def __len__(self) -> int:
        return len(self.parameters)

    def __iter__(self):
        return iter(self.parameters)

    def __getitem__(self, i):
        return self.parameters[i]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    def mean_midpoints(self) -> np.ndarray:
        return np.array([p.mean.midpoint for p in self.parameters])

    def scales(self) -> np.ndarray:
        """(4, n) interval scales of the worst-case terms, in the row order of ``IhpaCache.terms``.

        Per parameter: the deviation of the mean interval (mean and std shift
        rows), the midpoint of the std interval (std level) and its deviation
        (std width).
        """
        spreads = [(p.mean.deviation, p.std.midpoint, p.mean.deviation, p.std.deviation) for p in self.parameters]
        return np.reshape(spreads, (-1, 4)).T

    def mean_material(self, base: TwoPhaseMaterial) -> TwoPhaseMaterial:
        """Base material with every declared parameter at its midpoint mean."""
        return base.with_values(self.names, self.mean_midpoints())


@dataclass(frozen=True)
class RobustObjective:
    """Worst-case expectation and standard deviation of the mean compliance."""

    expectation: float
    std: float
    kappa: float

    @property
    def objective(self) -> float:
        return self.expectation + self.kappa * self.std


@dataclass
class IhpaCache:
    """Solution vectors and worst-case terms reused by the robust sensitivity analysis.

    Each term is a product times its scale in ``scales``: mean F.du along the
    mean interval, std level and std width F.du_random, std shift sigma_mid
    F.d2u_cross (the level term's derivative along the mean interval).  F.du
    and F.du_random solve one right-hand side, so they agree bitwise and the
    mean row reads F.du_random.
    """

    problem: MacroProblem
    state: DesignState
    props: EffectiveProperties
    params: UncertainSet
    u_nominal: np.ndarray
    du_random: np.ndarray    # (n, ndof) displacement derivative against the random part, one solve per row
    d2u_cross: np.ndarray    # (n, ndof) second-order interval/random coupling, one solve per row
    c_nominal: float
    terms: np.ndarray        # (4, n) rows: mean, std level, std shift, std width
    scales: np.ndarray       # (4, n) interval scales of the terms, see UncertainSet.scales
    fea_calls: int

    def _objective(self, magnitudes: np.ndarray, kappa: float) -> RobustObjective:
        """Expectation c0 + the mean row's sum; std the sum of the three std rows' sums."""
        sums = np.sum(magnitudes, axis=1)
        return RobustObjective(self.c_nominal + float(sums[0]), float(sums[1] + sums[2] + sums[3]), kappa)

    def hard_objective(self, kappa: float) -> RobustObjective:
        """Worst-case combination with hard signs (each term at its full magnitude)."""
        return self._objective(np.abs(self.terms), kappa)

    def smooth_objective(self, kappa: float, beta: float) -> RobustObjective:
        """Same combination with tanh(beta f) replacing sign(f); differentiable in the design."""
        return self._objective(self.terms * smooth_sign(self.terms, beta)[0], kappa)

    def smooth_weights(self, kappa: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
        """Weights (a, b) of the smoothed objective: its design derivative is dC0 + sum_j a_j dF.du_j + b_j dF.d2u_j.

        Every term f is F.du_j (du_j = du_random[j]) or sigma_mid F.d2u_j
        (d2u_j = d2u_cross[j]) times its scale, and d(f tanh(beta f)) = g(f)
        df with g = t + f dt/df for (t, dt/df) from ``smooth_sign``.
        """
        t, dt = smooth_sign(self.terms, beta)
        g = t + self.terms * dt
        w = g * self.scales
        return w[0] + kappa * (w[1] + w[3]), kappa * g[2] * self.scales[1] * self.scales[2]


def smooth_sign(f, beta: float):
    """tanh-smoothed sign of f: returns (value, d(value)/df)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    t = np.tanh(beta * np.asarray(f, dtype=float))
    return t, beta * (1.0 - t * t)


def ihpa_evaluate(
    problem: MacroProblem,
    state: DesignState,
    base_material: TwoPhaseMaterial,
    params: UncertainSet,
    kappa: float = 1.0,
) -> tuple[RobustObjective, IhpaCache]:
    """Hybrid perturbation estimate of the worst-case mean-compliance statistics.

    Performs exactly 1 + 3n linear-system applications against one shared
    factorization at the midpoint-mean material, one solve call each: u0,
    then per parameter j the first-order right-hand side -K'_j u0 twice
    (the interval derivative, then the random one) and the cross term, with
    the parameter operators applied matrix-free.  With n = 0, or every
    interval degenerate and every sigma zero, it gives the deterministic
    compliance (std 0).
    """
    props = homogenize(problem.cell, state.x_micro, params.mean_material(base_material), problem.penalty)
    system = factorized_dynamic(problem, state, props.d_h, props.rho_h)
    operator = ParameterOperator(problem, state)
    f = problem.force
    u0 = system.solve(f)
    c0 = mean_compliance(f, u0)
    du_random = np.empty((len(params), f.size))
    d2u_cross = np.empty((len(params), f.size))
    for j, name in enumerate(params.names):
        dd, drho = props.d_h_derivative((name,)), props.rho_h_derivative((name,))
        rhs = operator(dd, drho, u0)
        np.negative(rhs, out=rhs)
        system.solve(rhs)  # the interval derivative: bitwise the random one, so the mean row reads F.du_random
        du_random[j] = system.solve(rhs)
        cross = 2.0 * operator(dd, drho, du_random[j])
        dd2, drho2 = props.d_h_derivative((name, name)), props.rho_h_derivative((name, name))
        if drho2 or dd2.any():  # K''_jj is zero for a parameter both D_h and rho_h are linear in: E and rho
            cross += operator(dd2, drho2, u0)
        d2u_cross[j] = system.solve(np.negative(cross, out=cross))

    scales = params.scales()
    f_du = du_random @ f
    products = np.array([f_du, f_du, (d2u_cross @ f) * scales[1], f_du])
    cache = IhpaCache(
        problem=problem,
        state=state,
        props=props,
        params=params,
        u_nominal=u0,
        du_random=du_random,
        d2u_cross=d2u_cross,
        c_nominal=c0,
        terms=products * scales,
        scales=scales,
        fea_calls=system.calls,
    )
    return cache.hard_objective(kappa), cache


_BETA_SCALE, _BETA_LO, _BETA_HI = 10.0, 1.0, 1e4


def select_beta(cache: IhpaCache) -> float:
    """Sign-smoothing sharpness: steep enough that typical terms saturate.

    beta = _BETA_SCALE / median(|term|) over the nonzero sign arguments, clamped to [_BETA_LO, _BETA_HI].
    """
    terms = np.abs(cache.terms).ravel()
    terms = terms[terms > 0]
    if terms.size == 0:
        return _BETA_LO
    middle = np.sort(terms)[(terms.size - 1) // 2:terms.size // 2 + 1]  # np.median without its numpy.ma NaN check
    return float(np.clip(_BETA_SCALE / np.mean(middle), _BETA_LO, _BETA_HI))


# ---------------------------------------------------------------------------
# Nested Monte Carlo oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McsResult:
    """Worst-case sample statistics over the interval grid.

    expectation_se = s / sqrt(N) and std_se = s / sqrt(2(N - 1)) are the
    standard errors of the sample mean and the sample std, each taken from
    the N samples (sample std s) of the outer point that set that worst case.
    The oracle's own work is the final column count of its cell and macro
    reduced bases and the full solves that built them.
    """

    expectation: float
    std: float
    n_outer: int
    n_random: int
    fea_calls: int
    resampled: int
    expectation_se: float
    std_se: float
    cell_basis: int
    cell_solves: int
    macro_basis: int
    macro_solves: int

    def objective(self, kappa: float) -> float:
        return self.expectation + kappa * self.std


# a sample's Galerkin solution must meet max |K u - f| <= RESIDUAL_CONTRACT max |f| in the full space
RESIDUAL_CONTRACT = 1e-7
# a full solution column whose Gram-Schmidt remainder is below this fraction of its norm adds no direction
_SPAN_TOL = 1e-12
# the rows of a compliance call go in blocks whose full-space residuals stay within this many bytes per scale
_BLOCK_BYTES = 32 * 2**20
# mcs_evaluate sends the samples of as many whole outer points per compliance call as fit this many rows: enough
# to spread the fixed cost of a call, few enough that an enrichment round re-solves little and memory stays flat
_GROUP_ROWS = 150


class _ReducedBasis:
    """Galerkin reduced basis of one affine family K(t) u = F(s), each sample checked by its full-space residual.

    K(t) = sum_q t_q K_q for the operators K_q (blocks (n, k) -> (n, k)) and
    F(s) = sum_p s_p F_p for the loads F_p (n, m).  The basis V is
    orthonormal and stores K_q V, V^T K_q V and V^T F_p, so a batch of
    samples costs one r x r solve each and one GEMM for all their residuals
    (Hesthaven, Rozza and Stamm, Certified Reduced Basis Methods, 2016).  A
    load column whose 2-norm is at most |s| . floors, a bound on its
    rounding floor (``homogenization.cell_loads``), is the zero load, as in
    ``solve_cell_problems``: its solution is zero.
    """

    def __init__(self, name: str, operators, loads: np.ndarray, floors: np.ndarray):
        self.name = name
        self.operators = operators
        self.loads = loads  # (P, n, m)
        self.floors = floors  # (P, m)
        n_loads, n, self.m = loads.shape
        self._f_cat = loads.transpose(1, 2, 0).reshape(n * self.m, n_loads)
        self.v = np.zeros((n, 0))
        self._kv = np.zeros((n, len(operators), 0))  # K_q V; its (n, Q r) view is the residual GEMM's left factor
        self._vkv = np.zeros((len(operators), 0, 0))
        self._vf = np.zeros((n_loads, 0, self.m))
        self.full_solves = 0

    @property
    def size(self) -> int:
        return self.v.shape[1]

    def products(self, t: np.ndarray, s: np.ndarray, full_solve) -> np.ndarray:
        """u_b^T F(s_b) (b, m, m) for the Galerkin solutions u_b of the sample rows of t (b, Q) and s (b, P).

        While a sample fails the residual contract, the full solution
        ``full_solve(i)`` (n, m) of the worst failing sample i enters the
        basis and the failing samples are solved again.  A full solution that
        adds no direction, or a sample that fails with its own full solution
        in the basis, raises NumericalError.
        """
        out = np.empty((len(t), self.m, self.m))
        pending = np.arange(len(t))
        enriched = np.zeros(len(t), dtype=bool)
        while True:
            a, f_red, error = self._galerkin(t[pending], s[pending])
            ok = error <= RESIDUAL_CONTRACT
            out[pending[ok]] = np.swapaxes(a[ok], 1, 2) @ f_red[ok]
            pending, error = pending[~ok], error[~ok]
            if pending.size == 0:
                return out
            worst = int(np.argmax(error))  # a NaN residual is the worst
            if enriched[pending].any():
                raise NumericalError(
                    f"a Monte Carlo sample fails the {self.name} residual contract with its own full solution "
                    f"in the basis: max|r| / max|f| = {np.max(error[enriched[pending]]):.3e} > {RESIDUAL_CONTRACT:g}"
                )
            enriched[pending[worst]] = True
            self.full_solves += 1
            if not self._add(full_solve(pending[worst])):
                raise NumericalError(
                    f"the full {self.name} solution of a Monte Carlo sample adds no direction to the reduced "
                    f"basis of {self.size} columns, yet its Galerkin solution has max|r| / max|f| = "
                    f"{error[worst]:.3e} > {RESIDUAL_CONTRACT:g}"
                )

    def _galerkin(self, t: np.ndarray, s: np.ndarray):
        """Reduced solutions a (b, r, m), reduced loads (b, r, m) and each sample's max|r| / max|f|."""
        (n, r), b = self.v.shape, len(t)
        f = (self._f_cat @ s.T).reshape(n, self.m, b)
        loaded = np.linalg.norm(f, axis=0) > self.floors.T @ np.abs(s).T
        f *= loaded
        f_red = (s @ self._vf.reshape(len(self._vf), -1)).reshape(b, r, self.m) * loaded.T[:, None, :]
        k_red = (t @ self._vkv.reshape(len(self._vkv), -1)).reshape(b, r, r)
        try:
            a = np.linalg.solve(k_red, f_red)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"singular reduced {self.name} system in a Monte Carlo sample: {exc}") from exc
        x = t.T[:, None, None, :] * a.transpose(1, 2, 0)  # (Q, r, m, b): row q r + i holds t_q a_i
        residual = self._kv.reshape(n, -1) @ x.reshape(-1, self.m * b) - f.reshape(n, -1)
        r_max = np.abs(residual).reshape(n * self.m, b).max(axis=0, initial=0.0)
        f_max = np.abs(f).reshape(n * self.m, b).max(axis=0, initial=0.0)
        error = np.divide(r_max, f_max, out=np.where(r_max == 0.0, 0.0, np.inf), where=f_max > 0.0)
        return a, f_red, error

    def _add(self, u: np.ndarray) -> int:
        """Append the new directions of the columns of u, orthonormalized by two Gram-Schmidt passes; count them."""
        v = self.v
        for col in u.T:
            w = col.copy()
            for _ in range(2):
                w -= v @ (v.T @ w)
            norm = np.linalg.norm(w)
            if norm > _SPAN_TOL * np.linalg.norm(col):
                v = np.column_stack([v, w / norm])
        added = v.shape[1] - self.size
        if added:
            new = v[:, self.size:]
            self._kv = np.concatenate([self._kv, np.stack([k(new) for k in self.operators], axis=1)], axis=2)
            self.v = v
            vkv = (v.T @ self._kv.reshape(len(v), -1)).reshape(self.size, -1, self.size).transpose(1, 0, 2)
            self._vkv = 0.5 * (vkv + vkv.transpose(0, 2, 1))
            self._vf = v.T @ self.loads
        return added


class BatchComplianceEvaluator:
    """Mean compliance of a fixed design and load over batches of material samples: the Monte Carlo oracle.

    Both scales are affine in a few scalars of a sample.  The periodic cell
    stiffness and loads are sums over the four phase coefficients c[p, k] of
    ``materials.phase_coefficients``; the macro dynamic stiffness is a sum over
    the entries of D_h and rho_h of the design's ``ParameterOperator``.  Each scale is
    solved by Galerkin projection on a reduced basis of full solutions
    (``_ReducedBasis``), grown greedily over the calls: the cell basis from
    ``solve_cell_problems``, the macro basis from ``factorized_dynamic``.
    No perturbation shortcut: every sample's cell correctors and macro
    displacement meet RESIDUAL_CONTRACT in the full space, or the call raises.
    """

    def __init__(self, problem: MacroProblem, state: DesignState, base_material: TwoPhaseMaterial):
        self.problem = problem
        self.base = base_material
        self.state = state.copy()
        self._operator = ParameterOperator(problem, self.state)
        cell = problem.cell
        self.ncomp = voigt_size(problem.grid.dim)
        self.eta = eta = stiffness_weights(state.x_micro, problem.penalty)
        # four stiffness/load terms {phase 1, phase 2} x {A0, A1}, in the order of the sample coefficients:
        # a per-voxel weight times one reference element matrix of a material part
        parts = _PARTS[cell.dim]
        k_parts = element_stiffness_batch(np.asarray(parts), cell.spacing)
        terms = [(wts, part, k) for wts in (eta, 1.0 - eta) for part, k in zip(parts, k_parts)]
        loads, floors = zip(*(cell_loads(cell, wts[None], part[None]) for wts, part, _ in terms))
        operators = [cell_operator(cell, k, wts) for wts, _, k in terms]
        self.cell = _ReducedBasis("cell", operators, np.array(loads), np.array(floors))
        # phase volumes for the average-stiffness part of the energy identity
        self._phase_volumes = np.array([np.sum(eta), np.sum(1.0 - eta)]) * cell.elem_volume
        self.fraction = phase1_fraction(cell, np.sum(state.x_micro))  # a sample's rho_h is its mixed_density

        # the derivative of K_d along each independent entry (c, d) of D_h, then along rho_h (-omega^2 x m)
        self._pairs = np.triu_indices(self.ncomp)
        operators = []
        for c, d in zip(*self._pairs):
            e_cd = np.zeros((self.ncomp, self.ncomp))
            e_cd[[c, d], [d, c]] = 1.0
            operators.append(lambda v, dd=e_cd: self._macro_operator(dd, 0.0, v))
        operators.append(lambda v, dd=np.zeros((self.ncomp, self.ncomp)): self._macro_operator(dd, 1.0, v))
        self.macro = _ReducedBasis("macro", operators, problem.force[problem.free][None, :, None], np.zeros((1, 1)))

    def compliance(self, names: tuple[str, ...], values: np.ndarray) -> np.ndarray:
        """Mean compliance for each parameter sample row.

        Rows are independent samples; ``mcs_evaluate`` passes those of
        several outer points in one call, and any enrichment of a basis
        serves all of them.  The rows go in the fewest near-equal blocks whose
        residuals fit in ``_BLOCK_BYTES``, so no block is a lone row when three
        rows fit: numpy forms a one-row product as a vector product, which
        rounds differently.
        """
        values = np.atleast_2d(np.asarray(values, dtype=float))
        rows = max(1, _BLOCK_BYTES // (8 * max(len(self.cell.v) * self.ncomp, len(self.macro.v))))
        blocks = np.array_split(values, -(-len(values) // rows))
        return np.concatenate([self._compliance(names, block) for block in blocks])

    def _compliance(self, names, values) -> np.ndarray:
        """Mean compliance of a block of sample rows.

        A Galerkin compliance f^T V (V^T K V)^-1 V^T f <= 0 raises SingularSystemError: only an indefinite
        K - omega^2 M gives one.  The check is one-sided: a positive compliance does not prove K - omega^2 M definite.
        """
        problem, nb = self.problem, len(values)
        material = self.base.with_values(names, values.T)
        coefs = np.broadcast_to(material.coefficients(problem.grid.dim).reshape(4, -1), (4, nb)).T
        uf = self.cell.products(coefs, coefs, lambda i: self._cell_solution(names, values[i]))

        # energy identity: D_h = (<D> - u.f) / |Y| (u solves the cell problem)
        d_avg = (self._phase_volumes @ coefs.reshape(nb, 2, 2)) @ np.reshape(_PARTS[problem.grid.dim], (2, -1))
        d_h = (d_avg.reshape(uf.shape) - uf) / problem.cell.volume
        d_h = 0.5 * (d_h + np.swapaxes(d_h, 1, 2))
        rho_h = np.broadcast_to(material.mixed_density(self.fraction), nb)

        t = np.column_stack([d_h[:, self._pairs[0], self._pairs[1]], rho_h])
        fu = self.macro.products(t, np.ones((nb, 1)), lambda i: self._macro_solution(d_h[i], rho_h[i]))
        if not np.all(fu[:, 0, 0] > 0.0):
            raise SingularSystemError(
                f"a Monte Carlo sample's macro compliance is not positive ({np.min(fu[:, 0, 0]):.6g}): the drive "
                "is at or above its first natural frequency, where minimum dynamic compliance is not defined"
            )
        return fu[:, 0, 0]

    def _cell_solution(self, names, row) -> np.ndarray:
        """Zero-mean periodic correctors (n_red, ncomp) of one sample by the full cell solver."""
        material = self.base.with_values(names, row)
        d1, d2 = (material.phase(p).elasticity(self.problem.cell.dim) for p in (1, 2))
        return solve_cell_problems(self.problem.cell, self.eta, d1, d2)

    def _macro_operator(self, dd, drho, v: np.ndarray) -> np.ndarray:
        """Free-DOF block (n_free, k) of dK_d v for free-DOF columns v and one (dD_h, drho_h) direction."""
        u = np.zeros((v.shape[1], self.problem.grid.n_dofs))
        u[:, self.problem.free] = v.T
        return self._operator(dd, drho, u)[:, self.problem.free].T

    def _macro_solution(self, d_h, rho_h) -> np.ndarray:
        """Free-DOF displacement (n_free, 1) of one sample by the banded Cholesky of its dynamic stiffness."""
        u = factorized_dynamic(self.problem, self.state, d_h, rho_h).solve(self.problem.force)
        return u[self.problem.free, None]


def _interval_corners(params: UncertainSet) -> np.ndarray:
    """Deduplicated corner grid of all (mean, std) intervals: a set holds at most six parameters, so 4,096 rows."""
    levels = [(iv.lo,) if iv.degenerate else (iv.lo, iv.hi) for p in params for iv in (p.mean, p.std)]
    return np.array(list(itertools.product(*levels)))


def _latin_hypercube(rng: np.random.Generator, n_points: int, lows, highs) -> np.ndarray:
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    dims = lows.size
    u = np.empty((n_points, dims))
    for d in range(dims):
        u[:, d] = (rng.permutation(n_points) + rng.random(n_points)) / n_points
    return lows + u * (highs - lows)


def _draw_samples(rng: np.random.Generator, names, row: np.ndarray, out: np.ndarray) -> int:
    """Fill out (n_random, n) with the normal samples of one outer point (mu, sigma interleaved); count redraws."""
    mu, sigma = row[0::2], row[1::2]
    out[...] = mu + sigma * rng.standard_normal(out.shape)
    redrawn = 0
    for _ in range(100):
        bad = ~np.all([PARAMETERS[name].admits(col) for name, col in zip(names, out.T)], axis=0)
        nbad = int(bad.sum())
        if nbad == 0:
            return redrawn
        redrawn += nbad
        out[bad] = mu + sigma * rng.standard_normal((nbad, out.shape[1]))
    raise NumericalError(
        "could not draw physical material samples after 100 redraw rounds; "
        "the sigma intervals are too wide for unbounded normal sampling"
    )


def mcs_evaluate(
    problem: MacroProblem,
    state: DesignState,
    base_material: TwoPhaseMaterial,
    params: UncertainSet,
    n_interval: int,
    n_random: int,
    seed: int,
) -> McsResult:
    """Worst-case sample mean and std of compliance over the interval grid.

    The outer loop visits every deduplicated (mu, sigma) box corner plus
    n_interval Latin hypercube points; the inner loop draws n_random normal
    samples per point.  Non-physical draws (outside the open ranges of
    ``materials.PARAMETERS``) are redrawn and counted.  Deterministic for a
    fixed seed; reductions run in a fixed order.

    The draws come in point order and evaluation uses none, so the samples
    of whole points share each ``BatchComplianceEvaluator.compliance`` call:
    the first point alone, then as many points as fit ``_GROUP_ROWS`` rows
    (at least one).
    """
    if n_interval < 2 or n_random < 2:
        raise ValueError("n_interval and n_random must both be at least 2")
    if len(params) == 0:
        raise ValueError("mcs_evaluate needs at least one hybrid parameter")
    rng = np.random.default_rng(seed)  # numpy.random loads on first use; ``io.verify`` loads it before this run
    names = params.names
    lows = [b for p in params for b in (p.mean.lo, p.std.lo)]
    highs = [b for p in params for b in (p.mean.hi, p.std.hi)]
    outer = _latin_hypercube(rng, n_interval, lows, highs)
    outer = np.vstack([_interval_corners(params), outer])

    evaluator = BatchComplianceEvaluator(problem, state, base_material)
    best_mean = -np.inf
    best_std = -np.inf
    resampled = 0
    # the first point alone, so the bases grow on its samples as when every point had a call of its own
    per_call = max(1, _GROUP_ROWS // n_random)
    edges = [0, *range(1, len(outer), per_call), len(outer)]
    thetas = np.empty((per_call * n_random, len(params)))
    for lo, hi in zip(edges[:-1], edges[1:]):
        for k, row in enumerate(outer[lo:hi]):
            resampled += _draw_samples(rng, names, row, thetas[k * n_random:(k + 1) * n_random])
        group = evaluator.compliance(names, thetas[:(hi - lo) * n_random])
        for c in group.reshape(hi - lo, n_random):
            offsets = c - c[0]  # moments of the offsets: identical samples give mean c[0] and std 0 exactly
            mean, std = float(c[0] + np.mean(offsets)), float(np.std(offsets, ddof=1))
            if mean > best_mean:
                best_mean, expectation_se = mean, std / np.sqrt(n_random)
            if std > best_std:
                best_std, std_se = std, std / np.sqrt(2.0 * (n_random - 1))
    if resampled:
        logger.info("Monte Carlo resampled %d non-physical draws", resampled)
    cell, macro = evaluator.cell, evaluator.macro
    logger.info(
        "Monte Carlo reduced bases: cell %d columns from %d full solves, macro %d columns from %d full solves",
        cell.size, cell.full_solves, macro.size, macro.full_solves,
    )
    return McsResult(
        expectation=best_mean,
        std=best_std,
        n_outer=outer.shape[0],
        n_random=n_random,
        fea_calls=outer.shape[0] * n_random,
        resampled=resampled,
        expectation_se=expectation_se,
        std_se=std_se,
        cell_basis=cell.size,
        cell_solves=cell.full_solves,
        macro_basis=macro.size,
        macro_solves=macro.full_solves,
    )
