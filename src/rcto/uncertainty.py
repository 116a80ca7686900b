"""Hybrid interval-random material uncertainty and its propagation.

A type-I hybrid parameter is a normally distributed quantity whose
expectation and standard deviation are known only as closed intervals.  The
worst-case expectation and standard deviation of the mean compliance are
estimated two ways:

* a nested first-order perturbation analysis around the midpoint means
  (one matrix factorization, 1 + 3n backsolves for n parameters), and
* a brute-force nested Monte Carlo oracle (outer loop over interval
  realizations of (mu, sigma), inner loop over normal samples) used for
  verification.

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
from .fem import element_mass, element_stiffness_batch, mean_compliance, scatter
from .homogenization import EffectiveProperties, cell_loads, cell_operator, homogenize, stiffness_weights
from .materials import _PARTS, PARAMETER_NAMES, PARAMETERS, TwoPhaseMaterial, voigt_size
from .problem import DesignState, MacroProblem, apply_parameter_operator, factorized_dynamic, stiffness_scale

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
    F.d2u_cross (the level term's derivative along the mean interval).
    """

    problem: MacroProblem
    state: DesignState
    props: EffectiveProperties
    params: UncertainSet
    u_nominal: np.ndarray
    du_random: np.ndarray    # (n, ndof) displacement derivative against the random part
    d2u_cross: np.ndarray    # (n, ndof) second-order interval/random coupling
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
    factorization at the midpoint-mean material, in three block solves: u0,
    the 2n first-order columns and the n cross terms, with the parameter
    operators applied matrix-free.  With n = 0, or every interval degenerate
    and every sigma zero, it gives the deterministic compliance (std 0).
    """
    n = len(params)
    props = homogenize(problem.cell, state.x_micro, params.mean_material(base_material), problem.penalty)
    names = params.names
    dd = np.reshape([props.d_h_derivative((name,)) for name in names], (n,) + props.d_h.shape)
    d2d = np.reshape([props.d_h_derivative((name, name)) for name in names], (n,) + props.d_h.shape)
    drho = np.array([props.rho_h_derivative((name,)) for name in names])
    d2rho = np.array([props.rho_h_derivative((name, name)) for name in names])

    system = factorized_dynamic(problem, state, props.d_h, props.rho_h)
    f = problem.force
    u0 = system.solve(f)
    c0 = mean_compliance(f, u0)
    # the interval derivative has the random one's right-hand side; the 1 + 3n count keeps both columns
    g_u0 = apply_parameter_operator(problem, state, dd, drho, u0)
    du = system.solve(-np.concatenate([g_u0, g_u0]).T).T
    du_random = du[n:]
    cross = 2.0 * apply_parameter_operator(problem, state, dd, drho, du_random)
    cross += apply_parameter_operator(problem, state, d2d, d2rho, u0)
    d2u_cross = system.solve(-cross.T).T

    scales = params.scales()
    f_du_rand = du_random @ f
    products = np.array([du[:n] @ f, f_du_rand, (d2u_cross @ f) * scales[1], f_du_rand])
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
    return float(np.clip(_BETA_SCALE / np.median(terms), _BETA_LO, _BETA_HI))


# ---------------------------------------------------------------------------
# Nested Monte Carlo oracle
# ---------------------------------------------------------------------------

_CORNER_LIMIT = 4096


@dataclass(frozen=True)
class McsResult:
    """Worst-case sample statistics over the interval grid.

    expectation_se = s / sqrt(N) and std_se = s / sqrt(2(N - 1)) are the
    standard errors of the sample mean and the sample std, each taken from
    the N samples (sample std s) of the outer point that set that worst case.
    """

    expectation: float
    std: float
    n_outer: int
    n_random: int
    fea_calls: int
    resampled: int
    expectation_se: float
    std_se: float

    def objective(self, kappa: float) -> float:
        return self.expectation + kappa * self.std


_DENSE_DOF_LIMIT = 1600  # beyond this the dense batched path would not fit in memory
# bytes of one dense chunk's sample matrices (per sample a float64 cell matrix, a macro matrix and its mass
# term); four samples fit at _DENSE_DOF_LIMIT
_DENSE_BATCH_BYTES = 256 * 2**20


def _solve_samples(k: np.ndarray, rhs: np.ndarray, system: str) -> np.ndarray:
    """Dense solve of a batch of sample systems, held to a residual of 1e-7 of the largest load entry."""
    try:
        u = np.linalg.solve(k, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"singular {system} system in a Monte Carlo sample: {exc}") from exc
    resid = np.abs(k @ u - rhs).max()
    if not np.isfinite(resid) or resid > 1e-7 * max(np.abs(rhs).max(), 1e-30):
        raise SingularSystemError(f"{system} solve failed the residual contract in a Monte Carlo sample")
    return u


class BatchComplianceEvaluator:
    """Vectorized plain-FE compliance evaluation over batches of material samples.

    The mesh, design and load are fixed; every sample performs an honest
    homogenization (batched dense periodic cell solve) followed by an honest
    macro solve.  No perturbation shortcuts: this is the oracle path.  Above
    a size limit the dense batching is replaced by per-sample sparse solves
    (same arithmetic, much slower).
    """

    def __init__(self, problem: MacroProblem, state: DesignState, base_material: TwoPhaseMaterial):
        self.problem = problem
        self.base = base_material
        self.state = state.copy()
        self.ncomp = voigt_size(problem.grid.dim)
        n_red = problem.grid.dim * problem.cell.n_elems
        self.batched = n_red <= _DENSE_DOF_LIMIT and problem.grid.n_dofs <= _DENSE_DOF_LIMIT
        if not self.batched:
            logger.info(
                "Monte Carlo evaluator falling back to per-sample sparse solves "
                "(problem too large for the dense batched path)"
            )
            return
        self._setup_cell(problem.cell, state)
        self._setup_macro(problem, state)

    def _setup_cell(self, cell, state):
        self._nf_cell = cell.dim * (cell.n_elems - 1)  # the first dim DOFs, the corner node's, are pinned
        eta = stiffness_weights(state.x_micro, self.problem.penalty)
        self._a_parts = _PARTS[cell.dim]
        # four stiffness/load basis blocks: {phase-1, phase-2} x {A0, A1}
        d_stacks = [wts[:, None, None] * part for wts in (eta, 1.0 - eta) for part in self._a_parts]
        eye = np.eye(cell.dim * cell.n_elems)
        self._cell_kb = np.array([cell_operator(cell, d)(eye)[cell.dim:, cell.dim:].ravel() for d in d_stacks])
        self._cell_fb = np.array([cell_loads(cell, d)[cell.dim:].ravel() for d in d_stacks])
        self._cell_volume = cell.volume
        # phase volumes for the average-stiffness part of the energy identity
        self._vol_eta = float(np.sum(eta) * cell.elem_volume)
        self._vol_ieta = float(np.sum(1.0 - eta) * cell.elem_volume)

    def _setup_macro(self, problem, state):
        grid = problem.grid
        s = stiffness_scale(state.x_macro, problem.penalty, state.x_min)
        pairs = [(c, d) for c in range(self.ncomp) for d in range(c, self.ncomp)]
        self._pairs = pairs
        kbas = []
        for c, d in pairs:
            e_cd = np.zeros((self.ncomp, self.ncomp))
            e_cd[[c, d], [d, c]] = 1.0
            k_e = element_stiffness_batch(s[:, None, None] * e_cd, grid.spacing)
            kbas.append(scatter(problem.pattern, k_e).toarray().ravel())
        self._macro_kbas = np.array(kbas)
        m_e = state.x_macro[:, None, None] * element_mass(1.0, grid.spacing)
        self._macro_mbas = scatter(problem.pattern, m_e).toarray().ravel()
        self._f_free = problem.force[problem.free]
        self._nf = problem.free.size
        self._phase1_volume_fraction = float(
            np.sum(state.x_micro) * problem.cell.elem_volume / problem.cell.volume
        )

    def compliance(self, names: tuple[str, ...], values: np.ndarray) -> np.ndarray:
        """Mean compliance for each parameter sample row (honest FE re-solves).

        The dense path solves the fewest near-equal chunks of rows that fit in
        ``_DENSE_BATCH_BYTES``, so no chunk is a lone row when four rows fit:
        numpy forms a one-row product as a vector product, which rounds differently.
        """
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if not self.batched:
            return self._compliance_plain(names, values)
        rows = max(1, _DENSE_BATCH_BYTES // (8 * (self._nf_cell**2 + 2 * self._nf**2)))
        chunks = np.array_split(values, -(-len(values) // rows))
        return np.concatenate([self._compliance_dense(names, chunk) for chunk in chunks])

    def _compliance_dense(self, names, values) -> np.ndarray:
        material = self.base.with_values(names, values.T)
        nb = values.shape[0]
        c = np.broadcast_to(material.coefficients(self.problem.grid.dim).reshape(2, 2, -1), (2, 2, nb))
        coefs = c.reshape(4, nb).T.copy()  # columns: phase 1 A0, A1, phase 2 A0, A1

        nfree_c = self._nf_cell
        k_cell = (coefs @ self._cell_kb).reshape(nb, nfree_c, nfree_c)
        f_cell = (coefs @ self._cell_fb).reshape(nb, nfree_c, self.ncomp)
        u_cell = _solve_samples(k_cell, f_cell, "cell")

        # energy identity: D_h = <D> - u.f / |Y| (u solves the cell problem)
        a0, a1 = self._a_parts
        avg0 = coefs[:, 0] * self._vol_eta + coefs[:, 2] * self._vol_ieta
        avg1 = coefs[:, 1] * self._vol_eta + coefs[:, 3] * self._vol_ieta
        d_avg = avg0[:, None, None] * a0 + avg1[:, None, None] * a1
        uf = np.einsum("bir,bic->brc", u_cell, f_cell)
        d_h = (d_avg - uf) / self._cell_volume
        d_h = 0.5 * (d_h + d_h.transpose(0, 2, 1))
        rho1, rho2 = material.phase1.density, material.phase2.density
        rho_h = np.broadcast_to(rho2 + (rho1 - rho2) * self._phase1_volume_fraction, nb)

        d_cols = np.stack([d_h[:, c, d] for (c, d) in self._pairs], axis=1)
        k_macro = (d_cols @ self._macro_kbas).reshape(nb, self._nf, self._nf)
        k_macro -= (self.problem.omega**2 * rho_h)[:, None, None] * self._macro_mbas.reshape(self._nf, self._nf)
        rhs = np.repeat(self._f_free[None, :, None], nb, axis=0)
        return _solve_samples(k_macro, rhs, "macro")[..., 0] @ self._f_free

    def _compliance_plain(self, names, values) -> np.ndarray:
        out = np.empty(values.shape[0])
        for b, row in enumerate(values):
            material = self.base.with_values(names, row)
            props = homogenize(self.problem.cell, self.state.x_micro, material, self.problem.penalty)
            system = factorized_dynamic(self.problem, self.state, props.d_h, props.rho_h)
            out[b] = mean_compliance(self.problem.force, system.solve(self.problem.force))
        return out


def _interval_corners(params: UncertainSet) -> np.ndarray | None:
    """Deduplicated corner grid of all (mean, std) intervals, or None above the limit."""
    levels = []
    count = 1
    for p in params:
        for iv in (p.mean, p.std):
            vals = (iv.lo,) if iv.degenerate else (iv.lo, iv.hi)
            levels.append(vals)
            count *= len(vals)
            if count > _CORNER_LIMIT:
                return None
    if not levels:
        return None
    return np.array(list(itertools.product(*levels)))


def _latin_hypercube(rng: np.random.Generator, n_points: int, lows, highs) -> np.ndarray:
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    dims = lows.size
    u = np.empty((n_points, dims))
    for d in range(dims):
        u[:, d] = (rng.permutation(n_points) + rng.random(n_points)) / n_points
    return lows + u * (highs - lows)


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

    The outer loop visits every deduplicated (mu, sigma) box corner (when the
    corner count is tractable) plus n_interval Latin hypercube points; the
    inner loop draws n_random normal samples per point.  Non-physical draws
    (outside the open ranges of ``materials.PARAMETERS``) are redrawn and
    counted.  Deterministic for a fixed seed; reductions run in a fixed order.
    """
    if n_interval < 2 or n_random < 2:
        raise ValueError("n_interval and n_random must both be at least 2")
    if len(params) == 0:
        raise ValueError("mcs_evaluate needs at least one hybrid parameter")
    rng = np.random.default_rng(seed)
    names = params.names
    lows = [b for p in params for b in (p.mean.lo, p.std.lo)]
    highs = [b for p in params for b in (p.mean.hi, p.std.hi)]
    outer = _latin_hypercube(rng, n_interval, lows, highs)
    corners = _interval_corners(params)
    if corners is not None:
        outer = np.vstack([corners, outer])

    evaluator = BatchComplianceEvaluator(problem, state, base_material)
    n = len(params)
    best_mean = -np.inf
    best_std = -np.inf
    resampled = 0
    calls = 0
    for row in outer:
        mu = row[0::2]
        sigma = row[1::2]
        z = rng.standard_normal((n_random, n))
        thetas = mu + sigma * z
        for _ in range(100):
            bad = ~np.all([PARAMETERS[name].admits(col) for name, col in zip(names, thetas.T)], axis=0)
            nbad = int(bad.sum())
            if nbad == 0:
                break
            resampled += nbad
            thetas[bad] = mu + sigma * rng.standard_normal((nbad, n))
        else:
            raise NumericalError(
                "could not draw physical material samples after 100 redraw rounds; "
                "the sigma intervals are too wide for unbounded normal sampling"
            )
        c = evaluator.compliance(names, thetas)
        calls += n_random
        offsets = c - c[0]  # moments of the offsets: identical samples give mean c[0] and std 0 exactly
        mean, std = float(c[0] + np.mean(offsets)), float(np.std(offsets, ddof=1))
        if mean > best_mean:
            best_mean, expectation_se = mean, std / np.sqrt(n_random)
        if std > best_std:
            best_std, std_se = std, std / np.sqrt(2.0 * (n_random - 1))
    if resampled:
        logger.info("Monte Carlo resampled %d non-physical draws", resampled)
    return McsResult(
        expectation=best_mean,
        std=best_std,
        n_outer=outer.shape[0],
        n_random=n_random,
        fea_calls=calls,
        resampled=resampled,
        expectation_se=expectation_se,
        std_se=std_se,
    )
