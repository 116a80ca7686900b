"""Sensitivity numbers on both scales, from the cached perturbation vectors.

Every term reduces to per-element bilinear forms v^T (dK_d/dx) w between
cached solution vectors, evaluated without forming any explicit inverse:
differentiating K_d^-1 produces -K_d^-1 (dK_d/dx) K_d^-1 and the outer
factors collapse onto already-solved vectors.  Each pair (u, v) of cached
vectors yields one per-element strain moment int eps_u eps_v^T dA.  Macro
design derivatives are local to one element and contract that moment with a
D matrix.  Micro (voxel) derivatives act through the homogenized properties:
the stiffness-weighted sum of the moment over all macro elements meets the
cell-energy basis once, giving two numbers per voxel, and every material
kernel (D1 - D2 and its parameter derivatives) is a pair of phase
coefficients dotted with them.

``robust_sensitivity`` differentiates the worst-case objective with
tanh-smoothed sign factors, a true gradient of a differentiable surrogate.
It is the optimizer's only sensitivity: with n = 0 (deterministic CTO), or
all widths and sigmas zero, it is the compliance sensitivity, which
``deterministic_sensitivity`` computes directly as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .errors import NormalizationError
from .fem import StructuredGrid, strain_operators
from .homogenization import EffectiveProperties, stiffness_weights
from .problem import DesignState, MacroProblem, element_strains, stiffness_scale, stiffness_scale_derivative
from .uncertainty import IhpaCache, select_beta


@dataclass
class SensitivityField:
    """Per-element sensitivity numbers for both scales."""

    macro: np.ndarray
    micro: np.ndarray

    def copy(self) -> "SensitivityField":
        return SensitivityField(self.macro.copy(), self.micro.copy())


def smooth_sign(f, beta: float):
    """tanh-smoothed sign of f: returns (value, d(value)/df)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    t = np.tanh(beta * np.asarray(f, dtype=float))
    return t, beta * (1.0 - t * t)


def _term_derivative(f: float, fprime, beta: float):
    """d/dx of f(x) * S(f(x)) with the smoothed sign S."""
    t = np.tanh(beta * f)
    return fprime * (t + beta * f * (1.0 - t * t))


class _Pair:
    """Moments of one pair (u, v) of displacement fields, read by both the macro and the micro forms."""

    def __init__(self, ctx: "_FormContext", u, eps_u, v, eps_v):
        # per macro element: int eps_u eps_v^T dA, flattened to (n_elems, ncomp^2)
        self.strain = (np.swapaxes(eps_u * ctx.w_macro[:, None], 1, 2) @ eps_v).reshape(len(eps_u), -1)
        self.mass = ctx.mass_pair(u, v)
        self.mass_x = float(np.dot(ctx.state.x_macro, self.mass))
        # per voxel and material part: the stiffness-weighted macro moment against the cell-energy basis
        self.voxel = (ctx.basis @ (ctx.s @ self.strain)).reshape(-1, 2)


class _FormContext:
    """Shared per-evaluation machinery for the element bilinear forms."""

    def __init__(self, problem: MacroProblem, state: DesignState, props: EffectiveProperties):
        self.problem = problem
        self.state = state
        self.props = props
        grid = problem.grid
        _, nmat, w = strain_operators(grid.spacing)
        self.w_macro = w
        self.m_unit = np.einsum("q,qde,qdf->ef", w, nmat, nmat)
        self.s = stiffness_scale(state.x_macro, problem.penalty, state.x_min)
        self.sprime = stiffness_scale_derivative(state.x_macro, problem.penalty, state.x_min)
        self.omega2 = problem.omega**2
        self.basis = props.basis.reshape(2 * props.grid.n_elems, -1)
        self.delta_rho = props.delta_rho_derivative(())
        self.voxel_scale = props.voxel_volume / props.cell_volume
        self.micro_stiff_scale = (
            problem.penalty * stiffness_weights(state.x_micro, problem.penalty - 1.0) / props.cell_volume
        )

    def mass_pair(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        dofs = self.problem.grid.elem_dofs
        return np.sum((u[dofs] @ self.m_unit) * v[dofs], axis=1)

    def delta_coefficients(self, wrt: tuple[str, ...]) -> np.ndarray:
        """c[0] - c[1]: the (D1 - D2) kernel of micro design derivatives, or its parameter derivative."""
        c = self.props.material.coefficients(self.props.dim, wrt)
        return c[0] - c[1]

    def macro_form(self, pair: _Pair, cmat, drho) -> np.ndarray:
        """Per macro element: v^T (d/dx_a of the theta-derivative block) u."""
        out = self.sprime * (pair.strain @ cmat.ravel())
        if self.omega2 != 0.0 and drho != 0.0:
            out = out - self.omega2 * drho * pair.mass
        return out

    def micro_form(self, pair: _Pair, cdelta, drho_delta) -> np.ndarray:
        """Per voxel: v^T (d/dx_i of the theta-derivative block) u."""
        out = self.micro_stiff_scale * (pair.voxel @ cdelta)
        if self.omega2 != 0.0 and drho_delta != 0.0:
            out = out - self.omega2 * self.voxel_scale * drho_delta * pair.mass_x
        return out


def deterministic_sensitivity(
    problem: MacroProblem,
    state: DesignState,
    props: EffectiveProperties,
    u: np.ndarray,
) -> SensitivityField:
    """Discrete sensitivity numbers -(1/p) dC/dx on both scales for one displacement field.

    Static case (omega = 0) gives nonnegative macro numbers; a cell whose
    phases coincide has a vanishing micro stiffness term.
    """
    ctx = _FormContext(problem, state, props)
    p = problem.penalty
    eps = element_strains(problem.grid, u)
    pair = _Pair(ctx, u, eps, u, eps)
    macro = ctx.macro_form(pair, props.d_h, props.rho_h) / p
    micro = ctx.micro_form(pair, ctx.delta_coefficients(()), ctx.delta_rho) / p
    return SensitivityField(macro, micro)


def robust_sensitivity(cache: IhpaCache, kappa: float, beta: float | None = None) -> SensitivityField:
    """Sensitivity of the worst-case objective, from the cached perturbation vectors.

    Raises if the cache lacks the solution vectors (they are produced by
    ihpa_evaluate and must match the current design).
    """
    if cache.u_nominal is None:
        raise ValueError("missing hybrid perturbation cache")
    if beta is None:
        beta = select_beta(cache)
    problem, state, props, params = cache.problem, cache.state, cache.props, cache.params
    ctx = _FormContext(problem, state, props)
    p = problem.penalty
    n = len(params)

    u0 = cache.u_nominal
    eps0 = element_strains(problem.grid, u0)
    p00 = _Pair(ctx, u0, eps0, u0, eps0)
    d_h, rho_h = props.d_h, props.rho_h
    delta_c = ctx.delta_coefficients(())

    # F^T dU0/dx per macro element and per voxel
    d_obj_macro = -ctx.macro_form(p00, d_h, rho_h)
    d_obj_micro = -ctx.micro_form(p00, delta_c, ctx.delta_rho)
    dsd_macro = np.zeros_like(d_obj_macro)
    dsd_micro = np.zeros_like(d_obj_micro)

    for j in range(n):
        name = params[j].name
        dd_j = cache.dd[j]
        d2d_j = cache.d2d[j]
        drho_j = cache.drho[j]
        ddelta_j = ctx.delta_coefficients((name,))
        d2delta_j = ctx.delta_coefficients((name, name))
        ddelta_rho_j = props.delta_rho_derivative((name,))

        v = cache.du_random[j]
        wvec = cache.d2u_cross[j]
        eps_v = element_strains(problem.grid, v)
        pv0 = _Pair(ctx, v, eps_v, u0, eps0)
        pw0 = _Pair(ctx, wvec, element_strains(problem.grid, wvec), u0, eps0)
        pvv = _Pair(ctx, v, eps_v, v, eps_v)

        # the density is linear in every parameter, so the second-derivative forms carry no mass term
        d_du_macro = -2.0 * ctx.macro_form(pv0, d_h, rho_h) - ctx.macro_form(p00, dd_j, drho_j)
        d_d2u_macro = (
            -2.0 * ctx.macro_form(pw0, d_h, rho_h)
            - 2.0 * ctx.macro_form(pvv, d_h, rho_h)
            - 4.0 * ctx.macro_form(pv0, dd_j, drho_j)
            - ctx.macro_form(p00, d2d_j, 0.0)
        )
        d_du_micro = (
            -2.0 * ctx.micro_form(pv0, delta_c, ctx.delta_rho) - ctx.micro_form(p00, ddelta_j, ddelta_rho_j)
        )
        d_d2u_micro = (
            -2.0 * ctx.micro_form(pw0, delta_c, ctx.delta_rho)
            - 2.0 * ctx.micro_form(pvv, delta_c, ctx.delta_rho)
            - 4.0 * ctx.micro_form(pv0, ddelta_j, ddelta_rho_j)
            - ctx.micro_form(p00, d2delta_j, 0.0)
        )

        dmu = cache.mean_dev[j]
        smid = cache.sigma_mid[j]
        sdev = cache.sigma_dev[j]
        for d_obj, dsd, d_du, d_d2u in (
            (d_obj_macro, dsd_macro, d_du_macro, d_d2u_macro),
            (d_obj_micro, dsd_micro, d_du_micro, d_d2u_micro),
        ):
            d_obj += _term_derivative(cache.mean_terms[j], d_du * dmu, beta)
            dsd += _term_derivative(cache.std_level_terms[j], d_du * smid, beta)
            dsd += _term_derivative(cache.std_shift_terms[j], d_d2u * smid * dmu, beta)
            dsd += _term_derivative(cache.std_width_terms[j], d_du * sdev, beta)

    alpha_macro = -(d_obj_macro + kappa * dsd_macro) / p
    alpha_micro = -(d_obj_micro + kappa * dsd_micro) / p
    return SensitivityField(alpha_macro, alpha_micro)


def normalize(
    field: SensitivityField,
    problem: MacroProblem,
    state: DesignState,
    props: EffectiveProperties,
) -> SensitivityField:
    """Sensitivity per unit mass, making the two scales directly comparable.

    The macro weight derivative is V_a rho_h; the micro one is
    (V_i/|Y|)(rho1 - rho2) sum_a x_a V_a.  Vanishing derivatives mean the
    scales cannot be ranked together and are rejected.
    """
    v_a = problem.grid.elem_volume
    dm_macro = v_a * props.rho_h
    dm_micro = (
        props.voxel_volume / props.cell_volume
        * props.delta_rho_derivative(())
        * float(np.sum(state.x_macro) * v_a)
    )
    scale = abs(props.rho_h) + abs(props.delta_rho_derivative(()))
    if abs(dm_macro) <= 1e-300 or abs(dm_micro) <= 1e-12 * scale * v_a:
        raise NormalizationError(
            "scales not comparable: weight derivative vanishes "
            f"(macro {dm_macro:.3e}, micro {dm_micro:.3e}); needs rho_h > 0 and rho1 > rho2"
        )
    return SensitivityField(field.macro / dm_macro, field.micro / dm_micro)


class SensitivityFilter:
    """Mesh-independence filter: distance-weighted average over an r_min disk.

    Weights are w = r_min - r (nonnegative, self weight r_min).  The micro
    filter wraps periodically across the cell faces, consistent with the
    periodic homogenization.
    """

    def __init__(self, grid: StructuredGrid, r_min: float, periodic: bool = False):
        if r_min <= 0:
            raise ValueError("filter radius must be positive")
        self.r_min = float(r_min)
        pts = grid.centroids
        if periodic:
            box = np.array([n * h for n, h in zip(grid.shape, grid.spacing)])
            if np.any(self.r_min >= box / 2.0):
                raise ValueError("periodic filter radius must be below half the cell size")
            tree = cKDTree(np.mod(pts, box), boxsize=box)
        else:
            tree = cKDTree(pts)
        pairs = tree.query_pairs(self.r_min, output_type="ndarray")
        dists = np.linalg.norm(_pair_delta(pts, pairs, grid, periodic), axis=1)
        rows = np.concatenate([pairs[:, 0], pairs[:, 1], np.arange(len(pts))])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0], np.arange(len(pts))])
        wts = np.concatenate([self.r_min - dists, self.r_min - dists, np.full(len(pts), self.r_min)])
        self._w = sp.coo_matrix((wts, (rows, cols)), shape=(len(pts), len(pts))).tocsr()
        self._wsum = np.asarray(self._w.sum(axis=1)).ravel()

    def apply(self, field: np.ndarray) -> np.ndarray:
        return (self._w @ field) / self._wsum


def _pair_delta(pts, pairs, grid, periodic):
    delta = pts[pairs[:, 0]] - pts[pairs[:, 1]]
    if periodic:
        box = np.array([n * h for n, h in zip(grid.shape, grid.spacing)])
        delta = delta - box * np.round(delta / box)
    return delta


def history_average(current: SensitivityField, previous: SensitivityField | None) -> SensitivityField:
    """Average with the previous iteration to stabilize the discrete update."""
    if previous is None:
        return current
    return SensitivityField(
        0.5 * (current.macro + previous.macro), 0.5 * (current.micro + previous.micro)
    )

