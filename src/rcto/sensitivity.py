"""Sensitivity numbers on both scales, for the deterministic and robust objectives.

Every term reduces to per-element bilinear forms v^T (dK_d/dx) w between
cached solution vectors, evaluated without forming any explicit inverse:
differentiating K_d^-1 produces -K_d^-1 (dK_d/dx) K_d^-1 and the outer
factors collapse onto already-solved vectors.  Macro design derivatives are
local to one element; micro (voxel) derivatives act through the homogenized
properties and therefore reduce over all macro elements once, leaving an
O(voxels) pass.

The robust branch differentiates the worst-case objective with tanh-smoothed
sign factors so the result is a true gradient of a differentiable surrogate;
with all interval widths and sigmas zero it collapses to the deterministic
sensitivity exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import NormalizationError
from .fem import StructuredGrid, strain_operators
from .homogenization import EffectiveProperties, stiffness_weights
from .problem import DesignState, MacroProblem, stiffness_scale, stiffness_scale_derivative
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


def element_strains(grid: StructuredGrid, u: np.ndarray) -> np.ndarray:
    """Gauss-point strains of a displacement vector, per element: (n_elems, nq, ncomp)."""
    b, _, _ = strain_operators(grid.spacing)
    return np.einsum("qce,ae->aqc", b, u[grid.elem_dofs])


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
        self.delta_rho = props.delta_rho_derivative(())
        self.voxel_scale = props.voxel_volume / props.cell_volume
        self.micro_stiff_scale = (
            problem.penalty * stiffness_weights(state.x_micro, problem.penalty - 1.0) / props.cell_volume
        )

    def strains(self, u: np.ndarray) -> np.ndarray:
        return element_strains(self.problem.grid, u)

    def mass_pair(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        dofs = self.problem.grid.elem_dofs
        return np.einsum("ae,ef,af->a", u[dofs], self.m_unit, v[dofs])

    def energy_pair(self, eps_u: np.ndarray, eps_v: np.ndarray, cmat: np.ndarray) -> np.ndarray:
        return np.einsum("q,aqc,cd,aqd->a", self.w_macro, eps_u, cmat, eps_v)

    def macro_form(self, eps_u, eps_v, m_uv, cmat, drho) -> np.ndarray:
        """Per macro element: v^T (d/dx_a of the theta-derivative block) u."""
        out = self.sprime * self.energy_pair(eps_u, eps_v, cmat)
        if self.omega2 != 0.0 and drho != 0.0:
            out = out - self.omega2 * drho * m_uv
        return out

    def micro_reduction(self, eps_u, eps_v) -> np.ndarray:
        """Stiffness-weighted macro strain moment sum_a s_a int eps_u eps_v^T dA."""
        return np.einsum("a,q,aqc,aqd->cd", self.s, self.w_macro, eps_u, eps_v)

    def micro_voxel_energy(self, moment: np.ndarray) -> np.ndarray:
        """Per-voxel contraction kernel: feed any (D1 - D2)-type matrix into it."""
        g = self.props.g
        return np.einsum("q,iqcr,rs,iqds->icd", self.props.gauss_w, g, moment, g, optimize=True)

    def micro_form(self, voxel_energy, mass_x, cdelta, drho_delta) -> np.ndarray:
        """Per voxel: v^T (d/dx_i of the theta-derivative block) u."""
        out = self.micro_stiff_scale * np.einsum("icd,cd->i", voxel_energy, cdelta)
        if self.omega2 != 0.0 and drho_delta != 0.0:
            out = out - self.omega2 * self.voxel_scale * drho_delta * mass_x
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
    eps = ctx.strains(u)
    m_uu = ctx.mass_pair(u, u)
    macro = (ctx.sprime * ctx.energy_pair(eps, eps, props.d_h) - ctx.omega2 * props.rho_h * m_uu) / p

    moment = ctx.micro_reduction(eps, eps)
    voxel = ctx.micro_voxel_energy(moment)
    mass_x = float(np.dot(state.x_macro, m_uu))
    micro = (
        ctx.micro_stiff_scale * np.einsum("icd,cd->i", voxel, props.delta_d_derivative(()))
        - ctx.omega2 * ctx.voxel_scale * ctx.delta_rho * mass_x
    ) / p
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

    eps0 = ctx.strains(cache.u_nominal)
    m00 = ctx.mass_pair(cache.u_nominal, cache.u_nominal)
    d_h, rho_h = props.d_h, props.rho_h
    delta_d = props.delta_d_derivative(())

    # macro: F^T dU0/dx_a per element
    ax_00 = ctx.macro_form(eps0, eps0, m00, d_h, rho_h)
    d_c0_macro = -ax_00
    # micro counterparts share the reduced strain moments
    mom_00 = ctx.micro_reduction(eps0, eps0)
    vox_00 = ctx.micro_voxel_energy(mom_00)
    mass_x00 = float(np.dot(state.x_macro, m00))
    ax_00_mic = ctx.micro_form(vox_00, mass_x00, delta_d, ctx.delta_rho)
    d_c0_micro = -ax_00_mic

    d_obj_macro = d_c0_macro.copy()
    d_obj_micro = d_c0_micro.copy()
    dsd_macro = np.zeros_like(d_c0_macro)
    dsd_micro = np.zeros_like(d_c0_micro)

    for j in range(n):
        name = params[j].name
        dd_j = cache.dd_list[j]
        d2d_j = cache.d2d_list[j]
        drho_j = cache.drho_list[j]
        ddelta_j = props.delta_d_derivative((name,))
        d2delta_j = props.delta_d_derivative((name, name))
        ddelta_rho_j = props.delta_rho_derivative((name,))

        v = cache.du_random[j]
        wvec = cache.d2u_cross[j]
        eps_v = ctx.strains(v)
        eps_w = ctx.strains(wvec)
        m_v0 = ctx.mass_pair(v, cache.u_nominal)
        m_w0 = ctx.mass_pair(wvec, cache.u_nominal)
        m_vv = ctx.mass_pair(v, v)

        # macro element forms
        ax_v0 = ctx.macro_form(eps_v, eps0, m_v0, d_h, rho_h)
        ax_w0 = ctx.macro_form(eps_w, eps0, m_w0, d_h, rho_h)
        ax_vv = ctx.macro_form(eps_v, eps_v, m_vv, d_h, rho_h)
        gx_00 = ctx.macro_form(eps0, eps0, m00, dd_j, drho_j)
        gx_v0 = ctx.macro_form(eps_v, eps0, m_v0, dd_j, drho_j)
        hx_00 = ctx.sprime * ctx.energy_pair(eps0, eps0, d2d_j)

        d_du_macro = -2.0 * ax_v0 - gx_00
        d_d2u_macro = -2.0 * ax_w0 - 2.0 * ax_vv - 4.0 * gx_v0 - hx_00

        # micro voxel forms (same reductions, voxel-level kernels)
        mom_v0 = ctx.micro_reduction(eps_v, eps0)
        mom_w0 = ctx.micro_reduction(eps_w, eps0)
        mom_vv = ctx.micro_reduction(eps_v, eps_v)
        vox_v0 = ctx.micro_voxel_energy(mom_v0)
        vox_w0 = ctx.micro_voxel_energy(mom_w0)
        vox_vv = ctx.micro_voxel_energy(mom_vv)
        mass_xv0 = float(np.dot(state.x_macro, m_v0))
        mass_xw0 = float(np.dot(state.x_macro, m_w0))
        mass_xvv = float(np.dot(state.x_macro, m_vv))

        ax_v0_mic = ctx.micro_form(vox_v0, mass_xv0, delta_d, ctx.delta_rho)
        ax_w0_mic = ctx.micro_form(vox_w0, mass_xw0, delta_d, ctx.delta_rho)
        ax_vv_mic = ctx.micro_form(vox_vv, mass_xvv, delta_d, ctx.delta_rho)
        gx_00_mic = ctx.micro_form(vox_00, mass_x00, ddelta_j, ddelta_rho_j)
        gx_v0_mic = ctx.micro_form(vox_v0, mass_xv0, ddelta_j, ddelta_rho_j)
        hx_00_mic = ctx.micro_stiff_scale * np.einsum("icd,cd->i", vox_00, d2delta_j)

        d_du_micro = -2.0 * ax_v0_mic - gx_00_mic
        d_d2u_micro = -2.0 * ax_w0_mic - 2.0 * ax_vv_mic - 4.0 * gx_v0_mic - hx_00_mic

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
        import scipy.sparse as sp

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

