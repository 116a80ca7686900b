"""Sensitivity numbers on both scales, from the cached perturbation vectors.

Every term reduces to per-element bilinear forms v^T (dK_d/dx) w between
cached solution vectors, evaluated without forming any explicit inverse:
differentiating K_d^-1 produces -K_d^-1 (dK_d/dx) K_d^-1 and the outer
factors collapse onto already-solved vectors.  Each pair (u, v) of cached
vectors yields one per-element strain moment int eps_u eps_v^T dA and one
mass moment, both formed along the element axis: the strains are the
(nq, ncomp, n_elems) blocks of ``element_strains`` and the moment is
(ncomp^2, n_elems), so each per-element sum is a pass over contiguous
element rows, not n_elems tiny matrix products.  One form reads a pair on
both scales for a material kernel (``TwoPhaseMaterial.kernel``): the phase
coefficients on A0, A1 and the phase densities, or any of their parameter
derivatives.  Macro design derivatives are local to one element and
contract the moment with the kernel's (D, rho) from
``EffectiveProperties.properties``.  Micro (voxel) derivatives act through
the homogenized properties: the stiffness-weighted sum of the moment over
all macro elements meets the cell-energy basis once, giving two numbers per
voxel that the kernel's phase difference weighs.  The form is linear in the
pair and in the kernel, so a weighted sum of kernels on one pair costs one
form.

``robust_sensitivity`` differentiates the worst-case objective with
tanh-smoothed sign factors: the smoothed objective's weights on F.du_j and
F.d2u_j applied to 2n + 2 pair moments.  On the macro scale that is its
gradient.  On the micro scale the parameter-derivative kernels (k_j, k_jj)
hold the cell correctors fixed, exact only for D_h itself: on
cantilever(4, 2) that is 0.26 % off at 30 kHz and 0.15 % off at 120 Hz, and
the exact form needs an adjoint cell solve.  With n = 0 (deterministic
CTO) it is the compliance sensitivity, which ``deterministic_sensitivity``
computes from one displacement field, the reference of the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError
from .fem import StructuredGrid, element_mass, strain_operators
from .homogenization import EffectiveProperties, stiffness_weights
from .problem import (
    DesignState,
    MacroProblem,
    element_strains,
    stiffness_scale,
    stiffness_scale_derivative,
    weight_gradient,
)
from .uncertainty import IhpaCache, select_beta


@dataclass
class SensitivityField:
    """Per-element sensitivity numbers for both scales."""

    macro: np.ndarray
    micro: np.ndarray


class _Pair:
    """Moments of one pair (u, v) of displacement fields, read by both the macro and the micro forms.

    eps_u and eps_v are the fields' ``element_strains`` (nq, ncomp, n_elems),
    elements fastest.  The strain moment int eps_u eps_v^T dA of every macro
    element is (ncomp^2, n_elems): row (c, d) sums w_q eps_u[q, c] eps_v[q, d]
    over the Gauss points q along the element axis, one ``einsum`` per c.
    """

    def __init__(self, ctx: "_FormContext", u, eps_u, v, eps_v):
        ncomp = eps_u.shape[1]
        eps_w = eps_u * ctx.w_macro[:, None, None]
        strain = np.empty((ncomp, ncomp, eps_u.shape[-1]))
        for c in range(ncomp):
            np.einsum("qe,qde->de", eps_w[:, c], eps_v, out=strain[c])
        self.strain = strain.reshape(ncomp * ncomp, -1)
        self.mass = ctx.mass_pair(u, v)
        self.mass_x = float(np.dot(ctx.state.x_macro, self.mass))
        # per voxel and material part: the stiffness-weighted macro moment against the cell-energy basis
        self.voxel = (ctx.basis @ (self.strain @ ctx.s)).reshape(-1, 2)


class _FormContext:
    """Shared per-evaluation machinery for the element bilinear forms."""

    def __init__(self, problem: MacroProblem, state: DesignState, props: EffectiveProperties):
        self.problem = problem
        self.state = state
        self.props = props
        grid = problem.grid
        self.w_macro = strain_operators(grid.spacing)[2]
        self.m_unit = element_mass(1.0, grid.spacing)
        self.s = stiffness_scale(state.x_macro, problem.penalty, state.x_min)
        self.sprime = stiffness_scale_derivative(state.x_macro, problem.penalty, state.x_min)
        self.omega2 = problem.omega**2
        self.basis = props.basis.reshape(2 * props.grid.n_elems, -1)
        self.voxel_scale = props.grid.elem_volume / props.grid.volume
        self.micro_stiff_scale = (
            problem.penalty * stiffness_weights(state.x_micro, problem.penalty - 1.0) / props.grid.volume
        )

    def mass_pair(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """int u^T m v per macro element: (m @ U) * V summed over the element DOFs, elements fastest."""
        dofs = self.problem.grid.elem_dofs.T
        return np.sum((self.m_unit @ u[dofs]) * v[dofs], axis=0)

    def form(self, pair: _Pair, kernel: np.ndarray) -> SensitivityField:
        """v^T (dK_d/dx) u per macro element and per voxel, with the phase properties replaced by kernel."""
        d, rho = self.props.properties(kernel)
        macro = self.sprime * (d.ravel() @ pair.strain) - self.omega2 * rho * pair.mass
        delta = kernel[0] - kernel[1]
        micro = self.micro_stiff_scale * (pair.voxel @ delta[:2])
        micro = micro - self.omega2 * self.voxel_scale * delta[2] * pair.mass_x
        return SensitivityField(macro, micro)


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
    eps = element_strains(problem.grid, u)
    field = ctx.form(_Pair(ctx, u, eps, u, eps), props.material.kernel(problem.grid.dim))
    return SensitivityField(field.macro / problem.penalty, field.micro / problem.penalty)


def robust_sensitivity(cache: IhpaCache, kappa: float, beta: float | None = None) -> SensitivityField:
    """Sensitivity of the smoothed worst-case objective, from the cached perturbation vectors.

    With the weights (a, b) of ``IhpaCache.smooth_weights``, the kernels k0
    of D_h, k_j of dD_h/dtheta_j and k_jj of d2D_h/dtheta_j2, v_j =
    du_random[j] and w_j = d2u_cross[j], it is (1/p) times
    form(u0, u0; k0 + sum_j a_j k_j + b_j k_jj) + form(2 sum_j (a_j v_j + b_j w_j), u0; k0)
    + sum_j b_j (2 form(v_j, v_j; k0) + 4 form(v_j, u0; k_j)): 2n + 2 pair moments, 1 for n = 0.
    """
    if beta is None:
        beta = select_beta(cache)
    problem, grid = cache.problem, cache.problem.grid
    ctx = _FormContext(problem, cache.state, cache.props)
    a, b = cache.smooth_weights(kappa, beta)
    material, names = cache.props.material, cache.params.names
    k0 = material.kernel(grid.dim)
    k1 = np.reshape([material.kernel(grid.dim, (name,)) for name in names], (-1,) + k0.shape)
    k2 = np.reshape([material.kernel(grid.dim, (name, name)) for name in names], (-1,) + k0.shape)

    u0 = cache.u_nominal
    eps0 = element_strains(grid, u0)
    total = ctx.form(_Pair(ctx, u0, eps0, u0, eps0), k0 + np.tensordot(a, k1, 1) + np.tensordot(b, k2, 1))

    def add(field: SensitivityField):  # one running field, summed in the order the forms are listed here
        total.macro += field.macro
        total.micro += field.micro

    if len(cache.params):
        z = 2.0 * (a @ cache.du_random + b @ cache.d2u_cross)
        add(ctx.form(_Pair(ctx, z, element_strains(grid, z), u0, eps0), k0))
    for j, v in enumerate(cache.du_random):
        eps_v = element_strains(grid, v)
        add(ctx.form(_Pair(ctx, v, eps_v, v, eps_v), 2.0 * b[j] * k0))
        add(ctx.form(_Pair(ctx, v, eps_v, u0, eps0), 4.0 * b[j] * k1[j]))
    p = problem.penalty
    return SensitivityField(total.macro / p, total.micro / p)


def normalize(
    field: SensitivityField,
    problem: MacroProblem,
    state: DesignState,
    props: EffectiveProperties,
) -> SensitivityField:
    """Sensitivity per unit mass, making the two scales directly comparable.

    Each scale divides by its derivative of the design weight,
    ``problem.weight_gradient`` at props.rho_h.  Vanishing derivatives mean
    the scales cannot be ranked together and are rejected.
    """
    delta_rho = props.delta_rho_derivative(())
    dm_macro, dm_micro = weight_gradient(problem, state, props.rho_h, delta_rho)
    scale = abs(props.rho_h) + abs(delta_rho)
    if abs(dm_macro) <= 1e-300 or abs(dm_micro) <= 1e-12 * scale * problem.grid.elem_volume:
        raise NormalizationError(
            "scales not comparable: weight derivative vanishes "
            f"(macro {dm_macro:.3e}, micro {dm_micro:.3e}); needs rho_h > 0 and rho1 > rho2"
        )
    return SensitivityField(field.macro / dm_macro, field.micro / dm_micro)


class SensitivityFilter:
    """Mesh-independence filter: distance-weighted average over an r_min ball.

    The weights w = max(r_min - r, 0) (self weight r_min) over the integer
    element offsets form one stencil, built once from the per-axis spacing
    and correlated over the element grid as a sum of shifted copies of the
    padded field; each element divides by the stencil weight that lands
    inside the grid.  The micro filter wraps periodically across the cell
    faces (wrap padding), consistent with the periodic homogenization; the
    macro filter stops at the mesh boundary (zero padding).
    """

    def __init__(self, grid: StructuredGrid, r_min: float, periodic: bool = False):
        if r_min <= 0:
            raise ValueError("filter radius must be positive")
        self.r_min = float(r_min)
        if periodic:
            box = np.array([n * h for n, h in zip(grid.shape, grid.spacing)])
            if np.any(self.r_min >= box / 2.0):
                raise ValueError("periodic filter radius must be below half the cell size")
        offsets = [h * np.arange(-(self.r_min // h), self.r_min // h + 1) for h in grid.spacing]
        dist = np.sqrt(sum(d**2 for d in np.meshgrid(*offsets, indexing="ij")))
        stencil = np.maximum(self.r_min - dist, 0.0)
        self._shape = grid.shape
        self._windows: dict[float, list] = {}  # the grid-sized window of the padded field per tap, by weight
        for j in zip(*np.nonzero(stencil)):
            self._windows.setdefault(stencil[j], []).append(tuple(slice(a, a + n) for a, n in zip(j, self._shape)))
        self._radius = [(n // 2, n // 2) for n in stencil.shape]
        self._mode = "wrap" if periodic else "constant"
        self._wsum = self._correlate(np.ones(self._shape))

    def _correlate(self, values: np.ndarray) -> np.ndarray:
        """sum_j w_j values[i + j - radius] over the stencil taps j, on the field padded by wrap or zeros."""
        padded = np.pad(values, self._radius, mode=self._mode)
        out = np.zeros(self._shape)
        for weight, windows in self._windows.items():
            ring = padded[windows[0]].copy()
            for window in windows[1:]:
                ring += padded[window]
            out += weight * ring
        return out

    def apply(self, field: np.ndarray) -> np.ndarray:
        values = np.reshape(field, self._shape, order="F")  # element ids run x-fastest
        return (self._correlate(values) / self._wsum).ravel(order="F")


def history_average(current: SensitivityField, previous: SensitivityField | None) -> SensitivityField:
    """Average with the previous iteration to stabilize the discrete update."""
    if previous is None:
        return current
    return SensitivityField(
        0.5 * (current.macro + previous.macro), 0.5 * (current.micro + previous.micro)
    )

