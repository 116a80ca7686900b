"""Numerical homogenization of the periodic composite unit cell.

Solves the cell problems for the unit test strains under periodic boundary
conditions (master-slave coupling of opposite faces, one corner pinned) and
returns the effective density and elasticity matrix together with the
cell-energy basis that every derivative reads.  With g_iq the corrected
strains (eps0 - eps) of the unit test strains at Gauss point q of voxel i,
the basis is P[i, k] = sum_q w_q g_iq^T A_k g_iq for the two constant
material parts A0, A1.  Each phase elasticity is c[p, 0] A0 + c[p, 1] A1
(``materials.phase_coefficients``), so D_h, its derivatives with respect to
the material parameters and its derivative with respect to one voxel are all
scalar combinations of P.  These derivatives hold the strain fields fixed,
which is exact for a first derivative of D_h because the corrector is a
stationary point of the energy form.  The robust micro sensitivity reads the
voxel derivative of the parameter derivatives, a second derivative: on
cantilever(4, 2) it is 0.26 % off at 30 kHz and 0.15 % off at 120 Hz, and
the exact form needs an adjoint cell solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import SingularSystemError
from .fem import (
    FactorizedSystem,
    SparsityPattern,
    StructuredGrid,
    dissection_order,
    element_stiffness_batch,
    scatter,
    strain_operators,
)
from .materials import _PARTS, TwoPhaseMaterial, voigt_size


@lru_cache(maxsize=8)
def cell_pattern(grid: StructuredGrid) -> SparsityPattern:
    """Assembly pattern of the periodic cell; each node maps to its master node (x-fastest).

    The elimination order dissects the master-node box ``grid.shape`` with every axis periodic.
    """
    grids = np.meshgrid(*[np.arange(n + 1) for n in grid.shape], indexing="ij")
    master = np.zeros(grid.n_nodes, dtype=np.intp)
    stride = 1
    for g, n in zip(grids, grid.shape):
        master += (g.ravel(order="F") % n) * stride
        stride *= n
    dofs = grid.dim * master[grid.elem_node_ids][:, :, None] + np.arange(grid.dim)
    return SparsityPattern.from_dofs(
        dofs.reshape(grid.n_elems, -1), grid.dim * grid.n_elems, dissection_order(grid.shape, periodic=True)
    )


def cell_loads(grid: StructuredGrid, d_voxels: np.ndarray) -> np.ndarray:
    """Reduced load vectors (n_red, ncomp): integral of B^T D eps0, one column per test strain."""
    b, _, w = strain_operators(grid.spacing)
    pattern = cell_pattern(grid)
    loads = (np.einsum("q,qce->ec", w, b) @ d_voxels).reshape(pattern.dofs.size, -1)
    return np.column_stack(
        [np.bincount(pattern.dofs.ravel(), weights=col, minlength=pattern.n) for col in loads.T]
    )


def solve_cell_problems(grid: StructuredGrid, d_voxels: np.ndarray):
    """Solve the periodic cell problems for all unit test strains.

    d_voxels: (n_voxels, ncomp, ncomp) elasticity matrix per voxel.
    Returns (g, w, u): corrected strain matrices g (n_voxels, nq, ncomp,
    ncomp) whose column c is (eps0_c - eps_c) at each Gauss point, the Gauss
    weights w, and the reduced periodic solution u (n_red_dofs, ncomp).
    """
    ncomp = voigt_size(grid.dim)
    d_voxels = np.asarray(d_voxels, dtype=float)
    if d_voxels.shape != (grid.n_elems, ncomp, ncomp):
        raise ValueError(f"expected per-voxel D of shape {(grid.n_elems, ncomp, ncomp)}")
    b, _, w = strain_operators(grid.spacing)
    pattern = cell_pattern(grid)
    k_red = scatter(pattern, element_stiffness_batch(d_voxels, grid.spacing))
    rhs = cell_loads(grid, d_voxels)

    # pin the corner master node to remove the translation nullspace
    free = pattern.order[pattern.order >= grid.dim]
    try:
        system = FactorizedSystem(k_red, free)
    except SingularSystemError as exc:
        raise SingularSystemError(f"unit cell system is singular (void cell?): {exc}") from exc
    u = system.solve(rhs)

    eps = b[None] @ u[pattern.dofs][:, None]
    g = np.eye(ncomp)[None, None, :, :] - eps
    return g, w, u


def stiffness_weights(x: np.ndarray, penalty: float) -> np.ndarray:
    """Phase-1 stiffness fraction per voxel under the power-law interpolation."""
    return np.asarray(x, dtype=float) ** penalty


def micro_elasticity(x: np.ndarray, material: TwoPhaseMaterial, penalty: float, dim: int) -> np.ndarray:
    """Per-voxel elasticity x^p D1 + (1 - x^p) D2."""
    eta = stiffness_weights(x, penalty)
    d1 = material.phase1.elasticity(dim)
    d2 = material.phase2.elasticity(dim)
    return eta[:, None, None] * d1 + (1.0 - eta)[:, None, None] * d2


def effective_density(x: np.ndarray, material: TwoPhaseMaterial, grid: StructuredGrid) -> float:
    """Volume-weighted effective density of the cell (linear in each voxel variable)."""
    x = np.asarray(x, dtype=float)
    vi = grid.elem_volume
    total = vi * np.sum(x * material.phase1.density + (1.0 - x) * material.phase2.density)
    return float(total / grid.volume)


def cell_energy_basis(g: np.ndarray, w: np.ndarray, dim: int) -> np.ndarray:
    """P[i, k] = sum_q w_q g_iq^T A_k g_iq: (n_voxels, 2, ncomp, ncomp), symmetric in the last two axes."""
    n, nq, ncomp, _ = g.shape
    a_g = (np.array(_PARTS[dim])[None, :, None] @ g[:, None]).reshape(n, 2, nq * ncomp, ncomp)
    g_w = (g * w[:, None, None]).reshape(n, 1, nq * ncomp, ncomp)
    p = np.swapaxes(g_w, -1, -2) @ a_g
    return 0.5 * (p + np.swapaxes(p, -1, -2))


def phase_moments(basis: np.ndarray, eta: np.ndarray, volume: float) -> np.ndarray:
    """M[p, k] = sum_i weight_p(i) P[i, k] / |Y| with the phase weights eta and 1 - eta."""
    m = np.stack([eta, 1.0 - eta]) @ basis.reshape(basis.shape[0], -1)
    return m.reshape((2,) + basis.shape[1:]) / volume


def _combine(coefficients: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """sum_pk c[p, k] M[p, k], made exactly symmetric."""
    d = np.tensordot(coefficients, moments, axes=2)
    return 0.5 * (d + d.T)


def effective_elasticity(
    grid: StructuredGrid, g: np.ndarray, w: np.ndarray, eta: np.ndarray, coefficients: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Effective elasticity from corrected strain fields, and the cell-energy basis it is read from.

    D_h = sum_pk c[p, k] M[p, k] for the phase coefficients c of
    ``materials.phase_coefficients``.
    """
    basis = cell_energy_basis(g, w, grid.dim)
    return _combine(coefficients, phase_moments(basis, eta, grid.volume)), basis


@dataclass
class EffectiveProperties:
    """Homogenized unit cell state: effective properties plus the cell-energy basis for derivatives."""

    grid: StructuredGrid
    x: np.ndarray
    material: TwoPhaseMaterial
    penalty: float
    d_h: np.ndarray
    rho_h: float
    basis: np.ndarray  # P[i, k], see cell_energy_basis

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def cell_volume(self) -> float:
        return self.grid.volume

    @property
    def voxel_volume(self) -> float:
        return self.grid.elem_volume

    @cached_property
    def moments(self) -> np.ndarray:
        return phase_moments(self.basis, stiffness_weights(self.x, self.penalty), self.cell_volume)

    def elasticity(self, coefficients: np.ndarray) -> np.ndarray:
        """D_h with phase coefficients c[p, k] in place of the phases' own (linear in c)."""
        return _combine(coefficients, self.moments)

    def density(self, rho1: float, rho2: float) -> float:
        """rho_h with phase densities rho1, rho2 in place of the phases' own (linear in them)."""
        return float(self.voxel_volume * np.sum(self.x * rho1 + (1.0 - self.x) * rho2) / self.cell_volume)

    def d_h_derivative(self, wrt: tuple[str, ...]) -> np.ndarray:
        """d^k D_h / d(theta...) holding the cell strain fields fixed."""
        return self.elasticity(self.material.coefficients(self.dim, wrt))

    def rho_h_derivative(self, wrt: tuple[str, ...]) -> float:
        return self.density(self.material.rho_derivative(1, wrt), self.material.rho_derivative(2, wrt))

    def delta_rho_derivative(self, wrt: tuple[str, ...]) -> float:
        return self.material.rho_derivative(1, wrt) - self.material.rho_derivative(2, wrt)


def homogenize(
    grid: StructuredGrid,
    x: np.ndarray,
    material: TwoPhaseMaterial,
    penalty: float,
) -> EffectiveProperties:
    """Full homogenization pass: cell solves, effective density and elasticity."""
    x = np.asarray(x, dtype=float)
    if x.shape != (grid.n_elems,):
        raise ValueError(f"expected {grid.n_elems} micro design variables, got {x.shape}")
    d_voxels = micro_elasticity(x, material, penalty, grid.dim)
    g, w, _ = solve_cell_problems(grid, d_voxels)
    eta = stiffness_weights(x, penalty)
    d_h, basis = effective_elasticity(grid, g, w, eta, material.coefficients(grid.dim))
    rho_h = effective_density(x, material, grid)
    return EffectiveProperties(
        grid=grid, x=x.copy(), material=material, penalty=penalty, d_h=d_h, rho_h=rho_h, basis=basis,
    )


def seed_cell(grid: StructuredGrid, fraction: float, x_min: float) -> np.ndarray:
    """Initial micro design: phase 2 in a centered disk/ball covering ~fraction of voxels.

    A uniform cell has uniform sensitivities, which deadlocks the discrete
    update; this disclosed, configurable seed breaks the symmetry.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("seed fraction must be in [0, 1)")
    x = np.ones(grid.n_elems)
    count = int(round(fraction * grid.n_elems))
    if count == 0:
        return x
    center = 0.5 * np.array([n * h for n, h in zip(grid.shape, grid.spacing)])
    dist = np.linalg.norm(grid.centroids - center, axis=1)
    # complete distance shells keep the seed's point symmetry on any grid
    shells, inverse = np.unique(np.round(dist / min(grid.spacing), 9), return_inverse=True)
    cumulative = np.cumsum(np.bincount(inverse))
    n_shells = int(np.argmin(np.abs(cumulative - count))) + 1
    x[inverse < n_shells] = x_min
    return x


def format_effective_matrix(d_h: np.ndarray, rho_h: float | None = None) -> str:
    """Plain-text block of the effective elasticity matrix (and density)."""
    lines = ["effective elasticity matrix (MPa):"]
    for row in d_h:
        lines.append("  " + "  ".join(f"{v: .6e}" for v in row))
    if rho_h is not None:
        lines.append(f"effective density (tonne/mm^3):  {rho_h: .6e}")
    return "\n".join(lines) + "\n"
