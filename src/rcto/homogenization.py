"""Numerical homogenization of the periodic composite unit cell.

Solves the cell problems for the unit test strains under periodic boundary
conditions (master-slave coupling of opposite faces, one corner pinned) and
returns the effective density and elasticity matrix together with everything
needed for analytic derivatives: the per-voxel, per-Gauss-point corrected
strain matrices.  First derivatives of the effective elasticity with respect
to material parameters or micro design variables hold the strain fields
fixed; for first order that is exact because the corrector is a stationary
point of the energy form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SingularSystemError
from .fem import FactorizedSystem, SparsityPattern, StructuredGrid, element_stiffness_batch, scatter, strain_operators
from .materials import TwoPhaseMaterial, voigt_size


@lru_cache(maxsize=8)
def cell_pattern(grid: StructuredGrid) -> SparsityPattern:
    """Assembly pattern of the periodic cell; each node maps to its master node (x-fastest)."""
    grids = np.meshgrid(*[np.arange(n + 1) for n in grid.shape], indexing="ij")
    master = np.zeros(grid.n_nodes, dtype=np.intp)
    stride = 1
    for g, n in zip(grids, grid.shape):
        master += (g.ravel(order="F") % n) * stride
        stride *= n
    dofs = grid.dim * master[grid.elem_node_ids][:, :, None] + np.arange(grid.dim)
    return SparsityPattern.from_dofs(dofs.reshape(grid.n_elems, -1), grid.dim * grid.n_elems)


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
    free = np.arange(grid.dim, pattern.n)
    try:
        system = FactorizedSystem(k_red, free)
    except SingularSystemError as exc:
        raise SingularSystemError(f"unit cell system is singular (void cell?): {exc}") from exc
    u = system.solve(rhs)

    u_elems = u[pattern.dofs]
    eps = np.einsum("qce,ner->nqcr", b, u_elems)
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


@dataclass
class EffectiveProperties:
    """Homogenized unit cell state: effective properties plus strain data for derivatives."""

    grid: StructuredGrid
    x: np.ndarray
    material: TwoPhaseMaterial
    penalty: float
    d_h: np.ndarray
    rho_h: float
    g: np.ndarray
    gauss_w: np.ndarray

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def cell_volume(self) -> float:
        return self.grid.volume

    @property
    def voxel_volume(self) -> float:
        return self.grid.elem_volume

    def mutual_per_voxel(self, cmat: np.ndarray) -> np.ndarray:
        """Per-voxel mutual energy integral of (eps0 - eps)^T cmat (eps0 - eps)."""
        return np.einsum("q,nqcr,cd,nqds->nrs", self.gauss_w, self.g, cmat, self.g)

    def mutual_weighted(self, cmat: np.ndarray, voxel_weights: np.ndarray) -> np.ndarray:
        return np.einsum("q,n,nqcr,cd,nqds->rs", self.gauss_w, voxel_weights, self.g, cmat, self.g)

    def d_h_derivative(self, wrt: tuple[str, ...]) -> np.ndarray:
        """d^k D_h / d(theta...) holding the cell strain fields fixed."""
        eta = stiffness_weights(self.x, self.penalty)
        d1 = self.material.d_derivative(1, self.dim, wrt)
        d2 = self.material.d_derivative(2, self.dim, wrt)
        out = np.zeros_like(self.d_h)
        if np.any(d1):
            out += self.mutual_weighted(d1, eta)
        if np.any(d2):
            out += self.mutual_weighted(d2, 1.0 - eta)
        out /= self.cell_volume
        return 0.5 * (out + out.T)

    def rho_h_derivative(self, wrt: tuple[str, ...]) -> float:
        r1 = self.material.rho_derivative(1, wrt)
        r2 = self.material.rho_derivative(2, wrt)
        vi = self.voxel_volume
        return float(vi * np.sum(self.x * r1 + (1.0 - self.x) * r2) / self.cell_volume)

    def delta_d_derivative(self, wrt: tuple[str, ...]) -> np.ndarray:
        """d^k (D1 - D2) / d(theta...), the kernel of micro design derivatives."""
        return self.material.d_derivative(1, self.dim, wrt) - self.material.d_derivative(2, self.dim, wrt)

    def delta_rho_derivative(self, wrt: tuple[str, ...]) -> float:
        return self.material.rho_derivative(1, wrt) - self.material.rho_derivative(2, wrt)

    def micro_stiffness_integrand(self, wrt: tuple[str, ...] = ()) -> np.ndarray:
        """Per-voxel mutual-energy matrices with the (D1 - D2) kernel (or its derivative).

        Multiplying voxel i's matrix by p x_i^(p-1) / |Y| gives dD_h/dx_i.
        """
        return self.mutual_per_voxel(self.delta_d_derivative(wrt))


def effective_elasticity(grid: StructuredGrid, d_voxels: np.ndarray, g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Effective elasticity from corrected strain fields: volume average of the mutual energy."""
    stress = d_voxels[:, None] @ g  # D (eps0 - eps) at every Gauss point
    d_h = np.einsum("q,nqcr,nqcs->rs", w, g, stress, optimize=True) / grid.volume
    return 0.5 * (d_h + d_h.T)


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
    d_h = effective_elasticity(grid, d_voxels, g, w)
    rho_h = effective_density(x, material, grid)
    return EffectiveProperties(
        grid=grid, x=x.copy(), material=material, penalty=penalty,
        d_h=d_h, rho_h=rho_h, g=g, gauss_w=w,
    )


def effective_derivatives(props: EffectiveProperties, which: str):
    """Derivatives of the effective properties for one uncertain parameter or for "x".

    For a parameter name returns (drho_h, dd_h).  For "x" returns the
    per-voxel (drho_h/dx_i vector, dD_h/dx_i matrix stack).
    """
    if which == "x":
        scale = props.penalty * stiffness_weights(props.x, props.penalty - 1.0)
        dd = props.micro_stiffness_integrand(()) * (scale / props.cell_volume)[:, None, None]
        drho = np.full(
            props.grid.n_elems,
            props.voxel_volume * props.delta_rho_derivative(()) / props.cell_volume,
        )
        return drho, dd
    from .materials import PARAMETER_NAMES

    if which not in PARAMETER_NAMES:
        raise ValueError(f"unknown derivative target {which!r}")
    return props.rho_h_derivative((which,)), props.d_h_derivative((which,))


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
