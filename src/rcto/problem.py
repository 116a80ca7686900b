"""Two-scale problem context: macro mesh with loads/BCs plus the unit cell.

Holds the stiffness/mass interpolation of the discrete macro design
variables (the ratio-preserving power law that keeps void elements from
developing artificial local modes) and factors the dynamic stiffness.
Its derivatives with respect to uncertain material parameters are applied
element by element from the reference element matrices
(``apply_parameter_operator``), not assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from . import fem
from .errors import SingularSystemError
from .fem import StructuredGrid
from .homogenization import EffectiveProperties, phase1_fraction
from .materials import TwoPhaseMaterial

X_MIN_DEFAULT = 1e-6


@dataclass
class DesignState:
    """Discrete density fields on both scales; values live in {x_min, 1} exactly."""

    x_macro: np.ndarray
    x_micro: np.ndarray
    x_min: float = X_MIN_DEFAULT
    iteration: int = 0

    def copy(self) -> "DesignState":
        return replace(self, x_macro=self.x_macro.copy(), x_micro=self.x_micro.copy())

    @property
    def macro_solid_fraction(self) -> float:
        return float(np.mean(self.x_macro == 1.0))

    @property
    def micro_phase1_fraction(self) -> float:
        return float(np.mean(self.x_micro == 1.0))


def stiffness_scale(x, penalty: float, x_min: float):
    """Macro stiffness interpolation factor: x_min at x = x_min, 1 at x = 1.

    The offset keeps the stiffness-to-mass penalization ratio bounded in
    void elements.
    """
    c = (x_min - x_min**penalty) / (1.0 - x_min**penalty)
    x = np.asarray(x, dtype=float)
    return c * (1.0 - x**penalty) + x**penalty


def stiffness_scale_derivative(x, penalty: float, x_min: float):
    c = (x_min - x_min**penalty) / (1.0 - x_min**penalty)
    x = np.asarray(x, dtype=float)
    return penalty * x ** (penalty - 1.0) * (1.0 - c)


@dataclass(frozen=True)
class MacroProblem:
    """Macro mesh, constraints, load and excitation, plus the cell discretization."""

    grid: StructuredGrid
    cell: StructuredGrid
    fixed_dofs: np.ndarray
    force: np.ndarray
    omega: float = 0.0
    penalty: float = 3.0

    def __post_init__(self):
        object.__setattr__(self, "fixed_dofs", fem.unique_ids(np.asarray(self.fixed_dofs, dtype=np.intp)))
        object.__setattr__(self, "force", np.asarray(self.force, dtype=float))
        if self.force.shape != (self.grid.n_dofs,):
            raise ValueError("force vector length must equal the number of macro DOFs")
        if self.fixed_dofs.size == 0 or self.fixed_dofs[0] < 0 or self.fixed_dofs[-1] >= self.grid.n_dofs:
            raise ValueError(f"fixed DOF set must be nonempty, with fixed DOF ids in [0, {self.grid.n_dofs})")

    @cached_property
    def free(self) -> np.ndarray:
        """Free DOFs in the grid's band order (shortest axis fastest), the order the macro system is factored in."""
        order = fem.band_order(self.grid.node_ids)
        free = order[~np.isin(order, self.fixed_dofs)]
        free.setflags(write=False)
        return free

    @cached_property
    def pattern(self) -> fem.SparsityPattern:
        """Band pattern of the free block, rows and columns in the order of ``free``; constrained entries dropped."""
        rank = np.full(self.grid.n_dofs, -1, dtype=np.intp)
        rank[self.free] = np.arange(self.free.size)
        return fem.SparsityPattern.from_dofs(rank[self.grid.elem_dofs], self.free.size)


def design_weight(problem: MacroProblem, material: TwoPhaseMaterial, macro_sum, micro_sum):
    """W = V_a sum_a x_a rho_h of designs given by sum_a x_a and sum_i x_i; broadcasts over arrays of designs.

    rho_h is the ``mixed_density`` of the cell's ``homogenization.phase1_fraction``, as ``homogenize`` has it.
    """
    return problem.grid.elem_volume * macro_sum * material.mixed_density(phase1_fraction(problem.cell, micro_sum))


def weight_gradient(problem: MacroProblem, state: DesignState, rho_h: float, delta_rho: float):
    """dW/dx of one macro element, V_a rho_h, and of one voxel, (V_i / |Y|) (rho1 - rho2) sum_a x_a V_a."""
    v_a = problem.grid.elem_volume
    voxel_share = problem.cell.elem_volume / problem.cell.volume
    return v_a * rho_h, voxel_share * delta_rho * float(np.sum(state.x_macro) * v_a)


def factorized_dynamic(problem: MacroProblem, state: DesignState, d_h: np.ndarray, rho_h: float):
    """Banded Cholesky of the free block of K - omega^2 M.

    Element e of the block is s_e k(D_h) - omega^2 rho_h x_e m, two scales times two shared reference
    matrices, so one scatter of those builds the block's band, its only stored form, which is factored in
    place.  Solves are checked by ``apply_parameter_operator`` at (D_h, rho_h), which is K - omega^2 M
    itself, since K - omega^2 M is linear in (D_h, rho_h).  A drive at or above the design's first natural
    frequency raises ``SingularSystemError`` naming the drive.
    """
    grid = problem.grid
    scales = np.stack([stiffness_scale(state.x_macro, problem.penalty, state.x_min),
                       -problem.omega**2 * rho_h * state.x_macro])
    matrices = np.stack([fem.element_stiffness_batch(np.asarray(d_h)[None], grid.spacing)[0],
                         fem.element_mass(1.0, grid.spacing)])
    band = fem.scatter(problem.pattern, scales, matrices)
    apply = partial(apply_parameter_operator, problem, state, d_h, rho_h)
    try:
        return fem.FactorizedSystem(band, problem.free, grid.n_dofs, apply)
    except SingularSystemError as exc:
        raise SingularSystemError(f"drive {problem.omega / (2.0 * np.pi):g} Hz: {exc}") from exc


def element_strains(grid: StructuredGrid, u: np.ndarray) -> np.ndarray:
    """Gauss-point strains per element of displacement fields u (..., n_dofs): (..., n_elems, nq, ncomp)."""
    b = fem.strain_operators(grid.spacing)[0]
    nq, ncomp, ndof_e = b.shape
    # one GEMM over all elements; a batched per-element matmul is several times slower
    eps = u[..., grid.elem_dofs] @ b.reshape(nq * ncomp, ndof_e).T
    return eps.reshape(eps.shape[:-1] + (nq, ncomp))


def apply_parameter_operator(
    problem: MacroProblem, state: DesignState, dd: np.ndarray, drho, u: np.ndarray
) -> np.ndarray:
    """dK_d u for derivatives (dD_h, drho_h) of the effective cell properties, without forming dK_d.

    dd (..., ncomp, ncomp) symmetric, drho (...) and u (..., n_dofs)
    broadcast against each other.  Element e adds s_e u_e k(dD) - omega^2
    drho x_e u_e m to its DOFs, with k(dD) from the reference stiffness
    basis and m the unit consistent mass.  The operators are applied one
    at a time into the output, so no (..., n_elems, ndof_e) stack of the
    whole broadcast is formed; each DOF sums its element forces in element
    order, as one ``bincount`` over the stack would.
    """
    grid = problem.grid
    dd, drho, u = np.asarray(dd), np.asarray(drho, dtype=float), np.asarray(u)
    lead = np.broadcast_shapes(dd.shape[:-2], drho.shape, u.shape[:-1])
    k = fem.element_stiffness_batch(dd.reshape((-1,) + dd.shape[-2:]), grid.spacing)
    k = np.broadcast_to(k.reshape(dd.shape[:-2] + k.shape[-2:]), lead + k.shape[-2:])
    mass_scale = np.broadcast_to(problem.omega**2 * drho, lead)
    fields = np.broadcast_to(u, lead + u.shape[-1:])
    s = stiffness_scale(state.x_macro, problem.penalty, state.x_min)[:, None]
    m = fem.element_mass(1.0, grid.spacing)
    dofs = grid.elem_dofs.ravel()
    out = np.empty(lead + (grid.n_dofs,))
    for i in np.ndindex(lead):
        ue = fields[i][grid.elem_dofs]
        forces = ue @ k[i]
        forces *= s
        mass = ue @ m
        mass *= state.x_macro[:, None]
        mass *= mass_scale[i]
        forces -= mass
        out[i] = np.bincount(dofs, weights=forces.ravel(), minlength=grid.n_dofs)
    return out


def parameter_to_matrices(
    problem: MacroProblem,
    state: DesignState,
    props: EffectiveProperties,
    theta: str,
    theta2: str | None = None,
):
    """Sparse (CSC) dK_d/dtheta, or the second derivative d2K_d/dtheta dtheta2.

    Chain rule through the effective properties holding the cell strain
    fields fixed; density contributions are linear so all their second
    derivatives vanish.  The reference for ``apply_parameter_operator``.
    """
    wrt = (theta,) if theta2 is None else (theta, theta2)
    dd, drho = props.d_h_derivative(wrt), props.rho_h_derivative(wrt)
    s = stiffness_scale(state.x_macro, problem.penalty, state.x_min)
    # derivative "densities" may have any sign, so bypass the physical validation
    k_elems, m_elems = fem.element_matrices_batch(
        s[:, None, None] * dd, state.x_macro * drho, problem.grid.spacing
    )
    k_elems -= problem.omega**2 * m_elems
    return fem.sum_to_csc(problem.grid.elem_dofs, problem.grid.n_dofs, k_elems)
