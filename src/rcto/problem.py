"""Two-scale problem context: macro mesh with loads/BCs plus the unit cell.

Holds the stiffness/mass interpolation of the discrete macro design
variables (the ratio-preserving power law that keeps void elements from
developing artificial local modes) and factors the dynamic stiffness.
Its derivatives with respect to uncertain material parameters are applied
from the reference element matrices (``ParameterOperator``, one
``fem.element_apply`` of its ``terms``), not assembled; the factored
system's band is one ``fem.scatter`` of the same terms.
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

    K - omega^2 M is the design's ``ParameterOperator`` at (D_h, rho_h), since it is linear in (D_h, rho_h):
    one scatter of that operator's ``terms`` builds the block's band, its only stored form, which is factored
    in place, and the operator itself checks every solve.  M applies the single term (rho_h x, m); only the
    resonance-margin guard reads it.  A drive at or above the design's first natural frequency raises
    ``SingularSystemError`` naming the drive.
    """
    grid = problem.grid
    operator = ParameterOperator(problem, state)
    band = fem.scatter(problem.pattern, *operator.terms(d_h, rho_h))
    apply = partial(operator, d_h, rho_h)
    mass = partial(fem.element_apply, grid.elem_dofs.T, grid.n_dofs, (rho_h * state.x_macro,), (operator.m,))
    try:
        return fem.FactorizedSystem(band, problem.free, grid.n_dofs, apply, mass, problem.omega)
    except SingularSystemError as exc:
        raise SingularSystemError(f"drive {problem.omega / (2.0 * np.pi):g} Hz: {exc}") from exc


class ParameterOperator:
    """dK_d u on one design, for any direction (dD_h, drho_h) of the effective cell properties, without forming dK_d.

    Element e adds s_e k(dD) u_e - omega^2 drho x_e m u_e to its DOFs, with
    k(dD) from the reference stiffness basis and m the unit consistent mass:
    the (scales, matrices) form of ``terms``, which ``factorized_dynamic``
    scatters into the band.  The design's stiffness scales s (``stiffness``)
    are formed once here, not per application.
    """

    def __init__(self, problem: MacroProblem, state: DesignState):
        self.grid = problem.grid
        self.stiffness = stiffness_scale(state.x_macro, problem.penalty, state.x_min)
        self.x_macro = state.x_macro
        self.omega2 = problem.omega**2
        self.m = fem.element_mass(1.0, self.grid.spacing)

    def terms(self, dd: np.ndarray, drho: float):
        """(scales, matrices) of dK_d along (dd, drho), dd symmetric: (s, -omega^2 drho x) x (k(dD), m)."""
        k = fem.element_stiffness_batch(np.asarray(dd)[None], self.grid.spacing)[0]
        return (self.stiffness, self.x_macro * (-self.omega2 * drho)), (k, self.m)

    def __call__(self, dd: np.ndarray, drho: float, u: np.ndarray) -> np.ndarray:
        """dK_d u for u a field or a stack of fields (..., n_dofs): one ``fem.element_apply`` of ``terms``."""
        grid = self.grid
        return fem.element_apply(grid.elem_dofs.T, grid.n_dofs, *self.terms(dd, drho), np.asarray(u))


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
    derivatives vanish.  The reference for ``ParameterOperator``.
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
