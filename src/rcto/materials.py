"""Isotropic two-phase material model and analytic parameter derivatives.

The elasticity matrix of an isotropic phase factors as D(E, nu) = E * C(nu)
with C(nu) = u(nu)*A0 + nu*u(nu)*A1 for constant matrices A0, A1 (plane
stress in 2D, full 3D isotropy in Voigt order xx, yy, zz, yz, xz, xy with
engineering shear strains).  So D and each of its derivatives with respect
to E and nu is a pair of scalar coefficients on A0 and A1.
``phase_coefficients`` returns them for both phases, on scalars or on arrays
of samples; the cell-energy basis, the perturbation analysis and the Monte
Carlo oracle all read them there.  ``TwoPhaseMaterial.kernel`` stacks them
with the phase densities into the one material kernel of a derivative.

``PARAMETERS`` is the one table of the uncertain parameters: the phases each
name acts on and the ``Phase`` field it sets, whose open physical range is
in ``PHYSICAL_RANGES``.  The derivatives, ``TwoPhaseMaterial.with_values``,
the overlap check of an uncertain set, the run configuration and the
oracle's sample check all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

# open physical range of each Phase field
PHYSICAL_RANGES = {"youngs": (0.0, np.inf), "poisson": (-1.0, 0.5), "density": (0.0, np.inf)}


class Parameter(NamedTuple):
    """One row of the parameter table: the phases a name acts on and the Phase field it sets."""

    phases: tuple[int, ...]
    field: str

    def admits(self, value):
        """Whether value (elementwise on arrays) lies in the field's open physical range."""
        lo, hi = PHYSICAL_RANGES[self.field]
        return (lo < value) & (value < hi)


# "nu" is the Poisson ratio shared by both phases; "nu1"/"nu2" are the split per-phase alternatives
PARAMETERS = {
    "e1": Parameter((1,), "youngs"),
    "e2": Parameter((2,), "youngs"),
    "nu": Parameter((1, 2), "poisson"),
    "nu1": Parameter((1,), "poisson"),
    "nu2": Parameter((2,), "poisson"),
    "rho1": Parameter((1,), "density"),
    "rho2": Parameter((2,), "density"),
}
PARAMETER_NAMES = tuple(PARAMETERS)


def parameter(name: str) -> Parameter:
    """The table row of a parameter name; raises ValueError for an unknown name."""
    if name not in PARAMETERS:
        raise ValueError(f"unknown parameter {name!r}")
    return PARAMETERS[name]


def _fields(phase: int, wrt: tuple[str, ...]) -> list[str | None]:
    """The Phase field each name of wrt sets on the phase (None where it does not act on it)."""
    rows = [parameter(name) for name in wrt]
    return [row.field if phase in row.phases else None for row in rows]


def _plane_stress_parts():
    a0 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
    a1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -0.5]])
    return a0, a1


def _solid_parts():
    a0 = np.zeros((6, 6))
    a0[:3, :3] = np.eye(3)
    a0[3:, 3:] = 0.5 * np.eye(3)
    a1 = np.zeros((6, 6))
    a1[:3, :3] = np.ones((3, 3)) - 2.0 * np.eye(3)
    a1[3:, 3:] = -np.eye(3)
    return a0, a1


_PARTS = {2: _plane_stress_parts(), 3: _solid_parts()}


def _coefficients(e, nu, dim: int, de: int, dnu: int) -> np.ndarray:
    """(c0, c1) with d^(de+dnu) D / dE^de dnu^dnu = c0*A0 + c1*A1; e and nu are scalars or arrays.

    D = E*(u*A0 + v*A1) with v = nu*u; de in {0, 1} (D is linear in E), dnu in {0, 1, 2}.
    """
    if de not in (0, 1) or dnu not in (0, 1, 2):
        raise ValueError(f"unsupported derivative order (de={de}, dnu={dnu})")
    nu = np.asarray(nu, dtype=float)
    if dim == 2:
        u = 1.0 / (1.0 - nu * nu)
        du = 2.0 * nu * u * u
        d2u = 2.0 * u * u + 8.0 * nu * nu * u**3
    elif dim == 3:
        d = (1.0 + nu) * (1.0 - 2.0 * nu)
        u = 1.0 / d
        du = (1.0 + 4.0 * nu) * u * u
        d2u = 4.0 * u * u + 2.0 * (1.0 + 4.0 * nu) ** 2 * u**3
    else:
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    uk = (u, du, d2u)[dnu]
    vk = (nu * u, u + nu * du, 2.0 * du + nu * d2u)[dnu]
    return np.array([uk, vk]) if de == 1 else np.array([e * uk, e * vk])


def phase_coefficients(youngs, poisson, dim: int, wrt: tuple[str, ...] = ()) -> np.ndarray:
    """Coefficients c[p, k] of d^|wrt| D_p = c[p, 0]*A0 + c[p, 1]*A1 for the phases p = 1, 2.

    youngs = (E1, E2) and poisson = (nu1, nu2), each entry a scalar or an
    array of samples; c has shape (2, 2) plus the sample shape.  wrt is a
    multiset of names from PARAMETER_NAMES (an empty tuple gives D_p itself);
    a name that does not act on a phase, a density or a second E-derivative
    gives that phase zero coefficients.
    """
    e1, e2, nu1, nu2 = np.broadcast_arrays(*youngs, *poisson)
    c = np.zeros((2, 2) + e1.shape)
    for p, (e, nu) in enumerate(((e1, nu1), (e2, nu2))):
        fields = _fields(p + 1, wrt)
        de, dnu = fields.count("youngs"), fields.count("poisson")
        if de + dnu == len(wrt) and de <= 1:
            c[p] = _coefficients(e, nu, dim, de, dnu)
    return c


def elasticity_matrix(e: float, nu: float, dim: int, de: int = 0, dnu: int = 0) -> np.ndarray:
    """Isotropic elasticity matrix, or its mixed partial d^(de+dnu) D / dE^de dnu^dnu.

    de in {0, 1} (D is linear in E, higher orders vanish), dnu in {0, 1, 2}.
    """
    c0, c1 = _coefficients(e, nu, dim, de, dnu)
    a0, a1 = _PARTS[dim]
    return c0 * a0 + c1 * a1


def voigt_size(dim: int) -> int:
    return 3 if dim == 2 else 6


@dataclass(frozen=True)
class Phase:
    """One base material: Young's modulus (MPa), Poisson ratio, density (tonne/mm^3)."""

    youngs: float
    poisson: float
    density: float

    def elasticity(self, dim: int) -> np.ndarray:
        return elasticity_matrix(self.youngs, self.poisson, dim)


@dataclass(frozen=True)
class TwoPhaseMaterial:
    """The two base phases of the composite unit cell (phase 1 stiff/heavy, phase 2 soft/light)."""

    phase1: Phase
    phase2: Phase

    def phase(self, index: int) -> Phase:
        return self.phase1 if index == 1 else self.phase2

    def coefficients(self, dim: int, wrt: tuple[str, ...] = ()) -> np.ndarray:
        """phase_coefficients of this material: d^|wrt| D_p = c[p-1, 0]*A0 + c[p-1, 1]*A1."""
        youngs = (self.phase1.youngs, self.phase2.youngs)
        return phase_coefficients(youngs, (self.phase1.poisson, self.phase2.poisson), dim, wrt)

    def kernel(self, dim: int, wrt: tuple[str, ...] = ()) -> np.ndarray:
        """(2, 3) kernel of d^|wrt| of the phase properties: row p-1 holds phase p's A0, A1 coefficients and density."""
        rho = [self.rho_derivative(p, wrt) for p in (1, 2)]
        return np.column_stack([self.coefficients(dim, wrt), rho])

    def mixed_density(self, phase1_fraction):
        """Density of a mix holding phase 1 at the given volume fraction (linear; broadcasts over arrays)."""
        return phase1_fraction * self.phase1.density + (1.0 - phase1_fraction) * self.phase2.density

    def rho_derivative(self, phase_index: int, wrt: tuple[str, ...]) -> float:
        """Partial derivative of the phase density (density is linear in rho1/rho2)."""
        fields = _fields(phase_index, wrt)
        if not fields:
            return self.phase(phase_index).density
        return 1.0 if fields == ["density"] else 0.0

    def with_values(self, names: tuple[str, ...], values) -> "TwoPhaseMaterial":
        """New material with the named base parameters replaced by the given values."""
        phases = [self.phase1, self.phase2]
        for name, value in zip(names, values):
            row = parameter(name)
            for p in row.phases:
                phases[p - 1] = replace(phases[p - 1], **{row.field: value})
        return TwoPhaseMaterial(*phases)
