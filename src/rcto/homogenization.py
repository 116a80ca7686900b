"""Numerical homogenization of the periodic composite unit cell.

Solves the cell problems for the unit test strains under periodic boundary
conditions (master-slave coupling of opposite faces, zero-mean correctors)
by conjugate gradients preconditioned with the FFT-diagonalized stiffness of
the voxel-mean material, with neither a factorization nor an assembled
matrix (``cell_operator`` applies the stiffness), and returns the effective
density and elasticity matrix together with the cell-energy basis that every
derivative reads.  With g_iq the corrected strains (eps0 - eps) of the
unit test strains at Gauss point q of voxel i, the basis is
P[i, k] = sum_q w_q g_iq^T A_k g_iq for the two constant material parts
A0, A1.  Each phase elasticity is c[p, 0] A0 + c[p, 1] A1
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

import logging
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NumericalError, SingularSystemError
from .fem import (
    RESIDUAL_TOL,
    StructuredGrid,
    _corner_offsets,
    element_stiffness_batch,
    strain_operators,
)
from .materials import _PARTS, TwoPhaseMaterial, voigt_size

logger = logging.getLogger(__name__)

CG_RTOL = 1e-10  # relative residual at which the cell CG stops


@lru_cache(maxsize=8)
def corner_tables(grid: StructuredGrid) -> tuple[np.ndarray, np.ndarray]:
    """The master node at corner a of each voxel (n_voxels, 2^dim), and for each corner a the slot 2^dim * voxel + a
    of the voxel whose corner a is each master node (2^dim, n_voxels).  Master ids are the voxel ids (x fastest)."""
    ids, axes = np.arange(grid.n_elems).reshape(grid.shape, order="F"), tuple(range(grid.dim))
    offsets = _corner_offsets(grid.dim)
    nodes = np.stack([np.roll(ids, -o, axes).ravel(order="F") for o in offsets], axis=1)
    slots = np.stack([len(offsets) * np.roll(ids, o, axes).ravel(order="F") + a for a, o in enumerate(offsets)])
    for table in (nodes, slots):
        table.setflags(write=False)
    return nodes, slots


def _gather(grid: StructuredGrid, u: np.ndarray) -> np.ndarray:
    """Element DOF values (n_voxels, ndof_e, k) of a block (n_red, k) of master-DOF vectors."""
    nodes = corner_tables(grid)[0]
    return np.take(u.reshape(len(nodes), -1), nodes, axis=0).reshape(len(nodes), -1, u.shape[-1])


def _sum_to_masters(grid: StructuredGrid, elem: np.ndarray) -> np.ndarray:
    """Sum element columns (n_voxels, ndof_e, k) into master-DOF columns (n_red, k), 2^dim slots each."""
    slots = corner_tables(grid)[1]
    rows = elem.reshape(slots.size, -1)  # one row per element slot: a voxel's corner
    return np.take(rows, slots, axis=0).sum(axis=0).reshape(-1, elem.shape[-1])


def cell_operator(grid: StructuredGrid, d_voxels: np.ndarray):
    """u -> K u on blocks (n_red, k) for the periodic cell stiffness K of the per-voxel elasticities."""
    k_e = element_stiffness_batch(d_voxels, grid.spacing)
    return lambda u: _sum_to_masters(grid, k_e @ _gather(grid, u))


def cell_loads(grid: StructuredGrid, d_voxels: np.ndarray) -> np.ndarray:
    """Reduced load vectors (n_red, ncomp): integral of B^T D eps0, one column per test strain."""
    b, _, w = strain_operators(grid.spacing)
    return _sum_to_masters(grid, np.einsum("q,qce->ec", w, b) @ d_voxels)


def _phase_contrast(d_voxels: np.ndarray, d_ref: np.ndarray) -> float:
    """Ratio of the extreme generalized eigenvalues of (D_i, D_ref) over all voxels.

    It bounds the spectrum of the reference-preconditioned cell operator:
    u^T K u / u^T K_ref u is a voxel-weighted average of eps^T D_i eps / eps^T D_ref eps.
    """
    try:
        inv_l = np.linalg.inv(np.linalg.cholesky(d_ref))
    except np.linalg.LinAlgError:
        raise SingularSystemError(
            "unit cell system is singular: the mean voxel elasticity is not positive definite (void cell?)"
        ) from None
    lam = np.linalg.eigvalsh(inv_l @ d_voxels @ inv_l.T)
    if lam.min() <= 0.0:
        raise SingularSystemError("unit cell system is singular: a voxel elasticity is not positive definite")
    return float(lam.max() / lam.min())


class _ReferencePreconditioner:
    """Exact inverse, on zero-mean periodic fields, of the cell stiffness of one homogeneous material.

    That stiffness is block-circulant on the master-node grid, so the FFT
    diagonalizes it into one dim x dim Hermitian block per frequency, the
    symbol sum_ab conj(e^{i xi.o_a}) k_ab e^{i xi.o_b} of one element matrix
    k over the element's corner offsets o (Zeman et al., J. Comput. Phys.
    2010).  The zero frequency (rigid translation) is mapped to zero.
    ``condition`` is the ratio of the extreme eigenvalues of the other blocks,
    the condition number of K_ref on zero-mean fields.
    """

    def __init__(self, grid: StructuredGrid, d_ref: np.ndarray):
        dim, corners = grid.dim, 2**grid.dim
        self.shape = grid.shape[::-1]  # master DOF dim * node + a is entry (..., y, x, a) in C order
        k = element_stiffness_batch(d_ref[None], grid.spacing)[0].reshape(corners, dim, corners, dim)
        axes = [2.0 * np.pi * np.fft.fftfreq(n) for n in grid.shape]
        axes[0] = 2.0 * np.pi * np.fft.rfftfreq(grid.shape[0])  # rfftn halves the last array axis, x
        xi = np.meshgrid(*axes[::-1], indexing="ij")[::-1]
        angle = sum(x[..., None] * o for x, o in zip(xi, _corner_offsets(dim).T))
        phase = np.exp(1j * angle).reshape(-1, corners)
        half = (phase.conj() @ k.reshape(corners, -1)).reshape(-1, dim, corners, dim)
        symbol = np.einsum("fibj,fb->fij", half, phase)
        lam, vec = np.linalg.eigh(symbol)
        lam[0] = np.inf  # the zero frequency: translations carry no load and get no displacement
        self.condition = float(lam[1:].max() / lam[1:].min()) if lam.shape[0] > 1 else 1.0
        inverse = (vec / lam[:, None, :]) @ np.swapaxes(vec.conj(), -1, -2)
        self.inverse = inverse.reshape(xi[0].shape + (dim, dim))

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """K_ref^+ r for a block r (n_red, k)."""
        axes = tuple(range(len(self.shape)))
        r_hat = np.fft.rfftn(r.reshape(self.shape + (-1, r.shape[1])), axes=axes)
        z_hat = sum(self.inverse[..., j, None] * r_hat[..., None, j, :] for j in range(r_hat.shape[-2]))
        return np.fft.irfftn(z_hat, s=self.shape, axes=axes).reshape(r.shape)


def solve_cell_problems(grid: StructuredGrid, d_voxels: np.ndarray):
    """Solve the periodic cell problems for all unit test strains.

    d_voxels: (n_voxels, ncomp, ncomp) elasticity matrix per voxel.
    Returns (g, w, u): corrected strain matrices g (n_voxels, nq, ncomp,
    ncomp) whose column c is (eps0_c - eps_c) at each Gauss point, the Gauss
    weights w, and the zero-mean reduced periodic solution u (n_red_dofs, ncomp).

    One block conjugate-gradient run over the ncomp load columns on the cell
    stiffness K of ``cell_operator``, preconditioned by the FFT inverse of the
    stiffness of the voxel-mean material D_ref.  Each answer must meet
    ``fem.RESIDUAL_TOL`` in its true residual on the zero-mean load.
    """
    ncomp = voigt_size(grid.dim)
    d_voxels = np.asarray(d_voxels, dtype=float)
    if d_voxels.shape != (grid.n_elems, ncomp, ncomp):
        raise ValueError(f"expected per-voxel D of shape {(grid.n_elems, ncomp, ncomp)}")
    d_ref = d_voxels.mean(axis=0)
    kappa = _phase_contrast(d_voxels, d_ref)
    b, _, w = strain_operators(grid.spacing)
    f = _zero_mean(cell_loads(grid, d_voxels), grid.dim)
    # A computed load entry sums 2^dim element entries, each a dot product of
    # length ncomp, so it lies within (2^dim + ncomp) eps of the exact load
    # relative to the same sums in absolute values (Higham, Accuracy and
    # Stability of Numerical Algorithms, sec. 3.1).  A column below that floor
    # cannot be told from the exact zero load of a homogeneous cell: its
    # correctors are zero, and the D_h error this makes is f^T K^-1 f, second
    # order in the floor.
    loaded = np.linalg.norm(f, axis=0) > load_floor(grid, d_voxels)
    u = np.zeros_like(f)
    if loaded.any():
        precondition = _ReferencePreconditioner(grid, d_ref)
        u[:, loaded] = _block_cg(cell_operator(grid, d_voxels), f[:, loaded], precondition, kappa)
    return np.eye(ncomp) - b[None] @ _gather(grid, u)[:, None], w, u


def load_floor(grid: StructuredGrid, d_voxels: np.ndarray) -> np.ndarray:
    """Rounding floor (ncomp,) of the 2-norm of each ``cell_loads`` column.

    It is (2^dim + ncomp) eps times the norm of the same sums taken in
    absolute values, so it grows with every entry of |d_voxels|.
    """
    b, _, w = strain_operators(grid.spacing)
    magnitude = _sum_to_masters(grid, np.abs(np.einsum("q,qce->ec", w, b)) @ np.abs(d_voxels))
    return (2**grid.dim + voigt_size(grid.dim)) * np.finfo(float).eps * np.linalg.norm(magnitude, axis=0)


def _zero_mean(v: np.ndarray, dim: int) -> np.ndarray:
    """Remove the mean of each displacement direction from a block of master-DOF vectors."""
    nodal = v.reshape(-1, dim, v.shape[1])
    return (nodal - nodal.mean(axis=0)).reshape(v.shape)


def _block_cg(k, f: np.ndarray, precondition: _ReferencePreconditioner, kappa: float) -> np.ndarray:
    """Preconditioned CG for the operator k on every column of the zero-mean block f, checked by its true residual.

    The preconditioned operator's spectrum lies within the phase contrast
    kappa, so after n iterations the energy norm of the error has fallen by
    at least 2 ((sqrt(kappa) - 1) / (sqrt(kappa) + 1))^n <= 2 exp(-2n / sqrt(kappa)),
    which reaches CG_RTOL at n = ceil(sqrt(kappa) / 2 * ln(2 / CG_RTOL)).
    The stop test reads the 2-norm of the residual, which can fall slower by
    up to sqrt(cond K) <= sqrt(kappa * cond K_ref); the margin of
    sqrt(kappa) / 4 * ln(kappa * cond K_ref) iterations covers that factor.
    Exact-arithmetic CG needs no more than this cap, so passing it raises.
    """
    margin = 0.5 * np.log(kappa * precondition.condition)
    cap = int(np.ceil(0.5 * np.sqrt(kappa) * (np.log(2.0 / CG_RTOL) + margin)))
    norm_f = np.linalg.norm(f, axis=0)
    x = np.zeros_like(f)
    cols = np.arange(f.shape[1])  # the columns still iterating, and their iterates below
    x_c, r = np.zeros_like(f), f.copy()
    p = precondition(r)
    rz = np.einsum("ij,ij->j", r, p)
    iterations = 0
    while True:
        done = np.linalg.norm(r, axis=0) <= CG_RTOL * norm_f[cols]
        if done.any():
            x[:, cols[done]] = x_c[:, done]
            cols, x_c, r, p, rz = cols[~done], x_c[:, ~done], r[:, ~done], p[:, ~done], rz[~done]
        if cols.size == 0:
            break
        if iterations == cap:
            raise NumericalError(
                f"cell CG did not reach a relative residual of {CG_RTOL:g} within its bound of {cap} "
                f"iterations for phase contrast kappa = {kappa:.4g}"
            )
        iterations += 1
        q = k(p)
        alpha = rz / np.einsum("ij,ij->j", p, q)
        x_c += alpha * p
        r -= alpha * q
        z = precondition(r)
        rz_new = np.einsum("ij,ij->j", r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    logger.debug("cell CG: %d iterations (bound %d, phase contrast %.4g)", iterations, cap, kappa)
    x = _zero_mean(x, len(precondition.shape))
    residual = np.linalg.norm(f - k(x), axis=0)
    if not np.all(residual <= RESIDUAL_TOL * norm_f):
        raise NumericalError(
            f"cell solve failed the residual contract (|r|/|f| = {np.max(residual / norm_f):.3e} > {RESIDUAL_TOL})"
        )
    return x


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
    """rho_h: the volume average of the voxels' ``mixed_density``, each voxel variable its phase-1 fraction."""
    return float(grid.elem_volume * np.sum(material.mixed_density(np.asarray(x, dtype=float))) / grid.volume)


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
        return effective_density(self.x, self.material.with_values(("rho1", "rho2"), (rho1, rho2)), self.grid)

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
    d_h, basis = effective_elasticity(grid, g, w, stiffness_weights(x, penalty), material.coefficients(grid.dim))
    rho_h = effective_density(x, material, grid)
    return EffectiveProperties(grid=grid, x=x.copy(), material=material, penalty=penalty, d_h=d_h, rho_h=rho_h, basis=basis)


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


def format_effective_matrix(d_h: np.ndarray, rho_h: float) -> str:
    """Plain-text block of the effective elasticity matrix and density."""
    lines = ["effective elasticity matrix (MPa):"]
    for row in d_h:
        lines.append("  " + "  ".join(f"{v: .6e}" for v in row))
    lines.append(f"effective density (tonne/mm^3):  {rho_h: .6e}")
    return "\n".join(lines) + "\n"
