"""Numerical homogenization of the periodic composite unit cell.

Solves the cell problems for the unit test strains under periodic boundary
conditions (master-slave coupling of opposite faces, zero-mean correctors)
by conjugate gradients on a reference-medium split (Moulinec and Suquet,
1998): voxel i has D_i = eta_i D1 + (1 - eta_i) D2, and K = K_ref + Delta K
with K_ref the stiffness of D_ref = D(eta_ref) for the most common weight and
Delta K that of (eta_i - eta_ref)(D1 - D2) over the voxels that differ.  The
FFT-diagonalized K_ref preconditions the CG (Zeman et al., J. Comput. Phys.
2010) and gives K_ref p by a recurrence, so an iteration applies Delta K
alone, with neither a factorization nor an assembled matrix nor a per-voxel
elasticity.  The preconditioner is memoized per reference medium
(``reference_preconditioner``): a run's mean material is fixed and its
majority phase rarely changes, so its symbol and eigendecomposition are
built about once per run, not once per homogenization.  The solve returns
only the zero-mean correctors u.  The cell has one element DOF table,
``cell_dofs`` (periodic master DOFs, elements fastest): K_ref, Delta K and
the oracle's weighted terms are each one ``fem.element_apply`` on it
(``cell_operator``), the loads sum on it and readers gather u from it.  With
g_iq = I - B u_e the corrected strains (eps0 - eps) of the unit test strains
at Gauss point q of voxel i, formed one block of voxels at a time, the
cell-energy basis that D_h and every derivative read is
P[i, k] = sum_q w_q g_iq^T A_k g_iq for the two constant material parts
A0, A1.  Each phase elasticity is c[p, 0] A0 + c[p, 1] A1
(``materials.phase_coefficients``), so D_h, its derivatives with respect to
the material parameters and its derivative with respect to one voxel are all
scalar combinations of P.  A homogenization forms the phase moments M[p, k]
once, and rho_h is the ``mixed_density`` of the phase-1 fraction f
(``phase1_fraction``); ``EffectiveProperties.properties`` maps a material
kernel (``TwoPhaseMaterial.kernel``) to (D, rho) through M and f for every
parameter derivative and sensitivity form.  These derivatives hold the
strain fields fixed, which is exact for a first derivative of D_h because
the corrector is a stationary point of the energy form.  The robust micro
sensitivity reads the voxel derivative of the parameter derivatives, a
second derivative: on cantilever(4, 2) it is 0.26 % off at 30 kHz and 0.15 %
off at 120 Hz, and the exact form needs an adjoint cell solve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.fft  # noqa: F401  loaded at start-up, not inside the first cell solve

from .errors import NumericalError, SingularSystemError
from .fem import (
    RESIDUAL_TOL,
    StructuredGrid,
    _corner_offsets,
    element_apply,
    element_stiffness_batch,
    strain_operators,
)
from .materials import _PARTS, TwoPhaseMaterial, voigt_size

logger = logging.getLogger(__name__)

CG_RTOL = 1e-10  # relative residual at which the cell CG stops
BASIS_CHUNK = 256  # voxels per block of ``cell_energy_basis``


@lru_cache(maxsize=8)
def cell_dofs(grid: StructuredGrid) -> np.ndarray:
    """Read-only (ndof_e, n_voxels) periodic master DOFs of each voxel's local DOFs, elements fastest: the cell's
    ``StructuredGrid.elem_dofs.T``, with every node wrapped into the cell.  Master node ids are the voxel ids
    (x fastest), master node v holding DOFs dim * v + a.  Memoized per grid."""
    ids, axes = np.arange(grid.n_elems).reshape(grid.shape, order="F"), tuple(range(grid.dim))
    nodes = np.stack([np.roll(ids, -o, axes).ravel(order="F") for o in _corner_offsets(grid.dim)])
    dofs = (grid.dim * nodes[:, None] + np.arange(grid.dim)[:, None]).reshape(-1, grid.n_elems)
    dofs.setflags(write=False)
    return dofs


def cell_operator(grid: StructuredGrid, k_e: np.ndarray, weights=None, voxels=None):
    """u -> K u on blocks (n_red, k) for the periodic cell stiffness K that sums weights[i] k_e over the voxels i:
    all of them, or those in the mask ``voxels``, weights (n_selected,) of those voxels, by default 1.  Each column
    is one ``fem.element_apply`` on the ``cell_dofs`` of the selected voxels; the block keeps the layout of u."""
    dofs = cell_dofs(grid) if voxels is None else cell_dofs(grid)[:, voxels]
    scales, n = (1.0 if weights is None else weights,), grid.dim * grid.n_elems
    return lambda u: element_apply(dofs, n, scales, (k_e,), u.T).T


def cell_loads(grid: StructuredGrid, weights: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced load vectors (n_red, ncomp), the integral of B^T D_i eps0 per test strain, and the rounding floor
    (ncomp,) of each column's 2-norm, for D_i = sum_t weights[t, i] d[t] (weights (T, n_voxels), d (T, ncomp, ncomp)).

    A computed load entry sums 2^dim element entries, each a dot product of
    length ncomp, so it lies within (2^dim + ncomp) eps of the exact load
    relative to the same sums in absolute values (Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 3.1), here over |weights| and |d|,
    which bound |D_i|.  A column below that floor cannot be told from the
    exact zero load of a homogeneous cell: its correctors are zero, and the
    D_h error is f^T K^-1 f, second order in it.

    The loads and their absolute-value sums are formed one test strain at a
    time, each element column one product (ndof_e, T) @ (T, n_voxels) summed
    on ``cell_dofs`` by one ``bincount`` in corner order, so no per-voxel D and
    no (n_voxels, ndof_e, ncomp) stack is held; the sums live in their own
    array, which the returned loads do not keep alive.
    """
    b, _, w = strain_operators(grid.spacing)
    b_w = np.einsum("q,qce->ec", w, b)
    weights, d = np.asarray(weights, dtype=float), np.asarray(d, dtype=float)
    dofs, n = cell_dofs(grid), grid.dim * grid.n_elems
    loads = np.empty((n, b_w.shape[1]))
    magnitude = np.empty_like(loads)
    elem = np.empty(dofs.shape)  # one buffer: a fresh product per column page-faults again (5x the faults on 14^3)
    for c in range(b_w.shape[1]):
        np.matmul((d[:, :, c] @ b_w.T).T, weights, out=elem)
        loads[:, c] = np.bincount(dofs.ravel(), elem.ravel(), n)
        np.matmul((np.abs(d[:, :, c]) @ np.abs(b_w).T).T, np.abs(weights), out=elem)
        magnitude[:, c] = np.bincount(dofs.ravel(), elem.ravel(), n)
    floors = (2**grid.dim + voigt_size(grid.dim)) * np.finfo(float).eps * np.linalg.norm(magnitude, axis=0)
    return loads, floors


def corrected_strains(grid: StructuredGrid, u: np.ndarray, voxels=slice(None)) -> np.ndarray:
    """g = I - B u_e: (n, nq, ncomp, ncomp), column c the corrected strain eps0_c - eps_c at each Gauss point
    of the selected voxels, for the correctors u (n_red, ncomp) of ``solve_cell_problems``."""
    b = strain_operators(grid.spacing)[0]
    nq, ncomp, ndof_e = b.shape
    u_e = np.take(u, cell_dofs(grid).T[voxels], axis=0)
    g = (b.reshape(nq * ncomp, ndof_e) @ u_e).reshape(len(u_e), nq, ncomp, ncomp)
    return np.subtract(np.eye(ncomp), g, out=g)


def _phase_contrast(d_voxels: np.ndarray, d_ref: np.ndarray) -> float:
    """Ratio of the extreme generalized eigenvalues of (D_i, D_ref) over the voxel elasticities d_voxels.

    It bounds the spectrum of the reference-preconditioned cell operator:
    u^T K u / u^T K_ref u is a voxel-weighted average of eps^T D_i eps / eps^T D_ref eps.
    D(eta) is affine in eta, so the largest eigenvalue of (D(eta), D_ref) is
    convex in eta and the smallest concave: the smallest and largest eta suffice.
    """
    try:
        inv_l = np.linalg.inv(np.linalg.cholesky(d_ref))
    except np.linalg.LinAlgError:
        raise SingularSystemError(
            "unit cell system is singular: the reference voxel elasticity is not positive definite (void cell?)"
        ) from None
    lam = np.linalg.eigvalsh(inv_l @ d_voxels @ inv_l.T)
    if lam.min() <= 0.0:
        raise SingularSystemError("unit cell system is singular: a voxel elasticity is not positive definite")
    return float(lam.max() / lam.min())


class _ReferencePreconditioner:
    """Exact inverse, on zero-mean periodic fields, of the cell stiffness K_ref of one homogeneous material.

    That stiffness is block-circulant on the master-node grid, so the FFT
    diagonalizes it into one dim x dim Hermitian block per frequency, the
    symbol sum_ab conj(e^{i xi.o_a}) k_ab e^{i xi.o_b} of one element matrix
    k over the element's corner offsets o (Zeman et al., J. Comput. Phys.
    2010).  The zero frequency (rigid translation) is mapped to zero, so
    K_ref z = r - mean(r) per direction for z = K_ref^+ r.  ``condition`` is
    the ratio of the extreme eigenvalues of the other blocks, the condition
    number of K_ref on zero-mean fields.  The inverse symbol is held once,
    read-only, as (dim, dim, *frequencies), the layout its apply reads.
    Built through ``reference_preconditioner``, once per reference medium.
    """

    def __init__(self, grid: StructuredGrid, k_ref: np.ndarray):
        dim, corners = grid.dim, 2**grid.dim
        self.shape = grid.shape[::-1]  # master DOF dim * node + a is entry (..., y, x, a) in C order
        k = k_ref.reshape(corners, dim, corners, dim)
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
        self.inverse = np.ascontiguousarray(np.moveaxis(inverse, 0, -1)).reshape((dim, dim) + xi[0].shape)
        self.inverse.setflags(write=False)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """K_ref^+ r for a block r (n_red, k).

        The block is copied transposed to (k, dim, *grid), so ``rfftn`` runs
        over contiguous trailing axes, and each direction i sums
        inverse[i, j] r_hat[j] over j in order.
        """
        ndim, dim = len(self.shape), self.inverse.shape[0]
        axes = tuple(range(-ndim, 0))
        grid_first = r.reshape(self.shape + (dim, r.shape[1]))
        r_hat = np.fft.rfftn(np.moveaxis(grid_first, (ndim, ndim + 1), (1, 0)).copy(), axes=axes)
        z_hat = sum(self.inverse[:, j] * r_hat[:, None, j] for j in range(dim))
        z = np.fft.irfftn(z_hat, s=self.shape, axes=axes)
        return np.moveaxis(z, (0, 1), (ndim + 1, ndim)).reshape(r.shape)


@lru_cache(maxsize=8)
def reference_preconditioner(grid: StructuredGrid, k_ref: bytes) -> _ReferencePreconditioner:
    """The ``_ReferencePreconditioner`` of the element matrix whose float64 bytes (C order) are k_ref, memoized
    per (cell grid, reference element matrix) as ``cell_dofs`` is per grid: its symbol, ``eigh`` and
    condition number are built once per reference medium, not once per homogenization."""
    ndof_e = grid.dim * 2**grid.dim
    return _ReferencePreconditioner(grid, np.frombuffer(k_ref).reshape(ndof_e, ndof_e))


def solve_cell_problems(grid: StructuredGrid, eta: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Solve the periodic cell problems for all unit test strains.

    Voxel i has D_i = eta_i d1 + (1 - eta_i) d2 for the (n_voxels,) weights
    eta (``stiffness_weights``) and the two (ncomp, ncomp) phase elasticities.
    Returns the zero-mean reduced periodic correctors u (n_red_dofs, ncomp),
    one column per unit test strain (``corrected_strains`` reads g from them).

    One block conjugate-gradient run over the loaded columns on the cell
    stiffness K = K_ref + Delta K, preconditioned by the FFT inverse of K_ref.
    D_ref is the elasticity of the most common weight eta_ref, so Delta K
    applies (eta_i - eta_ref) (D1 - D2) on only the voxels whose weight
    differs: on a two-valued design at most half the cell.  A column whose
    load lies below its rounding floor (``cell_loads``) is the zero load and
    gets zero correctors.  Each answer must meet ``fem.RESIDUAL_TOL`` in its
    true residual on the zero-mean load.
    """
    ncomp = voigt_size(grid.dim)
    eta, d1, d2 = (np.asarray(a, dtype=float) for a in (eta, d1, d2))
    if eta.shape != (grid.n_elems,) or d1.shape != d2.shape or d1.shape != (ncomp, ncomp):
        raise ValueError(f"expected {grid.n_elems} voxel weights and two phase elasticities of shape {(ncomp, ncomp)}")
    levels, counts = np.unique(eta, return_counts=True)
    eta_ref = levels[np.argmax(counts)]
    d_ref = eta_ref * d1 + (1.0 - eta_ref) * d2
    ends = levels[[0, -1], None, None]
    kappa = _phase_contrast(ends * d1 + (1.0 - ends) * d2, d_ref)
    f, floors = cell_loads(grid, np.stack([eta, 1.0 - eta]), np.stack([d1, d2]))
    f = _zero_mean(f, grid.dim)
    loaded = np.linalg.norm(f, axis=0) > floors
    u = np.zeros_like(f)
    if loaded.any():
        k_ref, k_diff = element_stiffness_batch(np.stack([d_ref, d1 - d2]), grid.spacing)
        differ = eta != eta_ref
        difference = cell_operator(grid, k_diff, eta[differ] - eta_ref, differ)
        reference = reference_preconditioner(grid, k_ref.tobytes())
        u[:, loaded] = _block_cg(cell_operator(grid, k_ref), difference, f[:, loaded], reference, kappa)
    return u


def _zero_mean(v: np.ndarray, dim: int) -> np.ndarray:
    """Remove the mean of each displacement direction from a block of master-DOF vectors."""
    nodal = v.reshape(-1, dim, v.shape[1])
    return (nodal - nodal.mean(axis=0)).reshape(v.shape)


def _block_cg(stiffness, difference, f: np.ndarray, reference: _ReferencePreconditioner, kappa: float) -> np.ndarray:
    """Preconditioned CG for K = K_ref + Delta K on every column of the zero-mean block f, checked by its true residual.

    ``stiffness`` applies K_ref, for the final check only; ``difference``
    applies Delta K and ``reference`` K_ref^+.  The loop never forms K_ref p:
    for z = K_ref^+ r, K_ref z is r less its mean per direction, so p <- z + beta p carries
    s = K_ref p by s <- (r - mean r) + beta s, and the product is
    q = s + Delta K p.  The projection leaves the rounding mean of the load
    in r, which no K p can remove; without it the recursive residual falls
    far below the true one.  Once r is down to that mean, r . z is rounding
    and CG has no direction left, so a column whose r . z is not positive
    stops the run as the cap does.

    The preconditioned operator's spectrum lies within the phase contrast
    kappa, so after n iterations the energy norm of the error has fallen by
    at least 2 ((sqrt(kappa) - 1) / (sqrt(kappa) + 1))^n <= 2 exp(-2n / sqrt(kappa)),
    which reaches CG_RTOL at n = ceil(sqrt(kappa) / 2 * ln(2 / CG_RTOL)).
    The stop test reads the 2-norm of the residual, which can fall slower by
    up to sqrt(cond K) <= sqrt(kappa * cond K_ref); the margin of
    sqrt(kappa) / 4 * ln(kappa * cond K_ref) iterations covers that factor.
    Exact-arithmetic CG needs no more than this cap, so passing it raises.
    """
    dim = len(reference.shape)
    margin = 0.5 * np.log(kappa * reference.condition)
    cap = int(np.ceil(0.5 * np.sqrt(kappa) * (np.log(2.0 / CG_RTOL) + margin)))
    norm_f = np.linalg.norm(f, axis=0)
    x = np.zeros_like(f)
    cols = np.arange(f.shape[1])  # the columns still iterating, and their iterates below
    x_c, r = np.zeros_like(f), f.copy()
    p = reference(r)
    s = _zero_mean(r, dim)  # K_ref p
    rz = np.einsum("ij,ij->j", r, p)
    iterations = 0
    while True:
        done = np.linalg.norm(r, axis=0) <= CG_RTOL * norm_f[cols]
        if done.any():
            x[:, cols[done]] = x_c[:, done]
            cols, x_c, r, p, s, rz = cols[~done], x_c[:, ~done], r[:, ~done], p[:, ~done], s[:, ~done], rz[~done]
        if cols.size == 0:
            break
        if iterations == cap or not np.all(rz > 0.0):
            raise NumericalError(
                f"cell CG did not reach a relative residual of {CG_RTOL:g} in {iterations} iterations "
                f"(bound {cap}) for phase contrast kappa = {kappa:.4g}"
            )
        iterations += 1
        q = s + difference(p)
        alpha = rz / np.einsum("ij,ij->j", p, q)
        x_c += alpha * p
        r -= alpha * q
        z = reference(r)
        rz_new = np.einsum("ij,ij->j", r, z)
        beta = rz_new / rz
        p = z + beta * p
        s = _zero_mean(r, dim) + beta * s
        rz = rz_new
    logger.debug("cell CG: %d iterations (bound %d, phase contrast %.4g)", iterations, cap, kappa)
    x = _zero_mean(x, dim)
    residual = np.empty(f.shape[1])
    for c in range(f.shape[1]):  # one column at a time: no (n_voxels, ndof_e, k) element stack of the block
        column = x[:, c : c + 1]
        residual[c] = np.linalg.norm(f[:, c] - stiffness(column)[:, 0] - difference(column)[:, 0])
    if not np.all(residual <= RESIDUAL_TOL * norm_f):
        raise NumericalError(
            f"cell solve failed the residual contract (|r|/|f| = {np.max(residual / norm_f):.3e} > {RESIDUAL_TOL})"
        )
    return x


def stiffness_weights(x: np.ndarray, penalty: float) -> np.ndarray:
    """Phase-1 stiffness fraction per voxel under the power-law interpolation."""
    return np.asarray(x, dtype=float) ** penalty


def phase1_fraction(grid: StructuredGrid, x_sum):
    """f = (V_i / |Y|) x_sum, the phase-1 volume fraction of a cell whose voxel variables sum to x_sum; broadcasts.

    rho_h = ``mixed_density(f)`` is the one effective density: ``homogenize``,
    ``effective_density``, ``problem.design_weight`` and the Monte Carlo oracle
    all read f here, so they agree bitwise.
    """
    return grid.elem_volume / grid.volume * x_sum


def effective_density(x: np.ndarray, material: TwoPhaseMaterial, grid: StructuredGrid) -> float:
    """rho_h: the ``mixed_density`` of the cell's ``phase1_fraction``, each voxel variable its phase-1 fraction."""
    return float(material.mixed_density(phase1_fraction(grid, np.sum(x))))


def cell_energy_basis(grid: StructuredGrid, u: np.ndarray) -> np.ndarray:
    """P[i, k] = sum_q w_q g_iq^T A_k g_iq: (n_voxels, 2, ncomp, ncomp), symmetric in the last two axes.

    The corrected strains g of the correctors u are formed BASIS_CHUNK voxels
    at a time, so neither the whole g nor the whole gather of u is held.
    """
    w = strain_operators(grid.spacing)[2]
    ncomp = u.shape[1]
    parts = np.array(_PARTS[grid.dim])[None, :, None]
    basis = np.empty((grid.n_elems, 2, ncomp, ncomp))
    for start in range(0, grid.n_elems, BASIS_CHUNK):
        chunk = corrected_strains(grid, u, slice(start, start + BASIS_CHUNK))
        n, nq = chunk.shape[:2]
        a_g = (parts @ chunk[:, None]).reshape(n, 2, nq * ncomp, ncomp)
        g_w = (chunk * w[:, None, None]).reshape(n, 1, nq * ncomp, ncomp)
        p = np.swapaxes(g_w, -1, -2) @ a_g
        basis[start : start + n] = 0.5 * (p + np.swapaxes(p, -1, -2))
    return basis


def effective_elasticity(
    grid: StructuredGrid, u: np.ndarray, eta: np.ndarray, coefficients: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D_h from the cell correctors u, with the cell-energy basis and the phase moments it is read from.

    The phase moments M[p, k] = sum_i weight_p(i) P[i, k] / |Y|, with the
    phase weights eta and 1 - eta, are formed here once per homogenization,
    and D_h = sum_pk c[p, k] M[p, k] for the phase coefficients c of
    ``materials.phase_coefficients``, as ``EffectiveProperties.properties``
    reads every other kernel.
    """
    basis = cell_energy_basis(grid, u)
    moments = np.stack([eta, 1.0 - eta]) @ basis.reshape(grid.n_elems, -1)
    moments = moments.reshape((2,) + basis.shape[1:]) / grid.volume
    d_h = np.tensordot(coefficients, moments, axes=2)
    return 0.5 * (d_h + d_h.T), basis, moments


@dataclass
class EffectiveProperties:
    """Homogenized unit cell state: the effective properties and what their derivatives are read from."""

    grid: StructuredGrid
    material: TwoPhaseMaterial
    d_h: np.ndarray
    rho_h: float
    basis: np.ndarray  # P[i, k], see cell_energy_basis
    moments: np.ndarray  # M[p, k], see effective_elasticity
    fraction: float  # f, see phase1_fraction

    def properties(self, kernel: np.ndarray) -> tuple[np.ndarray, float]:
        """(D, rho) of the cell with the phase properties replaced by a (2, 3) ``TwoPhaseMaterial.kernel``.

        D = sum_pk kernel[p, k] M[p, k], made exactly symmetric, and
        rho = f kernel[0, 2] + (1 - f) kernel[1, 2]: linear in the kernel,
        and (d_h, rho_h) bitwise for the material's own.
        """
        d = np.tensordot(kernel[:, :2], self.moments, axes=2)
        return 0.5 * (d + d.T), self.fraction * kernel[0, 2] + (1.0 - self.fraction) * kernel[1, 2]

    def d_h_derivative(self, wrt: tuple[str, ...]) -> np.ndarray:
        """d^k D_h / d(theta...) holding the cell strain fields fixed."""
        return self.properties(self.material.kernel(self.grid.dim, wrt))[0]

    def rho_h_derivative(self, wrt: tuple[str, ...]) -> float:
        return self.properties(self.material.kernel(self.grid.dim, wrt))[1]


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
    eta = stiffness_weights(x, penalty)
    u = solve_cell_problems(grid, eta, material.phase1.elasticity(grid.dim), material.phase2.elasticity(grid.dim))
    d_h, basis, moments = effective_elasticity(grid, u, eta, material.coefficients(grid.dim))
    f = phase1_fraction(grid, np.sum(x))
    rho_h = float(material.mixed_density(f))
    return EffectiveProperties(grid, material, d_h, rho_h, basis, moments, f)


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
