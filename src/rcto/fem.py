"""Structured-mesh finite element kernel.

Bilinear quads (2D) / trilinear hexes (3D) on a regular grid, full 2-point
Gauss integration per axis, consistent mass, banded assembly, and solves of
the dynamic stiffness K - omega^2 M by a banded Cholesky factorization.
Boundary conditions are enforced by row/column elimination.  All element
matrices are exact for constant coefficients under the 2-point rule.  Node,
element and DOF numbering all read one table, ``StructuredGrid.node_ids``.

A ``SparsityPattern`` maps each element entry to its slot in LAPACK upper
band storage, dropping those below the diagonal or on constrained DOFs, so
one scatter of a few scaled reference element matrices gives the band of
the free block of a system without an element stack.  Only the macro mesh
is assembled: its dynamic stiffness is the one system factored in a run,
its free DOFs in a band order (``band_order``; George and Liu, *Computer
Solution of Large Sparse Positive Definite Systems*, 1981) that LAPACK's
blocked banded Cholesky ``dpbtrf`` factors in place.  A drive at or above
the first natural frequency makes K - omega^2 M indefinite, where minimum
dynamic compliance is not defined; Cholesky refuses it and the
factorization raises ``SingularSystemError``.  The periodic cell is never
assembled.

No run path builds a sparse matrix: ``scipy.sparse`` is imported only inside
the reference assemblers the tests compare against (``assemble``,
``sum_to_csc``, ``solve_system``), so ``import rcto`` does not load it.
``rcto.fem.splu`` resolves lazily through the module ``__getattr__``.

Unit system: N, mm, tonne, s (so moduli in MPa, densities in tonne/mm^3,
frequencies converted to rad/s by the caller).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import SingularSystemError

RESIDUAL_TOL = 1e-9


def __getattr__(name: str):
    # ``rcto.fem.splu`` is unused here and kept only because perfbench's tracer wraps it; ROADMAP item 4 drops both
    if name == "splu":
        from scipy.sparse.linalg import splu

        return splu
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class StructuredGrid:
    """Regular grid of square/cubic elements; node and element numbering lives in ``node_ids`` (x fastest)."""

    shape: tuple[int, ...]
    spacing: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "spacing", tuple(float(h) for h in self.spacing))
        if self.dim not in (2, 3):
            raise ValueError(f"grid must be 2D or 3D, got shape {self.shape}")
        if len(self.spacing) != self.dim:
            raise ValueError("spacing must have one entry per axis")
        if any(n < 1 for n in self.shape) or any(h <= 0 for h in self.spacing):
            raise ValueError("element counts must be >= 1 and spacings > 0")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @cached_property
    def n_elems(self) -> int:
        return math.prod(self.shape)

    @property
    def nodes_shape(self) -> tuple[int, ...]:
        return tuple(n + 1 for n in self.shape)

    @cached_property
    def n_nodes(self) -> int:
        return math.prod(self.nodes_shape)

    @property
    def n_dofs(self) -> int:
        return self.dim * self.n_nodes

    @cached_property
    def elem_volume(self) -> float:
        return math.prod(self.spacing)

    @property
    def volume(self) -> float:
        return self.elem_volume * self.n_elems

    @cached_property
    def node_ids(self) -> np.ndarray:
        """Read-only flat node id of every node, indexed [i, j(, k)] like ``nodes_shape``; ids run x fastest."""
        ids = np.arange(self.n_nodes).reshape(self.nodes_shape, order="F")
        ids.setflags(write=False)
        return ids

    @cached_property
    def elem_node_ids(self) -> np.ndarray:
        """(n_elems, 4 or 8) node ids in the standard counterclockwise ordering."""
        corners = [tuple(slice(o, o + n) for o, n in zip(offset, self.shape)) for offset in _corner_offsets(self.dim)]
        return np.stack([self.node_ids[box].ravel(order="F") for box in corners], axis=1)

    @cached_property
    def elem_dofs(self) -> np.ndarray:
        nodes = self.elem_node_ids
        dofs = self.dim * nodes[:, :, None] + np.arange(self.dim)[None, None, :]
        return dofs.reshape(self.n_elems, -1)

    @cached_property
    def centroids(self) -> np.ndarray:
        axes = [(np.arange(n) + 0.5) * h for n, h in zip(self.shape, self.spacing)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel(order="F") for g in grids], axis=-1)


def _corner_offsets(dim: int) -> np.ndarray:
    if dim == 2:
        return np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
    return np.array(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
         [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]]
    )


# strain components as axis pairs (i, j), in the Voigt order of ``materials``
_VOIGT_PAIRS = {
    2: ((0, 0), (1, 1), (0, 1)),  # xx, yy, xy
    3: ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)),  # xx, yy, zz, yz, xz, xy
}


@lru_cache(maxsize=32)
def strain_operators(spacing: tuple[float, ...]):
    """Gauss-point operators for one rectangular element.

    Returns (b, n, w): strain-displacement matrices b (nq, ncomp, ndof),
    displacement interpolation n (nq, dim, ndof) and integration weights w
    (nq,) that already include the Jacobian, so sum(w) = element volume.
    """
    dim = len(spacing)
    corners = _corner_offsets(dim) * 2.0 - 1.0
    g = 1.0 / np.sqrt(3.0)
    points = np.array(list(itertools.product(*[(-g, g)] * dim)))
    nq = len(points)
    n_nodes = corners.shape[0]
    ndof = dim * n_nodes
    pairs = _VOIGT_PAIRS[dim]
    detj = np.prod(spacing) / 2.0**dim

    b = np.zeros((nq, len(pairs), ndof))
    n = np.zeros((nq, dim, ndof))
    for q, xi in enumerate(points):
        shape = np.prod(1.0 + corners * xi, axis=1) / 2.0**dim
        # dN/dx_a = (corner_a / 2) * prod_{b != a}(1 + corner_b xi_b) / 2^(d-1) * (2 / h_a)
        grad = np.zeros((dim, n_nodes))
        for a in range(dim):
            others = [bx for bx in range(dim) if bx != a]
            term = corners[:, a] / 2.0**dim
            for bx in others:
                term = term * (1.0 + corners[:, bx] * xi[bx])
            grad[a] = term * (2.0 / spacing[a])
        for a in range(dim):
            n[q, a, a::dim] = shape
        for c, (i, j) in enumerate(pairs):  # du_i/dx_j + du_j/dx_i, engineering shear off the diagonal
            b[q, c, i::dim] = grad[j]
            b[q, c, j::dim] = grad[i]
    w = np.full(nq, detj)
    b.setflags(write=False)
    n.setflags(write=False)
    w.setflags(write=False)
    return b, n, w


@lru_cache(maxsize=32)
def stiffness_basis(spacing: tuple[float, ...]) -> np.ndarray:
    """Reference basis (ncomp**2, ndof_e**2) with k_e = D.ravel() @ basis for any D.

    Row (c, d) is the element integral of (B_c^T B_d + B_d^T B_c) / 2, so a
    whole stack of element stiffnesses is one GEMM.  The basis is made
    bitwise symmetric in (c, d) and in the DOF pair (e, f), so every k_e,
    and every matrix scattered from k_e stacks, is exactly symmetric even
    for a nonsymmetric D.
    """
    b, _, w = strain_operators(tuple(spacing))
    basis = np.einsum("q,qce,qdf->cdef", w, b, b)
    basis = 0.5 * (basis + basis.transpose(1, 0, 2, 3))
    basis = 0.5 * (basis + basis.transpose(0, 1, 3, 2)).reshape(b.shape[1] ** 2, b.shape[2] ** 2)
    basis.setflags(write=False)
    return basis


def element_stiffness_batch(d_mats: np.ndarray, spacing) -> np.ndarray:
    """Element stiffness stack (n, ndof_e, ndof_e) from an (n, ncomp, ncomp) D stack."""
    n, ndof = d_mats.shape[0], strain_operators(tuple(spacing))[0].shape[2]
    basis = stiffness_basis(tuple(spacing))
    return (np.reshape(d_mats, (n, basis.shape[0])) @ basis).reshape(n, ndof, ndof)


def element_stiffness(d: np.ndarray, spacing: tuple[float, ...]) -> np.ndarray:
    """Elasticity-weighted stiffness integral of B^T D B over one element."""
    d = np.asarray(d, dtype=float)
    ncomp = 3 if len(spacing) == 2 else 6
    if d.shape != (ncomp, ncomp):
        raise ValueError(f"elasticity matrix shape {d.shape} does not match {len(spacing)}D element")
    if not np.allclose(d, d.T, rtol=1e-12, atol=1e-12 * max(1.0, float(np.abs(d).max()))):
        raise ValueError("elasticity matrix must be symmetric")
    return element_stiffness_batch(d[None], spacing)[0]


def element_mass(rho: float, spacing: tuple[float, ...]) -> np.ndarray:
    """Consistent mass integral of rho N^T N over one element."""
    if rho < 0:
        raise ValueError(f"density must be nonnegative, got {rho}")
    _, n, w = strain_operators(tuple(spacing))
    m = rho * np.einsum("q,qde,qdf->ef", w, n, n)
    return 0.5 * (m + m.T)


def element_matrices_batch(d_mats: np.ndarray, rhos: np.ndarray, spacing) -> tuple[np.ndarray, np.ndarray]:
    """Per-element (k_e, m_e) stacks for per-element elasticity matrices and densities."""
    m = rhos[:, None, None] * element_mass(1.0, spacing)
    return element_stiffness_batch(d_mats, spacing), m


def assemble(grid: StructuredGrid, d_mats, rhos):
    """Assemble global CSC (K, M) from one elasticity matrix and density per element.

    d_mats may be a single (ncomp, ncomp) matrix or a (n_elems, ncomp, ncomp)
    stack; rhos a scalar or (n_elems,) vector.
    """
    ncomp = 3 if grid.dim == 2 else 6
    d_mats = np.asarray(d_mats, dtype=float)
    if d_mats.ndim == 2:
        d_mats = np.broadcast_to(d_mats, (grid.n_elems, ncomp, ncomp))
    if d_mats.shape != (grid.n_elems, ncomp, ncomp):
        raise ValueError(f"expected per-element D of shape {(grid.n_elems, ncomp, ncomp)}, got {d_mats.shape}")
    rhos = np.broadcast_to(np.asarray(rhos, dtype=float), (grid.n_elems,))
    if np.any(rhos < 0):
        raise ValueError("densities must be nonnegative")
    k_all, m_all = element_matrices_batch(d_mats, rhos, grid.spacing)
    return sum_to_csc(grid.elem_dofs, grid.n_dofs, k_all), sum_to_csc(grid.elem_dofs, grid.n_dofs, m_all)


def sum_to_csc(dofs: np.ndarray, n: int, elem_mats: np.ndarray):
    """Sum a (n_elems, ndof_e, ndof_e) stack on the DOFs ``dofs`` into an n x n CSC matrix by plain COO assembly."""
    import scipy.sparse as sp

    rows, cols = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :])
    return sp.csc_matrix((elem_mats.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))


def band_order(node_ids: np.ndarray) -> np.ndarray:
    """Band order of the DOFs of a node box (``StructuredGrid.node_ids``, dim DOFs per node).

    The nodes are listed with the shortest axis fastest, so the half-bandwidth
    is one node layer across the other axes; each node's DOFs stay together.
    """
    axes = np.argsort(node_ids.shape, kind="stable")
    nodes = np.transpose(node_ids, axes).ravel(order="F")
    return (node_ids.ndim * nodes[:, None] + np.arange(node_ids.ndim)).ravel()


@dataclass(frozen=True, eq=False)
class SparsityPattern:
    """Half-bandwidth kd of an assembled symmetric matrix and the band slots of the element entries.

    The band is LAPACK upper band storage (Users' Guide, 3rd ed., 5.3.4): an F-ordered (kd + 1, n)
    array with entry (r, c), r <= c, at [kd + r - c, c].  ``pairs[p]`` is a local entry (i, j) that
    reaches the band in some element, and ``slots[p, e]`` the flat slot of entry (dofs[e, i], dofs[e, j]);
    an entry below the diagonal (its mirror holds the same value) or on a negative DOF id (a constrained
    DOF) goes one slot past the band, which ``scatter`` drops.  Local DOF i of distinct elements is
    distinct DOFs, so the band slots within one row of ``slots`` are distinct.
    """

    n: int
    kd: int
    pairs: np.ndarray
    slots: np.ndarray

    @classmethod
    def from_dofs(cls, dofs: np.ndarray, n: int) -> "SparsityPattern":
        dofs = np.asarray(dofs, dtype=np.intp)
        for local in dofs.T:
            kept = local[local >= 0]
            if np.unique(kept).size != kept.size:
                raise ValueError("a local DOF maps two elements onto one DOF; scatter adds one element per slot")
        kd = int(np.max(dofs.max(axis=1) - np.where(dofs < 0, n, dofs).min(axis=1), initial=0))
        pairs, slots = [], []
        for i, j in itertools.product(range(dofs.shape[1]), repeat=2):
            rows, cols = dofs[:, i], dofs[:, j]
            upper = (rows >= 0) & (rows <= cols)  # both DOFs free, on or above the diagonal
            if upper.any():
                pairs.append((i, j))
                slots.append(np.where(upper, kd + rows - cols + (kd + 1) * cols, (kd + 1) * n))
        pairs, slots = np.array(pairs, dtype=np.intp).reshape(-1, 2), np.array(slots, dtype=np.intp)
        for table in (pairs, slots):
            table.setflags(write=False)  # shared by every band scattered with this pattern
        return cls(n, kd, pairs, slots)


def scatter(pattern: SparsityPattern, scales: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Sum sum_r scales[r, e] matrices[r] over the elements e into the (kd + 1, n) upper band of a pattern.

    ``scales`` is (R, n_elems) and ``matrices`` (R, ndof_e, ndof_e): each element matrix is a combination
    of R shared ones, so the band is filled one local entry at a time and no element stack is formed.
    """
    size = (pattern.kd + 1) * pattern.n
    flat = np.zeros(size + 1)
    weights = np.asarray(scales, dtype=float).T
    for (i, j), slots in zip(pattern.pairs, pattern.slots):
        flat[slots] += weights @ matrices[:, i, j]  # distinct band slots: no entry is added twice
    return flat[:size].reshape((pattern.kd + 1, pattern.n), order="F")


class FactorizedSystem:
    """Factorization of the free block of a dynamic stiffness, counting backsolves.

    ``band`` is the block's upper band (``SparsityPattern``), rows and columns in the order of ``free``
    (``MacroProblem.free`` is in band order).  ``dpbtrf`` factors it in place, so the caller's band holds
    the Cholesky factor afterwards; a band it refuses as not positive definite raises
    ``SingularSystemError``: for symmetric positive definite K and M, K - omega^2 M is definite exactly
    when omega lies below the first natural frequency.  Solves are checked against the band's nonzero
    diagonals, copied out before the factorization.  One factorization serves every right-hand side;
    ``calls`` counts FEA calls (linear-system applications), one per right-hand side column.
    """

    def __init__(self, band: np.ndarray, free: np.ndarray, n_dofs: int):
        self.n_dofs = int(n_dofs)
        self.free = np.asarray(free, dtype=np.intp)
        if self.free.size == 0 or self.free.size >= self.n_dofs:
            raise ValueError("need at least one constrained DOF and at least one free DOF")
        self._kd = len(band) - 1
        self._rows = np.flatnonzero(np.any(band, axis=1))  # band row kd - d holds diagonal d
        self._diagonals = band[self._rows]
        self._factor, info = dpbtrf(band, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"dpbtrf rejected its argument {-info}")
        if info > 0:
            raise SingularSystemError(
                "Cholesky refused K - omega^2 M as not positive definite, so the drive is at or above "
                "the first natural frequency, where minimum dynamic compliance is not defined; "
                "a rigid-body mode is a natural frequency of 0"
            )
        self._calls = 0

    @property
    def calls(self) -> int:
        return self._calls

    def _residual_into(self, x: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Overwrite a block f with K x - f column by column, K read from its kept diagonals and their mirrors."""
        n = len(x)
        for xc, rc in zip(x.T, f.T):
            np.negative(rc, out=rc)
            for row, a in zip(self._rows, self._diagonals):
                d = self._kd - row  # a[c] = K[c - d, c] for c >= d
                rc[: n - d] += a[d:] * xc[d:]
                if d:
                    rc[d:] += a[d:] * xc[: n - d]
        return f

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve K_d u = rhs for a full-length vector or an (n_dofs, k) block.

        A block is one backsolve call and counts as k FEA calls.  Each column
        must pass the residual contract relative to its own norm.  A zero
        column needs no mask: ``dpbtrs`` returns exact zeros for it, whose
        residual 0 meets the contract.  The free rows are copied once, in the
        Fortran order ``dpbtrs`` reads, and that copy then holds the residual,
        so a block costs its copy, its solution and the returned u.
        """
        rhs = np.asarray(rhs, dtype=float)
        block = rhs.reshape(self.n_dofs, -1)
        f = np.empty((self.free.size, block.shape[1]), order="F")  # the layout dpbtrs reads without a copy
        for j, column in enumerate(block.T):
            f[:, j] = column[self.free]
        self._calls += f.shape[1]
        norm_f = _column_norms(f)
        x = dpbtrs(self._factor, f)[0]
        residual = _column_norms(self._residual_into(x, f))
        del f  # u takes the residual's place
        failed = ~(residual <= RESIDUAL_TOL * norm_f)  # a NaN residual fails
        if failed.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.max(residual[failed] / norm_f[failed])
            raise SingularSystemError(
                "linear solve failed the residual contract "
                f"(|r|/|f| = {ratio:.3e} > {RESIDUAL_TOL}); "
                "the excitation frequency may sit at a resonance"
            )
        u = np.zeros((self.n_dofs, x.shape[1]))
        u[self.free] = x
        return u.reshape(rhs.shape)


def _column_norms(a: np.ndarray) -> np.ndarray:
    """2-norm of each column of a block, without the block of squares that ``np.linalg.norm(a, axis=0)`` forms."""
    return np.sqrt(np.einsum("ij,ij->j", a, a))


def solve_system(k, m, omega: float, f: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """One-shot constrained solve of (K - omega^2 M) u = f in index order, at a cost set by that order's bandwidth.

    Raises ``SingularSystemError`` when omega is at or above the first natural frequency (``FactorizedSystem``).
    """
    import scipy.sparse as sp

    free = np.setdiff1d(np.arange(k.shape[0]), fixed)
    upper = sp.triu((k - omega**2 * m).tocsc()[free][:, free], format="coo")  # a CSC block holds no duplicates
    kd = int(np.max(upper.col - upper.row, initial=0))
    band = np.zeros((kd + 1, free.size), order="F")
    band[kd + upper.row - upper.col, upper.col] = upper.data
    return FactorizedSystem(band, free, k.shape[0]).solve(f)


def mean_compliance(f: np.ndarray, u: np.ndarray) -> float:
    """Mean compliance F^T U (static or harmonic amplitude form)."""
    return float(np.dot(f, u))
