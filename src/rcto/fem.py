"""Structured-mesh finite element kernel.

Bilinear quads (2D) / trilinear hexes (3D) on a regular grid, full 2-point
Gauss integration per axis, consistent mass, banded assembly, and solves of
the dynamic stiffness K - omega^2 M by a banded Cholesky factorization.
Boundary conditions are enforced by row/column elimination.  All element
matrices are exact for constant coefficients under the 2-point rule.  Node,
element and DOF numbering all read one table, ``StructuredGrid.node_ids``.

A ``SparsityPattern`` is the ranked element DOFs, each constrained DOF
ranked past the band, and the local entries (i, j) that reach the upper
band.  ``scatter`` puts entry (i, j) of an element at the LAPACK upper band
slot min(kd + r_i + kd r_j, (kd + 1) n) of its ranks, past the band (and so
dropped) on a constrained DOF.  The slot is right because every kept entry
lies on or above the diagonal in each element where both its DOFs are free,
as in any structured-grid numbering; ``from_dofs`` refuses a rank map
without that property.  So one scatter of a few scaled reference element
matrices gives the band of the free block of a system with neither an
element stack nor a table of slots.  Only the macro mesh
is assembled: its dynamic stiffness is the one system factored in a run,
its free DOFs in a band order (``band_order``; George and Liu, *Computer
Solution of Large Sparse Positive Definite Systems*, 1981) that LAPACK's
blocked banded Cholesky ``dpbtrf`` factors in place.  A drive at or above
the first natural frequency makes K - omega^2 M indefinite, where minimum
dynamic compliance is not defined; Cholesky refuses it and the
factorization raises ``SingularSystemError``.  Every solve is checked by
the element operator that built the band, not by a copy of the band:
``element_apply``, which applies the (scales, matrices) form that
``scatter`` bands, matrix-free, on an element-fastest DOF table.  It is the
one matrix-free element kernel of both scales, the macro mesh's
``elem_dofs.T`` and the periodic cell's ``homogenization.cell_dofs``; the
periodic cell is never assembled.

No run path builds a sparse matrix: ``scipy.sparse`` is imported only inside
``sum_to_csc``, read only by ``problem.parameter_to_matrices``, the reference
the tests compare ``ParameterOperator`` against, so ``import rcto`` does not
load it.
``rcto.fem.splu`` resolves lazily through the module ``__getattr__``.  Nor
does ``import rcto`` run any scipy package code, not even
``scipy/__init__.py``: ``dpbtrf`` and ``dpbtrs`` come from scipy's compiled
LAPACK module ``scipy.linalg._flapack``, loaded on its own from scipy's
install directory (``_flapack``), which spares every run the packages'
start-up time and memory.

Unit system: N, mm, tonne, s (so moduli in MPa, densities in tonne/mm^3,
frequencies converted to rad/s by the caller).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import SingularSystemError

RESIDUAL_TOL = 1e-9
BACKWARD_TOL = 64 * np.finfo(float).eps  # normwise backward error of an accepted macro solve
MARGIN_TOL = 1e-6  # smallest accepted resonance margin lambda_1 - omega^2, relative to omega^2


def _flapack():
    """scipy's f2py LAPACK module ``scipy.linalg._flapack``, loaded without running any scipy package code.

    ``find_spec("scipy")`` locates the install directory without executing ``scipy/__init__.py`` (its
    config, test utilities and ``subprocess``), and the extension module is loaded from ``linalg`` there,
    skipping ``scipy/linalg/__init__.py`` (most of scipy.linalg plus numpy.f2py, numpy.testing and numpy.ma).
    It is registered under its own name, so ``import scipy.linalg``, before or after, shares the one module
    object."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        (root,) = importlib.util.find_spec("scipy").submodule_search_locations
        spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(root, "linalg")])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


dpbtrf = _flapack().dpbtrf
dpbtrs = _flapack().dpbtrs


def __getattr__(name: str):
    # ``rcto.fem.splu`` is unused here, kept only for perfbench's tracer; ROADMAP's run-trace item drops both
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
        """(n_elems, ndof_e) DOF ids, local DOF dim * corner + a, stored elements fastest: ``elem_dofs.T`` is
        C-contiguous, so ``u[elem_dofs.T]`` gathers a field as one (ndof_e, n_elems) block with a contiguous
        element axis."""
        nodes = self.elem_node_ids.T
        dofs = self.dim * nodes[:, None, :] + np.arange(self.dim)[None, :, None]
        return dofs.reshape(-1, self.n_elems).T

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


def sum_to_csc(dofs: np.ndarray, n: int, elem_mats: np.ndarray):
    """Sum a (n_elems, ndof_e, ndof_e) stack on the DOFs ``dofs`` into an n x n CSC matrix by plain COO assembly."""
    import scipy.sparse as sp

    rows, cols = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :])
    return sp.csc_matrix((elem_mats.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))


def unique_ids(ids: np.ndarray) -> np.ndarray:
    """``np.unique(ids)`` by one sort and a mask; a plain ``np.unique`` imports ``numpy.ma``, which no run needs."""
    ids = np.sort(np.ravel(ids))
    first = np.ones(ids.size, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    return ids[first]


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
    """Half-bandwidth kd of an assembled symmetric matrix and the ranked element DOFs that place its entries.

    The band is LAPACK upper band storage (Users' Guide, 3rd ed., 5.3.4): an F-ordered (kd + 1, n) array
    with entry (r, c), r <= c, at [kd + r - c, c], the flat slot kd + r + kd c.  ``ranks[i, e]`` is the row
    of local DOF i of element e, or (kd + 1) n, past the band, for a constrained DOF (a negative id).
    ``pairs[p]`` is a local entry (i, j) that reaches the band in some element; ``scatter`` puts it at
    min(kd + r_i + kd r_j, (kd + 1) n), so an entry on a constrained DOF goes past the band, where it is
    dropped (for kd = 0 every kept entry is diagonal, the DOFs of one element being distinct).  The slot
    is right only where the entry lies on or above the diagonal: every kept entry must do so, r_i <= r_j,
    in each element where both its DOFs are free, and its mirror below the diagonal, which holds the same
    value, is not kept.  Any structured-grid numbering has this property, natural or band order with the
    constrained DOFs dropped, and ``from_dofs`` refuses a rank map without it.  Local DOF i of distinct
    elements is distinct DOFs, so the band slots of one pair are distinct.
    """

    n: int
    kd: int
    pairs: np.ndarray
    ranks: np.ndarray

    @classmethod
    def from_dofs(cls, dofs: np.ndarray, n: int) -> "SparsityPattern":
        dofs = np.asarray(dofs, dtype=np.intp)
        kd = int(np.max(dofs.max(axis=1) - np.where(dofs < 0, n, dofs).min(axis=1), initial=0))
        past = (kd + 1) * n
        ranks = np.where(dofs < 0, past, dofs).T.copy()
        ordered = np.sort(ranks, axis=1)
        if np.any((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] < past)):
            raise ValueError("a local DOF maps two elements onto one DOF; scatter adds one element per slot")
        free = ranks < past
        kept = np.empty((len(ranks), len(ranks)), dtype=bool)
        for i, rank in enumerate(ranks):  # entries (i, j) for every j at once
            both = free & free[i]
            kept[i] = (both & (rank <= ranks)).any(axis=1)
            if np.any(kept[i] & (both & (rank > ranks)).any(axis=1)):
                raise ValueError("a local entry lies above the diagonal in one element and below it in another; "
                                 "scatter places each local entry on one side")
        pairs = np.argwhere(kept)
        for table in (pairs, ranks):
            table.setflags(write=False)  # shared by every band scattered with this pattern
        return cls(n, kd, pairs, ranks)


def scatter(pattern: SparsityPattern, scales: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Sum sum_r scales[r, e] matrices[r] over the elements e into the (kd + 1, n) upper band of a pattern.

    ``scales`` is R (n_elems,) rows and ``matrices`` R (ndof_e, ndof_e) ones, the form ``element_apply`` applies:
    each element matrix is a combination of R shared ones, so the band is filled one local entry at a time and
    no element stack is formed.  The entry's band slots are formed from the pattern's ranks in one reused buffer.
    """
    kd, ranks = pattern.kd, pattern.ranks
    size = (kd + 1) * pattern.n
    flat = np.zeros(size + 1)
    weights = np.asarray(scales, dtype=float).T
    matrices = np.asarray(matrices)
    slots = np.empty(ranks.shape[1], dtype=np.intp)
    for i, j in pattern.pairs:
        np.multiply(ranks[j], kd, out=slots)
        slots += ranks[i]
        slots += kd
        np.minimum(slots, size, out=slots)
        flat[slots] += weights @ matrices[:, i, j]  # distinct band slots: no entry is added twice
    return flat[:size].reshape((kd + 1, pattern.n), order="F")


def element_apply(dofs: np.ndarray, n: int, scales, matrices, u: np.ndarray) -> np.ndarray:
    """sum_e sum_r scales[r][e] matrices[r] u_e for fields u (..., n), matrix-free: the operator ``scatter`` bands.

    ``dofs`` is an element-fastest (ndof_e, n_elems) C-contiguous DOF table, so each field is gathered as one
    block whose element axis is contiguous: one GEMM per term, one scaling along the element axis and one
    ``bincount`` that sums each DOF's element entries in local-DOF (corner) order.  A scale is an (n_elems,)
    array or a scalar.  The fields are applied one at a time, so no element stack of all of them is formed;
    the output has the layout of u.
    """
    flat = dofs.ravel()
    out = np.empty_like(u, dtype=float)
    for i in np.ndindex(u.shape[:-1]):
        ue = u[i][dofs]
        forces = matrices[0] @ ue
        forces *= scales[0]
        for scale, matrix in zip(scales[1:], matrices[1:]):
            term = matrix @ ue
            term *= scale
            forces += term
        out[i] = np.bincount(flat, weights=forces.ravel(), minlength=n)
    return out


class FactorizedSystem:
    """Factorization of the free block of a dynamic stiffness, counting backsolves.

    ``band`` is the block's upper band (``SparsityPattern``), rows and columns in the order of ``free``
    (``MacroProblem.free`` is in band order).  ``dpbtrf`` factors it in place, so the caller's band holds
    the Cholesky factor afterwards; a band that is not F-contiguous, which ``dpbtrf`` would factor in a
    silent copy, raises ``ValueError``, and a band it refuses as not positive definite raises
    ``SingularSystemError``: for symmetric positive definite K and M, K - omega^2 M is definite exactly
    when omega lies below the first natural frequency.  ``apply`` maps fields (..., n_dofs) to K - omega^2 M
    times them: the operator the band was built from, which checks every solve, so no copy of the band is
    kept and a band that disagrees with its operator fails the check.  ``mass`` maps a field to M times it;
    only the resonance-margin guard of ``solve`` reads it.  ``d_max`` is the band's largest diagonal entry,
    read from its last row before the factorization overwrites it: a lower bound on |K - omega^2 M|_inf
    that costs one row, not a pass over the band.  One factorization serves every right-hand side;
    ``calls`` counts FEA calls (linear-system applications), one per ``solve``.
    """

    def __init__(self, band: np.ndarray, free: np.ndarray, n_dofs: int, apply, mass, omega: float):
        self.n_dofs = int(n_dofs)
        self.free = np.asarray(free, dtype=np.intp)
        if self.free.size == 0 or self.free.size >= self.n_dofs:
            raise ValueError("need at least one constrained DOF and at least one free DOF")
        self._apply = apply
        self._mass = mass
        self.omega = float(omega)
        if not band.flags.f_contiguous:
            raise ValueError("the band must be F-contiguous (LAPACK band storage), so dpbtrf factors it in place")
        self.d_max = float(band[-1].max())
        self._factor, info = dpbtrf(band, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"dpbtrf rejected its argument {-info}")
        if info > 0:
            raise SingularSystemError(
                "Cholesky refused K - omega^2 M as not positive definite, so the drive is at or above "
                "the first natural frequency, where minimum dynamic compliance is not defined; "
                "a rigid-body mode is a natural frequency of 0"
            )
        self.calls = 0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve K_d u = rhs for one full-length right-hand side (n_dofs,): one FEA call.

        ``dpbtrs`` overwrites the gathered free rows with the solution, scattered into the returned vector,
        whose residual is formed by ``apply``, so the solve holds the solution, the gathered rows and one
        operator application.  A solve with |r|_2 <= RESIDUAL_TOL |f|_2 is accepted.  So is one whose backward
        error bound |r|_inf / (d_max |u|_inf + |f|_inf) is at most BACKWARD_TOL: as d_max <= |K|_inf, the bound
        is at least the normwise backward error |r|_inf / (|K|_inf |u|_inf + |f|_inf) (Rigal and Gaches;
        Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, section 7.1), so the solve solves a
        system within rounding of the factored one exactly, however ill-conditioned that system is.  Under a
        drive (omega > 0) such a solve also needs its ``margin`` to exceed MARGIN_TOL omega^2.  A zero load
        needs no mask: ``dpbtrs`` returns exact zeros for it, whose residual 0 meets the contract.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.n_dofs,):
            raise ValueError(f"solve takes one right-hand side of shape ({self.n_dofs},), got {rhs.shape}")
        self.calls += 1
        x = rhs[self.free]
        norm_f = np.sqrt(x @ x)
        u = np.zeros(self.n_dofs)
        u[self.free] = dpbtrs(self._factor, x, overwrite_b=1)[0]
        del x
        residual = self._apply(u)[self.free]  # u is zero on the constrained DOFs
        residual -= rhs[self.free]
        norm_r = np.sqrt(residual @ residual)
        if norm_r <= RESIDUAL_TOL * norm_f:
            return u
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = norm_r / norm_f
            backward = np.abs(residual).max() / (self.d_max * np.abs(u).max() + np.abs(rhs[self.free]).max())
        if not backward <= BACKWARD_TOL:  # a NaN residual fails
            raise SingularSystemError(
                f"linear solve failed the residual contract (|r|/|f| = {ratio:.3e} > {RESIDUAL_TOL} "
                f"and backward error bound {backward:.3e} > {BACKWARD_TOL:.3e}); "
                "the factored band disagrees with the operator that checks it, or the factorization lost accuracy"
            )
        if self.omega > 0.0:
            margin = self.margin(u)
            if not margin > MARGIN_TOL * self.omega**2:
                raise SingularSystemError(
                    f"linear solve is accurate (backward error bound {backward:.3e}) but its resonance margin "
                    f"lambda_1 - omega^2 = {margin:.3e} is at most {MARGIN_TOL:g} omega^2 "
                    f"(|r|/|f| = {ratio:.3e} > {RESIDUAL_TOL}); the excitation frequency may sit at a resonance"
                )
        return u

    def margin(self, u: np.ndarray) -> float:
        """Margin mu_1 = lambda_1 - omega^2 to the first natural frequency, by inverse iteration from u.

        A factorization that succeeds proves omega^2 < lambda_1, so mu_1 is the smallest eigenvalue of the
        pencil (K - omega^2 M, M), and positive.  Each step is y = (K - omega^2 M)^-1 M x by ``dpbtrs``
        and reads the Rayleigh quotient y^T M x / y^T M y, an upper bound on mu_1; it stops at a relative
        change of 1e-3 or after 8 steps.  Its backsolves are no FEA call: ``calls`` is unchanged.
        """
        x = np.zeros(self.n_dofs)
        mx = self._mass(u)[self.free]
        margin = np.inf
        for _ in range(8):
            y = dpbtrs(self._factor, mx)[0]
            x[self.free] = y
            my = self._mass(x)[self.free]
            y_my = y @ my
            previous, margin = margin, (y @ mx) / y_my
            if abs(margin - previous) <= 1e-3 * margin:
                break
            mx = my / np.sqrt(y_my)
        return float(margin)


def mean_compliance(f: np.ndarray, u: np.ndarray) -> float:
    """Mean compliance F^T U (static or harmonic amplitude form)."""
    return float(np.dot(f, u))
