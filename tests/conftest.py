"""Shared builders for the test suite."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from rcto.fem import StructuredGrid, assemble, band_order, mean_compliance, strain_operators
from rcto.homogenization import corrected_strains, homogenize, solve_cell_problems, stiffness_weights
from rcto.materials import _PARTS, PARAMETERS, Phase, TwoPhaseMaterial, voigt_size
from rcto.problem import DesignState, MacroProblem, factorized_dynamic, stiffness_scale
from rcto.uncertainty import HybridParameter, Interval, UncertainSet, _interval_corners, _latin_hypercube


def steel_foam() -> TwoPhaseMaterial:
    """Two-phase composite in N/mm/tonne units: stiff heavy phase 1, light phase 2."""
    return TwoPhaseMaterial(Phase(200e3, 0.3, 7.9e-9), Phase(150e3, 0.3, 0.79e-9))


def cantilever(nx, ny, elem=1.0, cell_n=4, omega=0.0, penalty=3.0, load=-1000.0):
    """Left-edge clamped cantilever with a tip load at the right-bottom corner node."""
    grid = StructuredGrid((nx, ny), (elem, elem))
    cell = StructuredGrid((cell_n, cell_n), (1.0 / cell_n, 1.0 / cell_n))
    fixed_nodes = [j * (nx + 1) for j in range(ny + 1)]
    fixed = np.array([[2 * n, 2 * n + 1] for n in fixed_nodes]).ravel()
    f = np.zeros(grid.n_dofs)
    f[2 * nx + 1] = load
    return MacroProblem(grid=grid, cell=cell, fixed_dofs=fixed, force=f, omega=omega, penalty=penalty)


def box_indices(shape):
    """Every index of a box by a plain loop, x fastest: row n is the index whose flat id is n."""
    return np.array([idx[::-1] for idx in itertools.product(*[range(n) for n in reversed(shape)])])


def fractional_interval(mid, frac):
    return Interval(mid * (1.0 - frac), mid * (1.0 + frac))


def hybrid_params(
    material: TwoPhaseMaterial,
    mean_frac=0.05,
    cov=0.05,
    sigma_frac=0.0,
    rho_mean_frac=None,
):
    """Five-parameter hybrid set scaled off a base material.

    mean_frac: half-width of the expectation intervals (relative);
    cov: sigma midpoint as a fraction of the mean; sigma_frac: half-width of
    the sigma intervals (relative to the sigma midpoint).
    """
    if rho_mean_frac is None:
        rho_mean_frac = mean_frac

    def par(name, mid, mfrac):
        return HybridParameter(
            name,
            fractional_interval(mid, mfrac),
            fractional_interval(cov * mid, sigma_frac) if cov > 0 else Interval.exact(0.0),
        )

    p1, p2 = material.phase1, material.phase2
    return UncertainSet([
        par("e1", p1.youngs, mean_frac),
        par("e2", p2.youngs, mean_frac),
        par("nu", p1.poisson, mean_frac),
        par("rho1", p1.density, rho_mean_frac),
        par("rho2", p2.density, rho_mean_frac),
    ])


def degenerate_params(material: TwoPhaseMaterial) -> UncertainSet:
    """All five parameters declared but fully deterministic."""
    p1, p2 = material.phase1, material.phase2
    return UncertainSet([
        HybridParameter("e1", Interval.exact(p1.youngs), Interval.exact(0.0)),
        HybridParameter("e2", Interval.exact(p2.youngs), Interval.exact(0.0)),
        HybridParameter("nu", Interval.exact(p1.poisson), Interval.exact(0.0)),
        HybridParameter("rho1", Interval.exact(p1.density), Interval.exact(0.0)),
        HybridParameter("rho2", Interval.exact(p2.density), Interval.exact(0.0)),
    ])


def full_state(problem: MacroProblem, x_min=1e-6, micro=None) -> DesignState:
    x_micro = np.ones(problem.cell.n_elems) if micro is None else np.asarray(micro, dtype=float)
    return DesignState(x_macro=np.ones(problem.grid.n_elems), x_micro=x_micro, x_min=x_min)


def reference_compliance(problem: MacroProblem, state: DesignState, base: TwoPhaseMaterial, names, values):
    """Mean compliance of each sample row by full solves: homogenize, factor the macro system and solve, row by row."""
    out = []
    for row in np.atleast_2d(values):
        props = homogenize(problem.cell, state.x_micro, base.with_values(names, row), problem.penalty)
        system = factorized_dynamic(problem, state, props.d_h, props.rho_h)
        out.append(mean_compliance(problem.force, system.solve(problem.force)))
    return np.array(out)


def reference_draws(params: UncertainSet, n_interval: int, n_random: int, seed: int):
    """Every Monte Carlo sample row of ``mcs_evaluate`` and its redraw count, drawn one outer point at a time.

    The Latin hypercube first (after the box corners in the outer order),
    then each point's normal samples and the redraws of its non-physical
    ones, point after point.
    """
    rng = np.random.default_rng(seed)
    lows = [b for p in params for b in (p.mean.lo, p.std.lo)]
    highs = [b for p in params for b in (p.mean.hi, p.std.hi)]
    outer = _latin_hypercube(rng, n_interval, lows, highs)
    outer = np.vstack([_interval_corners(params), outer])
    rows, resampled = [], 0
    for point in outer:
        mu, sigma = point[0::2], point[1::2]
        thetas = mu + sigma * rng.standard_normal((n_random, len(params)))
        while True:
            bad = ~np.all([PARAMETERS[name].admits(col) for name, col in zip(params.names, thetas.T)], axis=0)
            if not bad.any():
                break
            resampled += int(bad.sum())
            thetas[bad] = mu + sigma * rng.standard_normal((int(bad.sum()), len(params)))
        rows.append(thetas)
    return np.concatenate(rows), resampled


def reference_matrices(problem: MacroProblem, state: DesignState, d_h, rho_h):
    """Full (K, M) of a two-scale design by the reference assembler ``fem.assemble``, no DOF dropped."""
    s = stiffness_scale(state.x_macro, problem.penalty, state.x_min)
    return assemble(problem.grid, s[:, None, None] * d_h, state.x_macro * rho_h)


def coo_reference(dofs, n, elem_mats):
    """Global matrix by plain COO assembly: duplicates summed, indices sorted."""
    ndof_e = dofs.shape[1]
    rows = np.repeat(dofs, ndof_e, axis=1).ravel()
    cols = np.tile(dofs, (1, ndof_e)).ravel()
    return scipy.sparse.coo_matrix((elem_mats.ravel(), (rows, cols)), shape=(n, n)).tocsc()


def phase_derivatives(material: TwoPhaseMaterial, dim: int, wrt=()) -> np.ndarray:
    """(2, ncomp, ncomp) stack of d^|wrt| D_p for the phases p = 1, 2, read from ``TwoPhaseMaterial.coefficients``."""
    return np.tensordot(material.coefficients(dim, wrt), _PARTS[dim], axes=1)


def upper_band(a, kd):
    """LAPACK upper band storage (kd + 1, n) of a square matrix, read diagonal by diagonal; nothing lies above it.

    F-ordered, as ``fem.scatter`` returns it, so ``dpbtrf`` factors it in place."""
    a = a.toarray() if scipy.sparse.issparse(a) else np.asarray(a)
    assert not np.any(np.triu(a, kd + 1))
    band = np.zeros((kd + 1, a.shape[0]), order="F")
    for d in range(kd + 1):
        band[kd - d, d:] = np.diagonal(a, d)
    return band


def assert_same_band(band, ref):
    """band is the upper band of the matrix ref, to 1e-14 of ref's largest entry."""
    ref = ref.toarray() if scipy.sparse.issparse(ref) else ref
    assert band.shape[1] == ref.shape[0]
    assert np.abs(band - upper_band(ref, band.shape[0] - 1)).max() <= 1e-14 * np.abs(ref).max()


def traced_peak(fn):
    """(fn(), the peak bytes that Python and numpy held above the start while fn ran), by ``tracemalloc``."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def refuse_sparse_matrices(monkeypatch, refuse):
    """Make building or densifying a scipy.sparse matrix call ``refuse``."""
    for cls in (
        scipy.sparse.csc_matrix, scipy.sparse.csr_matrix, scipy.sparse.coo_matrix, scipy.sparse.dia_array,
        scipy.sparse.csc_array, scipy.sparse.csr_array, scipy.sparse.coo_array,
    ):
        for attr in ("__init__", "toarray", "todense"):
            monkeypatch.setattr(cls, attr, refuse)


def assert_band_order(grid):
    """Check the band order of a grid's DOFs against its node box.

    The order is a permutation of all DOFs with each node's DOFs contiguous,
    and it lists the nodes as a plain loop over the box does with the
    shortest axis fastest (ties in axis order).
    """
    dim = grid.dim
    order = band_order(grid.node_ids)
    assert np.array_equal(np.sort(order), np.arange(grid.n_dofs))
    nodes = order.reshape(-1, dim) // dim
    assert np.array_equal(order.reshape(-1, dim), dim * nodes + np.arange(dim))
    axes = sorted(range(dim), key=lambda a: (grid.nodes_shape[a], a))
    index = box_indices(grid.nodes_shape)[nodes[:, 0]]  # grid index of each listed node
    loop = box_indices(tuple(grid.nodes_shape[a] for a in axes))  # the same box, shortest axis first
    assert np.array_equal(index[:, axes], loop)


def capture_factors(monkeypatch):
    """Record every SuperLU factor object made through ``scipy.sparse.linalg.splu``.

    No path of the package calls SuperLU any more: the macro system is factored by banded Cholesky or
    refused, so a test that captures factors expects none.  ``rcto.fem.splu`` resolves to the recording
    function too, as the module ``__getattr__`` looks it up in ``scipy.sparse.linalg`` on each access.
    """
    import scipy.sparse.linalg

    factors = []
    splu = scipy.sparse.linalg.splu

    def recording_splu(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    return factors


def cell_phases(x, material, penalty, dim):
    """(eta, D1, D2) of a micro design: the voxel stiffness weights and the phase elasticities that
    ``solve_cell_problems`` reads."""
    return stiffness_weights(x, penalty), material.phase1.elasticity(dim), material.phase2.elasticity(dim)


def voxel_elasticity(eta, d1, d2):
    """The dense per-voxel elasticity stack eta_i D1 + (1 - eta_i) D2 (n_voxels, ncomp, ncomp), for references."""
    return eta[:, None, None] * d1 + (1.0 - eta)[:, None, None] * d2


def cell_strains(grid, eta, d1, d2):
    """Corrected strains g of the whole cell and the Gauss weights w, from one cell solve."""
    return corrected_strains(grid, solve_cell_problems(grid, eta, d1, d2)), strain_operators(grid.spacing)[2]


def periodic_dofs(grid):
    """(n_voxels, ndof_e) master DOFs of each voxel: every node index wrapped into the cell, x fastest."""
    nodes = np.stack(np.unravel_index(grid.elem_node_ids, grid.nodes_shape, order="F"), axis=-1)
    master = np.ravel_multi_index(np.moveaxis(nodes % grid.shape, -1, 0), grid.shape, order="F")
    return (grid.dim * master[:, :, None] + np.arange(grid.dim)).reshape(grid.n_elems, -1)


def stacked_cell_loads(grid, weights, d):
    """``cell_loads`` from whole (n_voxels, ndof_e, ncomp) element stacks, each master DOF summing its voxels'
    entries one local DOF, so one corner, at a time: the loads and the rounding floors of their column norms."""
    b, _, w = strain_operators(grid.spacing)
    b_w = np.einsum("q,qce->ec", w, b)
    dofs = periodic_dofs(grid)

    def to_masters(weights, terms):
        elem = (weights.T @ terms.reshape(len(terms), -1)).reshape((-1,) + terms.shape[1:])
        out = np.zeros((grid.dim * grid.n_elems, elem.shape[-1]))
        for i in range(dofs.shape[1]):  # distinct voxels put local DOF i on distinct master DOFs
            out[dofs[:, i]] += elem[:, i]
        return out

    magnitude = to_masters(np.abs(weights), np.abs(b_w) @ np.abs(d))
    floors = (2**grid.dim + voigt_size(grid.dim)) * np.finfo(float).eps * np.linalg.norm(magnitude, axis=0)
    return to_masters(weights, b_w @ d), floors


def reference_d_h(g, w, d_voxels, volume):
    """D_h by one direct contraction over every voxel and Gauss point: <(eps0 - eps)^T D (eps0 - eps)>."""
    d = np.einsum("q,nqcr,ncd,nqds->rs", w, g, d_voxels, g) / volume
    return 0.5 * (d + d.T)


def reference_d_h_derivative(g, w, eta, d1, d2, volume):
    """Phase-weighted mutual energies of two phase derivative matrices, strain fields held fixed."""
    d = (
        np.einsum("q,n,nqcr,cd,nqds->rs", w, eta, g, d1, g)
        + np.einsum("q,n,nqcr,cd,nqds->rs", w, 1.0 - eta, g, d2, g)
    ) / volume
    return 0.5 * (d + d.T)


def reference_voxel_form(g, w, moment, cmat):
    """Per voxel: the mutual energy of cmat under the corrected strains, contracted with a macro moment."""
    return np.einsum("q,iqcr,rs,iqds,cd->i", w, g, moment, g, cmat)


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)
