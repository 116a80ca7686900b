"""Finite-element kernel against independent oracles.

The element oracles are symbolic integration (sympy) and a high-order Gauss
rule implemented here, both independent of the production quadrature path.
Solve checks use dense numpy factorizations as the reference.
"""

import ast
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

import rcto
from rcto.beso import initial_state
from rcto.config import build_problem, parse_config
from rcto.errors import SingularSystemError
from rcto.fem import (
    BACKWARD_TOL,
    RESIDUAL_TOL,
    FactorizedSystem,
    SparsityPattern,
    StructuredGrid,
    assemble,
    band_order,
    element_apply,
    element_mass,
    element_stiffness,
    element_stiffness_batch,
    mean_compliance,
    scatter,
    solve_system,
    strain_operators,
    unique_ids,
)
from rcto.materials import elasticity_matrix

from conftest import (
    assert_band_order,
    assert_same_band,
    box_indices,
    cantilever,
    capture_factors,
    coo_reference,
    full_state,
    periodic_dofs,
    reference_matrices,
    steel_foam,
    traced_peak,
    upper_band,
)
from rcto.homogenization import cell_dofs, homogenize, seed_cell
from rcto.problem import DesignState, MacroProblem, factorized_dynamic, parameter_to_matrices, stiffness_scale

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def symbolic_q4_stiffness(d, a, b):
    """Exact integral of B^T D B over an a-by-b rectangle via sympy."""
    x, y = sp.symbols("x y")
    shapes = [
        (1 - x / a) * (1 - y / b),
        (x / a) * (1 - y / b),
        (x / a) * (y / b),
        (1 - x / a) * (y / b),
    ]
    bmat = sp.zeros(3, 8)
    for i, n in enumerate(shapes):
        bmat[0, 2 * i] = sp.diff(n, x)
        bmat[1, 2 * i + 1] = sp.diff(n, y)
        bmat[2, 2 * i] = sp.diff(n, y)
        bmat[2, 2 * i + 1] = sp.diff(n, x)
    dmat = sp.Matrix(d)
    integrand = bmat.T * dmat * bmat
    k = sp.integrate(sp.integrate(integrand, (x, 0, a)), (y, 0, b))
    return np.array(k.evalf(), dtype=float)


def gauss_mass_oracle(rho, spacing, order=5):
    """Consistent mass by an independent high-order Gauss rule."""
    dim = len(spacing)
    pts, wts = np.polynomial.legendre.leggauss(order)
    m = np.zeros((dim * 2**dim,) * 2)
    corners = np.array(list(itertools.product(*[(-1, 1)] * dim)))
    if dim == 2:
        corners = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]])
    else:
        corners = np.array([
            [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
            [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1],
        ])
    detj = np.prod(spacing) / 2.0**dim
    for combo in itertools.product(range(order), repeat=dim):
        xi = np.array([pts[c] for c in combo])
        w = np.prod([wts[c] for c in combo]) * detj
        shape = np.prod(1 + corners * xi, axis=1) / 2.0**dim
        nmat = np.zeros((dim, dim * len(corners)))
        for a in range(dim):
            nmat[a, a::dim] = shape
        m += rho * w * nmat.T @ nmat
    return m


class TestElementStiffness:
    def test_zero_material_gives_zero_matrix(self):
        assert not np.any(element_stiffness(np.zeros((3, 3)), (1.0, 1.0)))

    @pytest.mark.slow
    def test_matches_symbolic_oracle_unit_square(self):
        d = elasticity_matrix(1.0, 0.0, 2)
        k = element_stiffness(d, (1.0, 1.0))
        k_ref = symbolic_q4_stiffness(d, 1.0, 1.0)
        assert np.allclose(k, k_ref, atol=1e-13)

    @pytest.mark.slow
    def test_matches_symbolic_oracle_rectangle_with_poisson(self):
        d = elasticity_matrix(70e3, 0.33, 2)
        k = element_stiffness(d, (2.0, 0.5))
        k_ref = symbolic_q4_stiffness(d, 2.0, 0.5)
        assert np.allclose(k, k_ref, rtol=1e-12)

    def test_scaling_material_scales_stiffness(self):
        d = elasticity_matrix(1.0, 0.25, 2)
        assert np.allclose(element_stiffness(7.5 * d, (1.0, 2.0)), 7.5 * element_stiffness(d, (1.0, 2.0)))

    def test_nonsymmetric_material_rejected(self):
        d = elasticity_matrix(1.0, 0.3, 2)
        d[0, 1] *= 1.5
        with pytest.raises(ValueError, match="symmetric"):
            element_stiffness(d, (1.0, 1.0))

    @pytest.mark.parametrize("spacing", [(1.0, 1.0), (2.0, 0.5), (1.0, 1.0, 1.0), (0.5, 1.0, 2.0)])
    def test_positive_semidefinite_with_rigid_modes(self, spacing):
        dim = len(spacing)
        k = element_stiffness(elasticity_matrix(1.0, 0.3, dim), spacing)
        evals = np.linalg.eigvalsh(k)
        n_rigid = 3 if dim == 2 else 6
        assert np.sum(np.abs(evals) < 1e-10 * evals.max()) == n_rigid
        assert np.all(evals > -1e-10 * evals.max())


class TestElementMass:
    def test_zero_density_gives_zero(self):
        assert not np.any(element_mass(0.0, (1.0, 1.0)))

    def test_partition_of_unity_total_mass(self):
        m = element_mass(1.0, (1.0, 1.0))
        assert np.isclose(m[0::2, 0::2].sum(), 1.0)
        assert np.isclose(m[1::2, 1::2].sum(), 1.0)

    def test_row_sums_conserve_mass(self):
        rho, spacing = 3.2, (0.7, 1.3)
        m = element_mass(rho, spacing)
        assert np.isclose(m.sum(), 2 * rho * np.prod(spacing))

    @pytest.mark.parametrize("spacing", [(1.0, 1.0), (0.3, 2.0), (1.0, 0.5, 2.0)])
    def test_matches_high_order_quadrature_oracle(self, spacing):
        m = element_mass(2.5, spacing)
        m_ref = gauss_mass_oracle(2.5, spacing)
        assert np.allclose(m, m_ref, rtol=1e-12, atol=1e-12 * m_ref.max())

    def test_positive_definite(self):
        m = element_mass(1.0, (1.0, 1.0))
        assert np.all(np.linalg.eigvalsh(m) > 0)

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            element_mass(-1.0, (1.0, 1.0))


class TestAssembly:
    def test_single_element_scatter(self):
        grid = StructuredGrid((1, 1), (1.0, 1.0))
        d = elasticity_matrix(1.0, 0.2, 2)
        k, m = assemble(grid, d, 1.0)
        dofs = grid.elem_dofs[0]
        ref_k = np.zeros((8, 8))
        ref_k[np.ix_(dofs, dofs)] = element_stiffness(d, (1.0, 1.0))
        ref_m = np.zeros((8, 8))
        ref_m[np.ix_(dofs, dofs)] = element_mass(1.0, (1.0, 1.0))
        assert np.allclose(k.toarray(), ref_k)
        assert np.allclose(m.toarray(), ref_m)

    def test_two_elements_share_edge_contributions(self):
        # manual assembly of two side-by-side unit elements
        grid = StructuredGrid((2, 1), (1.0, 1.0))
        d = elasticity_matrix(1.0, 0.25, 2)
        k, _ = assemble(grid, d, 1.0)
        ke = element_stiffness(d, (1.0, 1.0))
        ref = np.zeros((grid.n_dofs, grid.n_dofs))
        for nodes in ([0, 1, 4, 3], [1, 2, 5, 4]):
            dofs = np.array([[2 * n, 2 * n + 1] for n in nodes]).ravel()
            ref[np.ix_(dofs, dofs)] += ke
        assert np.allclose(k.toarray(), ref)

    def test_symmetry_exact(self):
        grid = StructuredGrid((3, 2), (1.0, 2.0))
        rng = np.random.default_rng(0)
        d_mats = np.einsum("nij,nkj->nik", *(rng.random((grid.n_elems, 3, 3)),) * 2)  # SPD-ish
        k, m = assemble(grid, d_mats, rng.random(grid.n_elems))
        assert (k - k.T).nnz == 0 or np.abs((k - k.T).data).max() == 0.0
        assert np.abs((m - m.T).toarray()).max() == 0.0

    def test_dimension_mismatch_rejected(self):
        grid = StructuredGrid((2, 2), (1.0, 1.0))
        with pytest.raises(ValueError):
            assemble(grid, np.zeros((3, 3, 3)), 1.0)  # wrong element count
        with pytest.raises(ValueError):
            assemble(grid, np.zeros((6, 6)), 1.0)  # 3D matrix on a 2D grid


def random_symmetric_stack(rng, n, ncomp):
    a = rng.standard_normal((n, ncomp, ncomp))
    return a + a.transpose(0, 2, 1)


class TestElementKernel:
    @pytest.mark.parametrize("spacing", [(1.0, 2.0), (0.5, 1.0, 2.0)])
    def test_gemm_matches_per_element_einsum(self, rng, spacing):
        ncomp = 3 if len(spacing) == 2 else 6
        d_mats = random_symmetric_stack(rng, 17, ncomp)
        b, _, w = strain_operators(spacing)
        ref = np.einsum("q,qce,ncd,qdf->nef", w, b, d_mats, b)
        k = element_stiffness_batch(d_mats, spacing)
        assert np.abs(k - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("spacing", [(1.0 / 3.0,) * 3, (0.1, 0.37, 1.3)])
    def test_batch_bitwise_symmetric(self, rng, spacing):
        # spacings on which the Gauss sums of B_c^T B_d and B_d^T B_c round differently
        d_mats = random_symmetric_stack(rng, 17, 6)
        k = element_stiffness_batch(d_mats, spacing)
        assert np.array_equal(k, k.transpose(0, 2, 1))


class TestSparsityPattern:
    def test_scatter_matches_coo_assembly(self, rng):
        grid = StructuredGrid((5, 3), (1.0, 0.5))
        elem_mats = rng.standard_normal((grid.n_elems, 8, 8))
        ref = coo_reference(grid.elem_dofs, grid.n_dofs, elem_mats)
        pattern = SparsityPattern.from_dofs(grid.elem_dofs, grid.n_dofs)
        assert pattern.kd == 15  # an element spans two node rows of 6 nodes, x fastest
        assert_same_band(scatter(pattern, np.eye(grid.n_elems), elem_mats), ref)

    def test_negative_dofs_are_dropped_at_pattern_build(self, rng):
        # keep a random subset of the DOFs in their order; the pattern's rows and columns are the kept DOFs
        grid = StructuredGrid((5, 3), (1.0, 0.5))
        kept = np.sort(rng.permutation(grid.n_dofs)[: grid.n_dofs - 7])
        rank = np.full(grid.n_dofs, -1)
        rank[kept] = np.arange(kept.size)
        pattern = SparsityPattern.from_dofs(rank[grid.elem_dofs], kept.size)
        elem_mats = rng.standard_normal((grid.n_elems, 8, 8))
        ref = coo_reference(grid.elem_dofs, grid.n_dofs, elem_mats)[kept][:, kept]
        assert_same_band(scatter(pattern, np.eye(grid.n_elems), elem_mats), ref)

    def test_a_local_dof_on_one_dof_in_two_elements_is_refused(self):
        dofs = np.array([[0, 1], [2, 1], [-1, 3], [-1, 4]])  # local DOF 1 of elements 0 and 1 is DOF 1
        with pytest.raises(ValueError, match="scatter adds one element per slot"):
            SparsityPattern.from_dofs(dofs, 5)
        assert SparsityPattern.from_dofs(dofs[1:], 5).ranks.shape[1] == 3  # two constrained entries are no clash

    def test_a_local_entry_on_both_sides_of_the_diagonal_is_refused(self, rng):
        # entry (0, 1) is above the diagonal in element 0 and below it in element 1: scatter has one slot formula
        with pytest.raises(ValueError, match="above the diagonal in one element and below it in another"):
            SparsityPattern.from_dofs(np.array([[0, 1], [3, 2]]), 4)
        assert SparsityPattern.from_dofs(np.array([[0, 1], [-1, 2], [3, -1]]), 4).pairs.tolist() == [[0, 0], [0, 1], [1, 1]]
        grid = StructuredGrid((5, 3), (1.0, 0.5))
        with pytest.raises(ValueError, match="above the diagonal"):
            SparsityPattern.from_dofs(rng.permutation(grid.n_dofs)[grid.elem_dofs], grid.n_dofs)

    @pytest.mark.parametrize("ids", [[], [3], [2, 2, 2], [5, -1, 3, 5, 0, -1, 7, 3], np.arange(12).reshape(3, 4) % 5])
    def test_unique_ids_are_those_of_np_unique(self, ids):
        ids = np.asarray(ids, dtype=np.intp)
        got, ref = unique_ids(ids), np.unique(ids)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


class TestElementApply:
    @pytest.mark.parametrize("macro_shape, cell_shape", [((5, 3), (4, 4)), ((3, 2, 2), (3, 3, 2))])
    def test_macro_terms_are_the_parameter_matrices(self, rng, macro_shape, cell_shape):
        # s k(dD_h / dE1) and the negative -omega^2 (drho_h / drho1) x m: dK_d / dE1 + dK_d / drho1
        dim = len(macro_shape)
        grid = StructuredGrid(macro_shape, (1.0,) * dim)
        cell = StructuredGrid(cell_shape, tuple(1.0 / n for n in cell_shape))
        prob = MacroProblem(grid, cell, np.arange(dim), np.zeros(grid.n_dofs), omega=2 * np.pi * 150.0)
        x_macro = np.where(rng.random(grid.n_elems) < 0.7, 1.0, 1e-6)
        state = DesignState(x_macro=x_macro, x_micro=seed_cell(cell, 0.2, 1e-6))
        props = homogenize(cell, state.x_micro, steel_foam(), prob.penalty)
        k = element_stiffness_batch(props.d_h_derivative(("e1",))[None], grid.spacing)[0]
        mass_scale = -prob.omega**2 * props.rho_h_derivative(("rho1",)) * x_macro
        assert np.all(mass_scale < 0.0)
        scales = (stiffness_scale(x_macro, prob.penalty, state.x_min), mass_scale)
        u = rng.standard_normal((2, grid.n_dofs))
        got = element_apply(grid.elem_dofs.T, grid.n_dofs, scales, (k, element_mass(1.0, grid.spacing)), u)
        matrix = parameter_to_matrices(prob, state, props, "e1") + parameter_to_matrices(prob, state, props, "rho1")
        ref = (matrix @ u.T).T
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("shape", [(5, 4), (3, 4, 2)])
    def test_cell_voxel_subset_is_the_masked_stack(self, rng, shape):
        grid = StructuredGrid(shape, tuple(1.0 / n for n in shape))
        n, ncomp = grid.dim * grid.n_elems, 3 if grid.dim == 2 else 6
        mask = rng.random(grid.n_elems) < 0.3
        weights = rng.standard_normal(mask.sum())
        k = element_stiffness_batch(random_symmetric_stack(rng, 1, ncomp), grid.spacing)[0]
        u = rng.standard_normal((3, n))
        got = element_apply(cell_dofs(grid)[:, mask], n, (weights,), (k,), u)
        ref = (coo_reference(periodic_dofs(grid)[mask], n, weights[:, None, None] * k) @ u.T).T
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


# element corners in the standard counterclockwise ordering, bottom layer first in 3D
CORNERS = {
    2: [(0, 0), (1, 0), (1, 1), (0, 1)],
    3: [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)],
}


class TestNumbering:
    """The grid's numbering against plain loops over node and element indices."""

    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (2, 4), (1, 1, 1), (3, 2, 1), (1, 3, 2), (2, 3, 4)])
    def test_elem_node_ids_match_a_loop_over_element_indices(self, shape):
        grid = StructuredGrid(shape, (1.0,) * len(shape))
        node_of = {tuple(idx): n for n, idx in enumerate(box_indices(grid.nodes_shape))}
        ref = [[node_of[tuple(i + o for i, o in zip(elem, c))] for c in CORNERS[grid.dim]] for elem in box_indices(shape)]
        assert np.array_equal(grid.elem_node_ids, ref)
        assert np.array_equal(grid.elem_dofs, [[grid.dim * n + a for n in row for a in range(grid.dim)] for row in ref])

    @pytest.mark.parametrize("shape", [(3, 2), (1, 2, 3)])
    def test_node_ids_are_built_once_read_only_and_x_fastest(self, shape):
        grid = StructuredGrid(shape, (1.0,) * len(shape))
        assert grid.node_ids is grid.node_ids
        assert not grid.node_ids.flags.writeable
        with pytest.raises(ValueError):
            grid.node_ids[0, 0] = 1
        assert [grid.node_ids[tuple(idx)] for idx in box_indices(grid.nodes_shape)] == list(range(grid.n_nodes))


class TestBandOrder:
    @pytest.mark.parametrize("shape", [(6, 3), (2, 5), (3, 3), (4, 3, 3), (2, 4, 3), (24, 8, 8)])
    def test_order_lists_the_node_box_shortest_axis_fastest(self, shape):
        assert_band_order(StructuredGrid(shape, (1.0,) * len(shape)))

    @pytest.mark.parametrize(
        "shape, kd, config", [((120, 40), 85, "cantilever_2d"), ((90, 40), 85, "mbb_2d"), ((24, 8, 8), 275, "prism_3d")]
    )
    def test_half_bandwidth_of_the_shipped_meshes(self, shape, kd, config):
        grid = StructuredGrid(shape, (1.0,) * len(shape))
        position = np.argsort(band_order(grid.node_ids))[grid.elem_dofs]
        assert (position.max(axis=1) - position.min(axis=1)).max() == kd
        problem = build_problem(parse_config(str(CONFIGS / f"{config}.yaml")))
        assert problem.grid.shape == shape
        assert problem.pattern.kd == kd
        # the pattern is the ranked element DOFs and its kept local entries, no (entries x elements) slot table
        held = sum(a.size for a in vars(problem.pattern).values() if isinstance(a, np.ndarray))
        assert held <= 2 * problem.grid.elem_dofs.size

    def test_free_dofs_and_pattern_built_once_per_problem(self):
        prob = cantilever(4, 2)
        assert prob.free is prob.free
        assert not prob.free.flags.writeable
        assert prob.pattern is prob.pattern
        assert prob.pattern.n == prob.free.size

    def test_elimination_order_lists_the_free_dofs_in_grid_order(self):
        prob = cantilever(6, 3)
        assert np.array_equal(np.sort(prob.free), np.setdiff1d(np.arange(prob.grid.n_dofs), prob.fixed_dofs))
        position = np.argsort(band_order(prob.grid.node_ids))
        assert np.all(np.diff(position[prob.free]) > 0)

    def test_positive_definite_3d_macro_system_needs_no_superlu_factor(self, monkeypatch):
        grid = StructuredGrid((8, 4, 4), (1.0, 1.0, 1.0))
        left = np.flatnonzero(np.arange(grid.n_nodes) % grid.nodes_shape[0] == 0)
        fixed = (3 * left[:, None] + np.arange(3)).ravel()
        prob = MacroProblem(grid, StructuredGrid((2, 2, 2), (0.5,) * 3), fixed, np.ones(grid.n_dofs))
        factors = capture_factors(monkeypatch)
        system = factorized_dynamic(prob, full_state(prob), elasticity_matrix(200e3, 0.3, 3), 7.9e-9)
        u = system.solve(prob.force)
        assert factors == []
        k, _ = assemble(grid, elasticity_matrix(200e3, 0.3, 3), 7.9e-9)
        free = np.sort(prob.free)
        u_ref = np.linalg.solve(k[free][:, free].toarray(), prob.force[free])
        assert np.linalg.norm(u[free] - u_ref) <= 1e-10 * np.linalg.norm(u_ref)


class TestMacroSystem:
    @pytest.mark.parametrize(
        "shape, freq, voids", [((6, 3), 500.0, True), ((4, 2, 2), 0.0, False)], ids=["harmonic-2d", "static-3d"]
    )
    def test_factored_matrix_is_the_reference_block(self, monkeypatch, rng, shape, freq, voids):
        dim = len(shape)
        grid = StructuredGrid(shape, (1.0,) * dim)
        left = np.flatnonzero(np.arange(grid.n_nodes) % grid.nodes_shape[0] == 0)
        fixed = (dim * left[:, None] + np.arange(dim)).ravel()
        cell = StructuredGrid((2,) * dim, (0.5,) * dim)
        prob = MacroProblem(grid, cell, fixed, np.ones(grid.n_dofs), omega=2 * np.pi * freq)
        state = full_state(prob)
        if voids:
            state.x_macro[rng.random(grid.n_elems) < 0.3] = state.x_min
        d_h, rho_h = elasticity_matrix(200e3, 0.3, dim), 7.9e-9
        factored = []
        init = FactorizedSystem.__init__
        monkeypatch.setattr(FactorizedSystem, "__init__", lambda fs, a, *rest: factored.append(a.copy()) or init(fs, a, *rest))
        factorized_dynamic(prob, state, d_h, rho_h)
        k, m = reference_matrices(prob, state, d_h, rho_h)
        ref = (k - prob.omega**2 * m)[prob.free][:, prob.free].toarray()
        (got,) = factored
        assert got.shape == (prob.pattern.kd + 1, prob.free.size)
        assert_same_band(got, ref)

    def test_the_margin_guard_reads_the_designs_mass(self, rng):
        # the production mass operator is rho_h x_e m per element, and the margin it reads is the smallest
        # eigenvalue of the pencil (K - omega^2 M, M), here with the drive at half the first natural frequency
        import scipy.linalg

        static = cantilever(6, 3)
        state = full_state(static)
        state.x_macro[rng.random(static.grid.n_elems) < 0.3] = state.x_min
        d_h, rho_h = elasticity_matrix(200e3, 0.3, 2), 7.9e-9
        k, m = reference_matrices(static, state, d_h, rho_h)
        free = np.sort(static.free)
        kf, mf = k.toarray()[np.ix_(free, free)], m.toarray()[np.ix_(free, free)]
        lam1 = scipy.linalg.eigh(kf, mf, eigvals_only=True, subset_by_index=[0, 0])[0]
        prob = cantilever(6, 3, omega=0.5 * np.sqrt(lam1))
        system = factorized_dynamic(prob, state, d_h, rho_h)
        u = rng.standard_normal((prob.grid.n_dofs,))
        assert np.abs(system._mass(u) - m @ u).max() <= 1e-13 * np.abs(m @ u).max()
        mu1 = scipy.linalg.eigh(kf - prob.omega**2 * mf, mf, eigvals_only=True, subset_by_index=[0, 0])[0]
        assert system.margin(system.solve(prob.force)) == pytest.approx(mu1, rel=1e-3)

    def test_the_factor_overwrites_the_scattered_band(self, monkeypatch):
        prob = cantilever(6, 3, omega=2 * np.pi * 500.0)
        bands = []
        scatter = rcto.fem.scatter
        monkeypatch.setattr(rcto.fem, "scatter", lambda *args: bands.append(scatter(*args)) or bands[-1])
        system = factorized_dynamic(prob, full_state(prob), elasticity_matrix(200e3, 0.3, 2), 7.9e-9)
        (band,) = bands
        assert np.shares_memory(system._factor, band)

    @pytest.mark.parametrize("error", [0.0, 1e-6])
    def test_solves_are_checked_by_the_elements_not_the_band(self, monkeypatch, error):
        # the loaded DOF's diagonal entry off by a relative 1e-6: Cholesky factors the wrong band, whose
        # solve has |r|/|f| >= 1e-6 against the elements (x_c = f_c (K^-1)_cc >= f_c / K_cc for SPD K)
        prob = cantilever(6, 3, omega=2 * np.pi * 500.0)
        (column,) = np.flatnonzero(prob.force[prob.free])
        scatter = rcto.fem.scatter

        def perturbed(*args):
            band = scatter(*args)
            band[-1, column] *= 1.0 + error  # the last band row holds the diagonal
            return band

        monkeypatch.setattr(rcto.fem, "scatter", perturbed)
        system = factorized_dynamic(prob, full_state(prob), elasticity_matrix(200e3, 0.3, 2), 7.9e-9)
        if not error:
            assert system.solve(prob.force).shape == prob.force.shape
            return
        with pytest.raises(SingularSystemError, match="residual contract"):
            system.solve(prob.force)

    def test_working_set_of_a_3d_factorization_is_about_its_band(self):
        # the prism_3d seed design: an element stack, a second band or a kept unfactored band would pass 1.5x
        cfg = parse_config(str(CONFIGS / "prism_3d.yaml"))
        prob = build_problem(cfg)
        state = initial_state(prob, x_min=cfg.x_min, seed_fraction=cfg.seed_fraction)
        props = homogenize(prob.cell, state.x_micro, cfg.base_material, cfg.penalty)
        band_bytes = 8 * (prob.pattern.kd + 1) * prob.pattern.n  # the pattern is built once per problem
        system, peak = traced_peak(lambda: factorized_dynamic(prob, state, props.d_h, props.rho_h))
        assert system.solve(prob.force).shape == (prob.grid.n_dofs,)
        assert peak < 1.5 * band_bytes

    def test_fixed_dof_ids_outside_the_grid_rejected(self):
        prob = cantilever(2, 1)
        for bad in (prob.grid.n_dofs, -1):
            with pytest.raises(ValueError, match="fixed DOF ids"):
                MacroProblem(prob.grid, prob.cell, np.append(prob.fixed_dofs, bad), prob.force)


def factorized(k, m, omega, free):
    """FactorizedSystem of the free block of K - omega^2 M, eliminated in the order of ``free``."""
    a = k - omega**2 * m
    kff = a.toarray()[np.ix_(free, free)]
    rows, cols = np.nonzero(np.triu(kff))
    band = upper_band(kff, int(np.max(cols - rows)))
    return FactorizedSystem(band, free, k.shape[0], lambda u: (a @ u.T).T, lambda u: m @ u, omega)


def steel_cantilever_modes():
    """Steel cantilever(4, 2): problem, K, M, free DOFs, dense free blocks and their generalized eigenvalues."""
    import scipy.linalg

    prob = cantilever(4, 2)
    k, m = assemble(prob.grid, elasticity_matrix(200e3, 0.3, 2), 7.9e-9)
    free = np.sort(prob.free)
    kf = k.toarray()[np.ix_(free, free)]
    mf = m.toarray()[np.ix_(free, free)]
    return prob, k, m, free, kf, mf, scipy.linalg.eigh(kf, mf, eigvals_only=True)


def hex_cantilever(shape, omega=0.0):
    """Hex cantilever of ``shape`` elements, clamped on its x = 0 face, with a tip load on node (nx, 0, 0)."""
    grid = StructuredGrid(shape, (1.0,) * 3)
    left = np.flatnonzero(np.arange(grid.n_nodes) % grid.nodes_shape[0] == 0)
    force = np.zeros(grid.n_dofs)
    force[3 * shape[0] + 1] = -1000.0
    cell = StructuredGrid((2,) * 3, (0.5,) * 3)
    return MacroProblem(grid, cell, (3 * left[:, None] + np.arange(3)).ravel(), force, omega=omega)


def soft_clamped_cantilever(shape=(40, 4)):
    """Cantilever of ``shape`` elements, its clamped half at 1e-6 of the steel stiffness and density.

    Returns the problem, K, M, the free DOFs and lambda_1.
    """
    import scipy.linalg

    prob = cantilever(*shape) if len(shape) == 2 else hex_cantilever(shape)
    dim, nx = len(shape), shape[0]
    soft = np.where(np.arange(prob.grid.n_elems) % nx < nx // 2, 1e-6, 1.0)
    k, m = assemble(prob.grid, soft[:, None, None] * elasticity_matrix(200e3, 0.3, dim), soft * 7.9e-9)
    free = np.sort(prob.free)
    kf, mf = k.toarray()[np.ix_(free, free)], m.toarray()[np.ix_(free, free)]
    return prob, k, m, free, scipy.linalg.eigh(kf, mf, eigvals_only=True, subset_by_index=[0, 0])[0]


def backward_error(a, u, f):
    """Normwise backward error |a u - f|_inf / (|a|_inf |u|_inf + |f|_inf) of a sparse a."""
    return np.max(np.abs(a @ u - f)) / (np.max(abs(a).sum(axis=1)) * np.max(np.abs(u)) + np.max(np.abs(f)))


@pytest.mark.parametrize("case", ["kd=0", "kd=1", "kd=5", "factorized_dynamic-3d"])
def test_d_max_is_the_largest_unfactored_diagonal_entry_and_at_most_the_infinity_norm(monkeypatch, rng, case):
    # d_max must be read before dpbtrf overwrites the band with its factor, and bound |a|_inf from below
    if case.startswith("kd"):
        kd = int(case[3:])
        a = np.triu(np.tril(rng.standard_normal((12, 12)), kd))
        a = a + np.triu(a, 1).T
        a += np.diag(np.abs(a).sum(axis=1) + rng.random(12))  # strictly diagonally dominant: SPD
        band = upper_band(np.triu(a), kd)  # F-ordered, as scattered: dpbtrf factors in place
        diagonal = band[-1].copy()
        system = FactorizedSystem(band, np.arange(12), 13, None, None, 0.0)
    else:
        prob = hex_cantilever((4, 2, 3), omega=2 * np.pi * 500.0)
        state = full_state(prob)
        state.x_macro[rng.random(prob.grid.n_elems) < 0.3] = state.x_min
        d_h, rho_h = elasticity_matrix(200e3, 0.3, 3), 7.9e-9
        diagonals = []
        init = FactorizedSystem.__init__

        def recording_init(fs, b, *rest):
            diagonals.append(b[-1].copy())
            init(fs, b, *rest)

        monkeypatch.setattr(FactorizedSystem, "__init__", recording_init)
        system = factorized_dynamic(prob, state, d_h, rho_h)
        (diagonal,) = diagonals
        assert not np.array_equal(system._factor[-1], diagonal)  # the factor's diagonal is not the band's
        k, m = reference_matrices(prob, state, d_h, rho_h)
        a = (k - prob.omega**2 * m)[prob.free][:, prob.free].toarray()
    assert system.d_max == diagonal.max() == pytest.approx(np.diag(a).max(), rel=1e-14)
    assert system.d_max <= np.abs(a).sum(axis=1).max()


class TestSolve:
    def test_factor_capture_records_every_superlu_call(self, monkeypatch):
        # the "no SuperLU factor" checks read this capture: a direct call and one through ``rcto.fem.splu`` count
        import scipy.sparse
        import scipy.sparse.linalg

        factors = capture_factors(monkeypatch)
        a = scipy.sparse.csc_matrix(np.diag([2.0, 3.0]))
        lu = scipy.sparse.linalg.splu(a)
        assert factors == [lu]
        assert rcto.fem.splu(a) is factors[1]

    def test_band_that_is_not_f_ordered_is_refused(self):
        # dpbtrf would factor a C-ordered band in a silent copy and leave the caller's band as it was
        a = np.diag([2.0, 3.0, 4.0]) + np.diag([1.0, 1.0], 1)
        band = np.ascontiguousarray(upper_band(a, 1))
        with pytest.raises(ValueError, match="F-contiguous"):
            FactorizedSystem(band, np.arange(3), 4, None, None, 0.0)

    def test_zero_load_gives_zero_displacement(self):
        prob = cantilever(3, 2)
        d = elasticity_matrix(200e3, 0.3, 2)
        k, m = assemble(prob.grid, d, 7.9e-9)
        u = solve_system(k, m, 0.0, np.zeros(prob.grid.n_dofs), prob.fixed_dofs)
        assert not np.any(u)

    def test_static_tip_load_matches_dense_oracle(self):
        prob = cantilever(1, 1)
        d = elasticity_matrix(1000.0, 0.3, 2)
        k, m = assemble(prob.grid, d, 1.0)
        u = solve_system(k, m, 0.0, prob.force, prob.fixed_dofs)
        free = np.sort(prob.free)
        kd = k.toarray()[np.ix_(free, free)]
        u_ref = np.linalg.solve(kd, prob.force[free])
        assert np.linalg.norm(u[free] - u_ref) <= 1e-9 * np.linalg.norm(u_ref)

    def test_compliance_positive_for_any_nonzero_static_load(self, rng):
        prob = cantilever(4, 2)
        d = elasticity_matrix(200e3, 0.3, 2)
        k, m = assemble(prob.grid, d, 7.9e-9)
        free = np.sort(prob.free)
        for _ in range(5):
            f = np.zeros(prob.grid.n_dofs)
            f[free] = rng.standard_normal(free.size)
            u = solve_system(k, m, 0.0, f, prob.fixed_dofs)
            assert mean_compliance(f, u) > 0

    def test_residual_contract_enforced_at_resonance(self):
        import scipy.linalg

        prob = cantilever(4, 2)
        d = elasticity_matrix(200e3, 0.3, 2)
        k, m = assemble(prob.grid, d, 7.9e-9)
        free = np.sort(prob.free)
        kf = k.toarray()[np.ix_(free, free)]
        mf = m.toarray()[np.ix_(free, free)]
        evals = scipy.linalg.eigh(kf, mf, eigvals_only=True)
        omega_res = np.sqrt(evals[2])
        with pytest.raises(SingularSystemError):
            solve_system(k, m, omega_res, prob.force, prob.fixed_dofs)

    def test_failure_below_the_first_resonance_says_the_drive_may_sit_at_a_resonance(self, monkeypatch):
        # 1e-8 below the first eigenvalue K - omega^2 M is still positive definite, so Cholesky factors it
        prob, k, m, free, _, _, evals = steel_cantilever_modes()
        factors = capture_factors(monkeypatch)
        system = factorized(k, m, np.sqrt(evals[0] * (1.0 - 1e-8)), prob.free)
        with pytest.raises(SingularSystemError, match="may sit at a resonance") as err:
            system.solve(prob.force)
        assert factors == []
        assert "positive definite" not in str(err.value)

    @pytest.mark.parametrize("mode", ["between-1-and-2", "at-3"])
    @pytest.mark.parametrize("order", ["band", "index"])
    def test_drive_at_or_above_the_first_natural_frequency_is_refused_by_the_factorization(
        self, monkeypatch, mode, order
    ):
        # K - omega^2 M is indefinite above the first eigenvalue and singular at the third: no solve is attempted
        prob, k, m, free, _, _, evals = steel_cantilever_modes()
        assert not np.array_equal(prob.free, free)
        omega = np.sqrt(np.sqrt(evals[0] * evals[1]) if mode == "between-1-and-2" else evals[2])
        factors = capture_factors(monkeypatch)
        with pytest.raises(SingularSystemError, match="Cholesky refused .* not positive definite") as err:
            if order == "band":
                factorized(k, m, omega, prob.free)
            else:
                solve_system(k, m, omega, prob.force, prob.fixed_dofs)
        assert "at or above the first natural frequency" in str(err.value)
        assert "may sit at a resonance" not in str(err.value)
        assert factors == []

    def test_accurate_solve_of_an_ill_conditioned_static_system_returns(self):
        # outer half at 1e-12 of the stiffness and density: |K| |u| / |f| (inf-norms) is 2.6e15, above
        # the 4.1e14 of the exact resonance above, yet the solve's normwise backward error is 6.6e-28
        prob = cantilever(40, 4)
        soft = np.where(np.arange(prob.grid.n_elems) % 40 >= 20, 1e-12, 1.0)
        k, m = assemble(prob.grid, soft[:, None, None] * elasticity_matrix(200e3, 0.3, 2), soft * 7.9e-9)
        u = solve_system(k, m, 0.0, prob.force, prob.fixed_dofs)
        free = np.sort(prob.free)
        kf, uf, f = k[free][:, free], u[free], prob.force[free]
        assert backward_error(kf, uf, f) <= 64 * np.finfo(float).eps

    @pytest.mark.parametrize("shape", [(40, 4), (12, 2, 2)], ids=["2d", "3d"])
    def test_accurate_solve_of_an_ill_conditioned_harmonic_system_returns(self, shape):
        # the clamped half at 1e-6, driven at half its first eigenvalue: |r|/|f| reads 1.7e-5 (2D) and 1.2e-6
        # (3D), so the 2-norm test fails, yet the backward error bound with d_max is 4.6e-16 and 5.6e-16, and
        # the resonance margin lambda_1 - omega^2 is omega^2; |a|_inf / d_max is 2.58 (2D) and 3.93 (3D)
        prob, k, m, free, lam1 = soft_clamped_cantilever(shape)
        system = factorized(k, m, np.sqrt(lam1 / 2), prob.free)
        u = system.solve(prob.force)
        a, uf, f = (k - lam1 / 2 * m)[free][:, free], u[free], prob.force[free]
        r = a @ uf - f
        assert np.linalg.norm(r) > RESIDUAL_TOL * np.linalg.norm(f)
        assert np.abs(r).max() <= BACKWARD_TOL * (system.d_max * np.abs(uf).max() + np.abs(f).max())
        assert backward_error(a, uf, f) <= BACKWARD_TOL
        assert system.margin(u) == pytest.approx(lam1 / 2, rel=1e-3)

    @pytest.mark.parametrize("case", ["wide-margin", "below-the-first-resonance"])
    def test_the_margin_guard_backsolves_are_no_fea_calls(self, monkeypatch, case):
        # the guard's inverse iteration backsolves through dpbtrs, but only the solve counts in ``calls``
        if case == "wide-margin":
            prob, k, m, _, lam1 = soft_clamped_cantilever()
            omega2 = lam1 / 2
        else:
            prob, k, m, *_, evals = steel_cantilever_modes()
            omega2 = evals[0] * (1.0 - 1e-8)
        system = factorized(k, m, np.sqrt(omega2), prob.free)
        backsolves = []
        dpbtrs = rcto.fem.dpbtrs
        monkeypatch.setattr(rcto.fem, "dpbtrs", lambda *args, **kwargs: backsolves.append(1) or dpbtrs(*args, **kwargs))
        if case == "wide-margin":
            system.solve(prob.force)
        else:
            with pytest.raises(SingularSystemError, match="resonance margin"):
                system.solve(prob.force)
        assert len(backsolves) > 1 and system.calls == 1

    def test_fixed_dofs_required(self):
        prob = cantilever(2, 2)
        d = elasticity_matrix(1.0, 0.3, 2)
        k, m = assemble(prob.grid, d, 1.0)
        with pytest.raises(ValueError):
            solve_system(k, m, 0.0, prob.force, np.array([], dtype=int))

    def test_harmonic_low_frequency_limit_matches_static(self):
        prob = cantilever(6, 2)
        d = elasticity_matrix(200e3, 0.3, 2)
        k, m = assemble(prob.grid, d, 7.9e-9)
        u_static = solve_system(k, m, 0.0, prob.force, prob.fixed_dofs)
        u_dyn = solve_system(k, m, 1e-12, prob.force, prob.fixed_dofs)
        assert np.linalg.norm(u_dyn - u_static) <= 1e-6 * np.linalg.norm(u_static)

    def test_call_counter_counts_backsolves(self):
        prob = cantilever(3, 2)
        d = elasticity_matrix(200e3, 0.3, 2)
        k, m = assemble(prob.grid, d, 7.9e-9)
        system = factorized(k, m, 0.0, np.sort(prob.free))
        for _ in range(4):
            system.solve(prob.force)
        assert system.calls == 4

    def test_solve_takes_exactly_one_full_length_right_hand_side(self):
        # a block or a short vector is refused by name before any backsolve, and counts nothing
        prob, k, m, free, *_ = steel_cantilever_modes()
        system = factorized(k, m, 0.0, free)
        n = prob.grid.n_dofs
        for bad in (np.zeros((n, 2)), np.zeros((n, 1)), np.zeros((n, 0)), np.zeros((2, n)), np.zeros(n - 1)):
            with pytest.raises(ValueError, match=re.escape(f"one right-hand side of shape ({n},), got {bad.shape}")):
                system.solve(bad)
        assert system.calls == 0
        assert system.solve(list(prob.force)).shape == (n,)
        assert system.calls == 1

    def test_a_solve_holds_one_vector_and_one_operator_application(self, rng):
        """A solve on cantilever(60, 20) allocates at most four n_dofs vectors and six (n_elems, ndof_e) arrays.

        The vectors are the returned solution, the gathered free rows, which ``dpbtrs`` overwrites in place,
        and the operator's output with its free-row residual.  The operator application is an element
        gather and its stiffness and mass products, under six element arrays.  The band (927 kB) outweighs
        the whole bound (543 kB), so a solve that kept or rebuilt a copy of the band fails it.
        """
        prob = cantilever(60, 20, omega=2 * np.pi * 50.0)
        state = full_state(prob)
        props = homogenize(prob.cell, state.x_micro, steel_foam(), prob.penalty)
        system = factorized_dynamic(prob, state, props.d_h, props.rho_h)
        rhs = np.zeros(prob.grid.n_dofs)
        rhs[prob.free] = rng.standard_normal(prob.free.size)
        u, peak = traced_peak(lambda: system.solve(rhs))
        assert u.shape == rhs.shape and system.calls == 1
        assert peak <= 8 * (4 * prob.grid.n_dofs + 6 * prob.grid.n_elems * 2**prob.grid.dim * prob.grid.dim)


class TestMeanCompliance:
    def test_zero_load(self):
        assert mean_compliance(np.zeros(4), np.ones(4)) == 0.0

    def test_static_compliance_equals_strain_energy_form(self):
        prob = cantilever(5, 2)
        d = elasticity_matrix(200e3, 0.3, 2)
        k, m = assemble(prob.grid, d, 7.9e-9)
        u = solve_system(k, m, 0.0, prob.force, prob.fixed_dofs)
        assert np.isclose(mean_compliance(prob.force, u), u @ (k @ u), rtol=1e-9)

    def test_doubling_load_quadruples_compliance(self):
        prob = cantilever(5, 2)
        d = elasticity_matrix(200e3, 0.3, 2)
        k, m = assemble(prob.grid, d, 7.9e-9)
        u1 = solve_system(k, m, 0.0, prob.force, prob.fixed_dofs)
        u2 = solve_system(k, m, 0.0, 2 * prob.force, prob.fixed_dofs)
        c1 = mean_compliance(prob.force, u1)
        c2 = mean_compliance(2 * prob.force, u2)
        assert np.isclose(c2, 4 * c1, rtol=1e-12)


class TestSystemProperties:
    def test_compliance_monotone_in_element_stiffness(self, rng):
        # scaling any element's D up cannot increase static compliance
        grid = StructuredGrid((3, 2), (1.0, 1.0))
        fixed = np.array([0, 1, 8, 9, 16, 17])
        f = np.zeros(grid.n_dofs)
        f[2 * 3 + 1] = -1.0
        d = elasticity_matrix(100.0, 0.3, 2)
        for trial in range(4):
            scales = 0.5 + rng.random(grid.n_elems)
            d_mats = scales[:, None, None] * d
            k, m = assemble(grid, d_mats, 1.0)
            c0 = mean_compliance(f, solve_system(k, m, 0.0, f, fixed))
            bump = rng.integers(0, grid.n_elems)
            d2 = d_mats.copy()
            d2[bump] *= 1.5
            k2, _ = assemble(grid, d2, 1.0)
            c1 = mean_compliance(f, solve_system(k2, m, 0.0, f, fixed))
            assert c1 <= c0 * (1 + 1e-12)

    def test_node_permutation_leaves_compliance_invariant(self, rng):
        prob = cantilever(4, 3)
        mat = steel_foam()
        state = full_state(prob)
        props = homogenize(prob.cell, state.x_micro, mat, prob.penalty)
        k, m = reference_matrices(prob, state, props.d_h, props.rho_h)
        c0 = mean_compliance(prob.force, solve_system(k, m, 0.0, prob.force, prob.fixed_dofs))
        perm = rng.permutation(prob.grid.n_dofs)
        pmat = np.eye(prob.grid.n_dofs)[perm]
        kp = pmat @ k.toarray() @ pmat.T
        fp = pmat @ prob.force
        fixed_p = np.flatnonzero(np.isin(perm, prob.fixed_dofs))
        import scipy.sparse as sps

        up = solve_system(sps.csc_matrix(kp), sps.csc_matrix(kp * 0), 0.0, fp, fixed_p)
        assert np.isclose(mean_compliance(fp, up), c0, rtol=1e-9)


def test_only_fem_imports_scipy_sparse():
    # the sparse format lives in one module; the others read the band pattern or apply operators matrix-free
    importers = set()
    for path in sorted(Path(rcto.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names] + [node.module or ""]
            else:
                continue
            if any(name == "scipy.sparse" or name.startswith("scipy.sparse.") for name in names):
                importers.add(path.stem)
    assert importers == {"fem"}
