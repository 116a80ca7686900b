"""Periodic homogenization against closed-form laminates and brute-force sums."""

import pathlib

import numpy as np
import pytest

from rcto import fem, homogenization
from rcto.config import build_problem, parse_config
from rcto.errors import NumericalError, SingularSystemError
from rcto.fem import StructuredGrid, element_stiffness_batch, strain_operators
from rcto.homogenization import (
    cell_energy_basis,
    cell_loads,
    cell_operator,
    corner_tables,
    corrected_strains,
    effective_density,
    format_effective_matrix,
    homogenize,
    micro_elasticity,
    reference_split,
    seed_cell,
    solve_cell_problems,
    stiffness_weights,
)
from rcto.materials import Phase, TwoPhaseMaterial, elasticity_matrix
from rcto.problem import design_weight
from rcto.uncertainty import BatchComplianceEvaluator

from conftest import (
    cell_strains,
    coo_reference,
    full_state,
    reference_d_h,
    reference_d_h_derivative,
    refuse_sparse_matrices,
    steel_foam,
    traced_peak,
)

X_MIN = 1e-6
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def random_cell(rng, n=6, solid_fraction=0.6):
    grid = StructuredGrid((n, n), (1.0 / n, 1.0 / n))
    x = np.where(rng.random(grid.n_elems) < solid_fraction, 1.0, X_MIN)
    return grid, x


def laminate_cell(n=6, layers_axis=1):
    """Half phase 1 / half phase 2 layered normal to the given axis."""
    grid = StructuredGrid((n, n), (1.0 / n, 1.0 / n))
    idx = np.unravel_index(np.arange(grid.n_elems), grid.shape, order="F")
    x = np.where(idx[layers_axis] < n // 2, X_MIN, 1.0)
    return grid, x


class TestCellProblems:
    def test_homogeneous_cell_has_zero_induced_strain(self):
        mat = steel_foam()
        grid = StructuredGrid((5, 5), (0.2, 0.2))
        d = np.broadcast_to(mat.phase1.elasticity(2), (grid.n_elems, 3, 3))
        g, w = cell_strains(grid, d)
        induced = np.eye(3)[None, None] - g
        assert np.abs(induced).max() < 1e-12

    def test_layered_cell_strains_match_series_solution(self):
        # nu = 0 phases: for the transverse unit test strain the stress is
        # uniform and each layer carries sigma / E_layer of strain
        e1, e2 = 10.0, 2.0
        mat = TwoPhaseMaterial(Phase(e1, 0.0, 2.0), Phase(e2, 0.0, 1.0))
        grid, x = laminate_cell(6, layers_axis=1)
        d = micro_elasticity(x, mat, 3.0, 2)
        g, w = cell_strains(grid, d)
        e2_eff = e2 + X_MIN**3 * (e1 - e2)
        sigma = 1.0 / (0.5 / e1 + 0.5 / e2_eff)
        total_yy = g[:, :, 1, 1]  # (eps0 - eps)_yy for the yy test strain
        for voxel in range(grid.n_elems):
            expect = sigma / (e1 if x[voxel] == 1.0 else e2_eff)
            assert np.allclose(total_yy[voxel], expect, rtol=1e-9)
        # in-plane direction: strain stays uniform (parallel coupling, nu = 0)
        assert np.allclose(g[:, :, 0, 0], 1.0, atol=1e-10)

    def test_solution_invariant_under_cell_translation(self, rng):
        mat = steel_foam()
        grid, x = random_cell(rng)
        p1 = homogenize(grid, x, mat, 3.0)
        x_grid = x.reshape(grid.shape, order="F")
        x_shift = np.roll(np.roll(x_grid, 2, axis=0), 3, axis=1).ravel(order="F")
        p2 = homogenize(grid, x_shift, mat, 3.0)
        assert np.allclose(p1.d_h, p2.d_h, rtol=1e-9)

    def test_void_cell_raises(self):
        grid = StructuredGrid((3, 3), (1 / 3, 1 / 3))
        with pytest.raises(SingularSystemError, match="cell"):
            solve_cell_problems(grid, np.zeros((grid.n_elems, 3, 3)))


def periodic_dofs(grid):
    """(n_voxels, ndof_e) master DOFs of each voxel: every node index wrapped into the cell, x fastest."""
    nodes = np.stack(np.unravel_index(grid.elem_node_ids, grid.nodes_shape, order="F"), axis=-1)
    master = np.ravel_multi_index(np.moveaxis(nodes % grid.shape, -1, 0), grid.shape, order="F")
    return (grid.dim * master[:, :, None] + np.arange(grid.dim)).reshape(grid.n_elems, -1)


class TestCellOperator:
    @pytest.mark.parametrize("shape", [(3, 2), (3, 1), (2, 2, 1)])
    def test_operator_matches_coo_assembly(self, rng, shape):
        # a one-element axis maps both faces of an element onto one master node
        grid = StructuredGrid(shape, (1.0,) * len(shape))
        dofs, n = periodic_dofs(grid), grid.dim * grid.n_elems
        assert np.unique(dofs).size == n
        nodes, slots = corner_tables(grid)
        assert np.array_equal(grid.dim * nodes, dofs[:, :: grid.dim])
        corners = np.arange(nodes.shape[1])  # slot a of the node at corner a of voxel v is that corner of v
        assert np.array_equal(slots[corners, nodes], corners.size * np.arange(grid.n_elems)[:, None] + corners)
        ncomp = 3 if grid.dim == 2 else 6
        d = rng.standard_normal((grid.n_elems, ncomp, ncomp))
        u = rng.standard_normal((n, 4))
        k_e = element_stiffness_batch(d, grid.spacing)
        ref = coo_reference(dofs, n, k_e) @ u
        assert np.abs(cell_operator(grid, k_e)(u) - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("shape", [(5, 4), (3, 4, 2)])
    def test_weighted_operator_matches_the_scaled_stack(self, rng, shape):
        # the Monte Carlo oracle's cell terms: a per-voxel weight times one reference element matrix
        grid = StructuredGrid(shape, tuple(1.0 / n for n in shape))
        ncomp = 3 if grid.dim == 2 else 6
        k = element_stiffness_batch(spd_stack(rng, 1, ncomp), grid.spacing)[0]
        weights = rng.random(grid.n_elems)
        u = rng.standard_normal((grid.dim * grid.n_elems, 3))
        ref = cell_operator(grid, weights[:, None, None] * k)(u)
        assert np.abs(cell_operator(grid, k, weights)(u) - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_corner_tables_built_once_per_grid(self):
        grid = StructuredGrid((4, 2), (0.25, 0.5))
        assert corner_tables(grid) is corner_tables(grid)
        assert corner_tables(grid) is corner_tables(StructuredGrid((4, 2), (0.25, 0.5)))
        assert not any(table.flags.writeable for table in corner_tables(grid))

    def test_grids_with_equal_element_counts_get_their_own_tables(self):
        wide = corner_tables(StructuredGrid((4, 2), (0.25, 0.5)))
        tall = corner_tables(StructuredGrid((2, 4), (0.5, 0.25)))
        assert wide is not tall
        assert not np.array_equal(wide[0], tall[0]) and not np.array_equal(wide[1], tall[1])


def spd_stack(rng, n, ncomp):
    a = rng.standard_normal((n, ncomp, ncomp))
    return a @ np.swapaxes(a, 1, 2) + ncomp * np.eye(ncomp)


class TestReferenceSplit:
    def test_majority_matrix_is_the_reference(self):
        d1, d2 = steel_foam().phase1.elasticity(2), steel_foam().phase2.elasticity(2)
        d = np.stack([d1, d2, d2, d1, d2])
        d_ref, differ = reference_split(d)
        assert np.array_equal(d_ref, d2)
        assert np.array_equal(differ, [True, False, False, True, False])

    def test_key_collision_still_splits_exactly(self):
        # entries weighted 1, 2, ...: a 2 in the first entry and a 1 in the second give the same key
        a, b = np.zeros((2, 2)), np.zeros((2, 2))
        a[0, 0], b[0, 1] = 2.0, 1.0
        d = np.stack([a, b, b, a, a])
        d_ref, differ = reference_split(d)
        assert np.array_equal(differ, np.any(d != d_ref, axis=(1, 2)))
        assert any(np.array_equal(d_ref, m) for m in (a, b))

    @pytest.mark.parametrize("case", ["two-phase", "every voxel differs", "homogeneous"])
    @pytest.mark.parametrize("shape", [(5, 4), (3, 4, 2)])
    def test_reference_plus_difference_is_the_cell_operator(self, rng, case, shape):
        grid = StructuredGrid(shape, tuple(1.0 / n for n in shape))
        ncomp = 3 if grid.dim == 2 else 6
        if case == "two-phase":
            x = np.where(rng.random(grid.n_elems) < 0.7, 1.0, X_MIN)
            d = micro_elasticity(x, steel_foam(), 3.0, grid.dim)
            d_ref, differ = reference_split(d)
            assert 0 < differ.sum() < grid.n_elems / 2
        elif case == "every voxel differs":
            d = spd_stack(rng, grid.n_elems, ncomp)
            d_ref, differ = d.mean(axis=0), np.ones(grid.n_elems, dtype=bool)
        else:
            d = np.broadcast_to(spd_stack(rng, 1, ncomp), (grid.n_elems, ncomp, ncomp))
            d_ref, differ = reference_split(d)
            assert not differ.any()
        reference = cell_operator(grid, element_stiffness_batch(d_ref[None], grid.spacing)[0])
        difference = homogenization._difference_operator(grid, d, d_ref, differ)
        p = rng.standard_normal((grid.dim * grid.n_elems, 4))
        ref = cell_operator(grid, element_stiffness_batch(d, grid.spacing))(p)
        assert np.abs(reference(p) + difference(p) - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("name", ["prism_3d.yaml", "cantilever_2d.yaml"])
    def test_cell_solve_builds_stiffness_for_the_differing_voxels_only(self, name, monkeypatch):
        cfg = parse_config(str(CONFIGS / name))
        cell = cfg.cell_grid()
        x = seed_cell(cell, cfg.seed_fraction, cfg.x_min)
        d = micro_elasticity(x, cfg.base_material, cfg.penalty, cell.dim)
        stacks = []

        def recording(d_mats, spacing):
            stacks.append(len(d_mats))
            return element_stiffness_batch(d_mats, spacing)

        monkeypatch.setattr(homogenization, "element_stiffness_batch", recording)
        solve_cell_problems(cell, d)
        minority = int(np.sum(x == cfg.x_min))  # 136 of 2,744 on prism_3d, 124 of 2,500 on cantilever_2d
        assert 0 < minority < cell.n_elems / 2
        assert sorted(stacks) == [1, minority]  # the reference element, then the differing voxels


class TestNoCellAssembly:
    def test_cell_paths_never_build_a_sparsity_pattern(self, monkeypatch):
        problem = build_problem(parse_config(str(CONFIGS / "cantilever_small.yaml")))

        def refuse(*args, **kwargs):
            raise AssertionError("a sparsity pattern or a sparse matrix was built for the periodic cell")

        monkeypatch.setattr(fem.SparsityPattern, "from_dofs", refuse)
        refuse_sparse_matrices(monkeypatch, refuse)
        for shape in [(9, 5), (3, 4, 2)]:  # cells no other test builds, so nothing is cached
            grid = StructuredGrid(shape, tuple(1.0 / n for n in shape))
            homogenize(grid, seed_cell(grid, 0.2, X_MIN), steel_foam(), 3.0)
        BatchComplianceEvaluator(problem, full_state(problem), steel_foam())


def random_cell_3d(rng, n):
    grid = StructuredGrid((n, n, n), (1.0 / n,) * 3)
    x = np.where(rng.random(grid.n_elems) < 0.6, 1.0, X_MIN)
    return grid, micro_elasticity(x, steel_foam(), 3.0, 3)


def dense_cell_solution(grid, d):
    """Pinned-corner dense solve of the cell problems moved to zero mean per direction, and its g."""
    dofs = periodic_dofs(grid)
    k = coo_reference(dofs, grid.dim * grid.n_elems, element_stiffness_batch(d, grid.spacing)).toarray()
    rhs = cell_loads(grid, d)[0]
    u = np.zeros_like(rhs)
    u[grid.dim:] = np.linalg.solve(k[grid.dim:, grid.dim:], rhs[grid.dim:])
    nodal = u.reshape(-1, grid.dim, rhs.shape[1])
    u = (nodal - nodal.mean(axis=0)).reshape(u.shape)
    b = strain_operators(grid.spacing)[0]
    return u, np.eye(rhs.shape[1]) - b[None] @ u[dofs][:, None]


class TestCellSolver:
    def test_3d_cell_solution_matches_dense_solve(self, rng):
        grid, d = random_cell_3d(rng, 4)
        u = solve_cell_problems(grid, d)
        g = corrected_strains(grid, u)
        u_ref, g_ref = dense_cell_solution(grid, d)
        err = np.linalg.norm(u - u_ref, axis=0)
        assert np.all(err <= 1e-10 * np.linalg.norm(u_ref, axis=0))
        nodal_mean = u.reshape(-1, grid.dim, u.shape[1]).mean(axis=0)
        assert np.abs(nodal_mean).max() <= 1e-14 * np.abs(u).max()
        assert np.abs(g - g_ref).max() <= 1e-10 * np.abs(g_ref).max()

    @pytest.mark.parametrize("shape", [(8, 6), (4, 3, 4)])
    def test_phase2_majority_cell_matches_dense_solve(self, rng, shape):
        grid = StructuredGrid(shape, tuple(1.0 / n for n in shape))
        x = np.where(rng.random(grid.n_elems) < 0.3, 1.0, X_MIN)
        d = micro_elasticity(x, steel_foam(), 3.0, grid.dim)
        assert np.array_equal(reference_split(d)[0], d[np.argmin(x)])  # D_ref is the phase-2 voxel
        g, w = cell_strains(grid, d)
        _, g_ref = dense_cell_solution(grid, d)
        assert np.abs(g - g_ref).max() <= 1e-10 * np.abs(g_ref).max()
        d_h, d_h_dense = reference_d_h(g, w, d, grid.volume), reference_d_h(g_ref, w, d, grid.volume)
        assert np.abs(d_h - d_h_dense).max() <= 1e-10 * np.abs(d_h_dense).max()

    @pytest.mark.parametrize("shape", [(5, 5), (3, 3, 3)])
    def test_rounding_level_loads_give_zero_correctors(self, shape):
        # a homogeneous cell's loads cancel to rounding: no solve, exactly zero correctors
        grid = StructuredGrid(shape, tuple(1.0 / n for n in shape))
        d = micro_elasticity(np.ones(grid.n_elems), steel_foam(), 3.0, grid.dim)
        assert np.any(cell_loads(grid, d)[0])
        u = solve_cell_problems(grid, d)
        assert not np.any(u)

    @pytest.mark.parametrize("shape", [(4, 4, 4), (8, 8)])
    def test_high_contrast_cell_matches_dense_d_h(self, rng, shape):
        # E1 / E2 = 1e3 puts the phase contrast, and the CG iteration bound, far above the shipped 1.33
        mat = TwoPhaseMaterial(Phase(1e3, 0.3, 1.0), Phase(1.0, 0.3, 1.0))
        grid = StructuredGrid(shape, tuple(1.0 / n for n in shape))
        d = micro_elasticity(np.where(rng.random(grid.n_elems) < 0.5, 1.0, X_MIN), mat, 3.0, grid.dim)
        g, w = cell_strains(grid, d)
        _, g_ref = dense_cell_solution(grid, d)
        d_h, d_ref = reference_d_h(g, w, d, grid.volume), reference_d_h(g_ref, w, d, grid.volume)
        assert np.abs(d_h - d_ref).max() <= 1e-10 * np.abs(d_ref).max()

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.yaml")))
    def test_seed_cell_of_every_shipped_config_converges_within_the_bound(self, name):
        # going past the a-priori iteration bound raises, so returning is the check
        cfg = parse_config(str(CONFIGS / name))
        cell = cfg.cell_grid()
        x = seed_cell(cell, cfg.seed_fraction, cfg.x_min)
        for material in (cfg.base_material, cfg.params.mean_material(cfg.base_material)):
            solve_cell_problems(cell, micro_elasticity(x, material, cfg.penalty, cell.dim))

    def test_unreachable_tolerance_stops_at_the_bound_and_names_the_contrast(self, rng, monkeypatch):
        monkeypatch.setattr(homogenization, "CG_RTOL", 1e-30)
        grid, x = random_cell(rng)
        with pytest.raises(NumericalError, match="kappa = 1.333"):
            solve_cell_problems(grid, micro_elasticity(x, steel_foam(), 3.0, 2))


class TestEffectiveDensity:
    def test_full_phase1(self):
        mat = steel_foam()
        grid = StructuredGrid((4, 4), (0.25, 0.25))
        assert np.isclose(effective_density(np.ones(16), mat, grid), mat.phase1.density)

    def test_half_and_half_limit(self):
        mat = TwoPhaseMaterial(Phase(2.0, 0.3, 3.0), Phase(1.0, 0.3, 1.0))
        grid = StructuredGrid((4, 4), (0.25, 0.25))
        x = np.zeros(16)
        x[:8] = 1.0  # x_min -> 0 limit
        assert np.isclose(effective_density(x, mat, grid), 2.0)

    def test_matches_brute_force_loop(self, rng):
        mat = steel_foam()
        grid = StructuredGrid((5, 7), (0.2, 1 / 7))
        x = rng.random(grid.n_elems)
        total = 0.0
        for xi in x:  # direct loop evaluation of the volume average
            total += grid.elem_volume * (xi * mat.phase1.density + (1 - xi) * mat.phase2.density)
        assert np.isclose(effective_density(x, mat, grid), total / grid.volume, rtol=1e-12)

    def test_linear_in_each_variable(self, rng):
        mat = steel_foam()
        grid = StructuredGrid((4, 4), (0.25, 0.25))
        x = rng.random(16)
        base = effective_density(x, mat, grid)
        x2 = x.copy()
        x2[5] += 0.25
        bump = effective_density(x2, mat, grid)
        x3 = x.copy()
        x3[5] += 0.5
        assert np.isclose(effective_density(x3, mat, grid) - base, 2 * (bump - base), rtol=1e-12)


def test_one_effective_density_reads_the_same_in_the_weight_model_homogenization_and_oracle(rng):
    # rho_h has one definition: the weight of one full macro element, V_a rho_h from homogenize and the
    # oracle's rho_h agree bitwise on random two-valued cells of cantilever_2d's 50 x 50 grid
    cfg = parse_config(CONFIGS / "cantilever_2d.yaml")
    problem, material = build_problem(cfg), cfg.base_material
    for _ in range(20):
        x = np.where(rng.random(problem.cell.n_elems) < rng.random(), 1.0, cfg.x_min)
        props = homogenize(problem.cell, x, material, problem.penalty)
        weight = design_weight(problem, material, 1.0, np.sum(x))
        assert weight == problem.grid.elem_volume * props.rho_h
        oracle = BatchComplianceEvaluator(problem, full_state(problem, micro=x), material)
        assert oracle.fraction == props.fraction and material.mixed_density(oracle.fraction) == props.rho_h


class TestEffectiveElasticity:
    def test_full_phase1_reproduces_base(self):
        mat = steel_foam()
        grid = StructuredGrid((6, 6), (1 / 6, 1 / 6))
        props = homogenize(grid, np.ones(36), mat, 3.0)
        d1 = mat.phase1.elasticity(2)
        assert np.abs(props.d_h - d1).max() <= 1e-9 * np.abs(d1).max()

    def test_all_xmin_reproduces_interpolated_phase2(self):
        mat = steel_foam()
        grid = StructuredGrid((4, 4), (0.25, 0.25))
        props = homogenize(grid, np.full(16, X_MIN), mat, 3.0)
        mix = X_MIN**3 * mat.phase1.elasticity(2) + (1 - X_MIN**3) * mat.phase2.elasticity(2)
        assert np.allclose(props.d_h, mix, rtol=1e-9)

    def test_laminate_voigt_reuss_closed_forms(self):
        e1, e2 = 10.0, 1.0
        mat = TwoPhaseMaterial(Phase(e1, 0.0, 2.0), Phase(e2, 0.0, 1.0))
        grid, x = laminate_cell(6, layers_axis=1)
        props = homogenize(grid, x, mat, 3.0)
        e2_eff = e2 + X_MIN**3 * (e1 - e2)
        voigt = 0.5 * e1 + 0.5 * e2_eff
        reuss = 1.0 / (0.5 / e1 + 0.5 / e2_eff)
        assert np.isclose(props.d_h[0, 0], voigt, rtol=1e-6)
        assert np.isclose(props.d_h[1, 1], reuss, rtol=1e-6)
        assert np.isclose(props.d_h[2, 2], 0.5 * reuss, rtol=1e-6)  # shear G = E/2 at nu = 0
        assert abs(props.d_h[0, 1]) < 1e-9 * voigt

    def test_three_dimensional_homogeneous_cell(self):
        mat = steel_foam()
        grid = StructuredGrid((3, 3, 3), (1 / 3, 1 / 3, 1 / 3))
        props = homogenize(grid, np.ones(27), mat, 3.0)
        d1 = mat.phase1.elasticity(3)
        assert np.abs(props.d_h - d1).max() <= 1e-9 * np.abs(d1).max()

    def test_positive_definite_on_random_cells(self, rng):
        mat = steel_foam()
        for _ in range(3):
            grid, x = random_cell(rng)
            props = homogenize(grid, x, mat, 3.0)
            np.linalg.cholesky(props.d_h)  # raises if not PD

    def test_four_fold_symmetry_gives_square_isotropy(self):
        mat = steel_foam()
        grid = StructuredGrid((6, 6), (1 / 6, 1 / 6))
        x = seed_cell(grid, 0.2, X_MIN)  # centered disk has the 4-fold symmetry
        props = homogenize(grid, x, mat, 3.0)
        assert np.isclose(props.d_h[0, 0], props.d_h[1, 1], rtol=1e-9)


class TestEffectiveDerivatives:
    mat = steel_foam()

    def _props(self, rng):
        grid, x = random_cell(rng)
        return homogenize(grid, x, self.mat, 3.0)

    def test_density_derivative_is_weighted_volume_fraction(self, rng):
        props = self._props(rng)
        drho = props.rho_h_derivative(("rho1",))
        expect = np.sum(props.x) * props.grid.elem_volume / props.grid.volume
        assert np.isclose(drho, expect, rtol=1e-12)

    def test_elasticity_derivative_matches_finite_differences(self, rng):
        props = self._props(rng)
        dd = props.d_h_derivative(("e1",))
        e0 = self.mat.phase1.youngs
        h = 1e-4 * e0
        def d_h_at(e1):
            m = TwoPhaseMaterial(Phase(e1, 0.3, 7.9e-9), self.mat.phase2)
            return homogenize(props.grid, props.x, m, 3.0).d_h
        fd = (d_h_at(e0 + h) - d_h_at(e0 - h)) / (2 * h)
        assert np.abs(dd - fd).max() <= 0.02 * np.abs(fd).max()

    def test_poisson_derivative_matches_finite_differences(self, rng):
        props = self._props(rng)
        dd = props.d_h_derivative(("nu",))
        h = 1e-5
        def d_h_at(nu):
            m = TwoPhaseMaterial(Phase(200e3, nu, 7.9e-9), Phase(150e3, nu, 0.79e-9))
            return homogenize(props.grid, props.x, m, 3.0).d_h
        fd = (d_h_at(0.3 + h) - d_h_at(0.3 - h)) / (2 * h)
        assert np.abs(dd - fd).max() <= 0.02 * np.abs(fd).max()

    def test_own_kernel_maps_to_d_h_and_rho_h_bitwise(self, rng):
        props = self._props(rng)
        d, rho = props.properties(self.mat.kernel(props.grid.dim))
        assert np.array_equal(d, props.d_h) and rho == props.rho_h

    def test_density_parameters_leave_elasticity_untouched(self, rng):
        props = self._props(rng)
        assert not np.any(props.d_h_derivative(("rho1",)))
        assert not np.any(props.d_h_derivative(("rho2",)))

    def test_micro_design_derivative_matches_finite_differences(self, rng):
        # dD_h/dx_i = p x_i^(p-1) / |Y| * sum_k (c[0, k] - c[1, k]) P[i, k]
        props = self._props(rng)
        c = self.mat.coefficients(props.grid.dim)
        scale = props.penalty * stiffness_weights(props.x, props.penalty - 1.0) / props.grid.volume
        dd_stack = scale[:, None, None] * np.tensordot(c[0] - c[1], props.basis, axes=([0], [1]))
        x = props.x.copy()
        h = 1e-6
        for voxel in (0, 7, props.grid.n_elems - 1):
            xp = x.copy(); xp[voxel] += h
            xm = x.copy(); xm[voxel] -= h
            fd = (homogenize(props.grid, xp, self.mat, 3.0).d_h
                  - homogenize(props.grid, xm, self.mat, 3.0).d_h) / (2 * h)
            assert np.abs(dd_stack[voxel] - fd).max() <= 0.02 * max(np.abs(fd).max(), 1e-12)

    def test_unknown_parameter_tag_rejected(self, rng):
        props = self._props(rng)
        with pytest.raises(ValueError, match="unknown"):
            props.d_h_derivative(("bogus",))
        with pytest.raises(ValueError, match="unknown"):
            props.rho_h_derivative(("bogus",))


class TestCellEnergyBasis:
    """D_h and its parameter derivatives from the basis, against direct contractions over the cell."""

    mat = TwoPhaseMaterial(Phase(200e3, 0.3, 7.9e-9), Phase(150e3, 0.25, 0.79e-9))

    @staticmethod
    def _cell(rng, shape):
        grid = StructuredGrid(shape, tuple(1.0 / n for n in shape))
        return grid, np.where(rng.random(grid.n_elems) < 0.6, 1.0, X_MIN)

    @pytest.mark.parametrize("shape", [(6, 5), (3, 4, 3)])
    def test_effective_elasticity_matches_direct_contraction(self, rng, shape):
        grid, x = self._cell(rng, shape)
        props = homogenize(grid, x, self.mat, 3.0)
        d_voxels = micro_elasticity(x, self.mat, 3.0, grid.dim)
        g, w = cell_strains(grid, d_voxels)
        ref = reference_d_h(g, w, d_voxels, grid.volume)
        assert np.abs(props.d_h - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(props.d_h, props.d_h.T)

    @pytest.mark.parametrize("shape", [(6, 5), (3, 4, 3)])
    @pytest.mark.parametrize(
        "wrt", [("e1",), ("e2",), ("nu",), ("nu1",), ("nu2",), ("rho1",), ("nu", "nu"), ("e1", "nu")]
    )
    def test_parameter_derivatives_match_direct_contraction(self, rng, shape, wrt):
        grid, x = self._cell(rng, shape)
        props = homogenize(grid, x, self.mat, 3.0)
        g, w = cell_strains(grid, micro_elasticity(x, self.mat, 3.0, grid.dim))
        d1 = self.mat.d_derivative(1, grid.dim, wrt)
        d2 = self.mat.d_derivative(2, grid.dim, wrt)
        ref = reference_d_h_derivative(g, w, stiffness_weights(x, 3.0), d1, d2, grid.volume)
        got = props.d_h_derivative(wrt)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(got, got.T)


    def test_chunks_leave_the_basis_bitwise_unchanged(self, rng, monkeypatch):
        grid, x = self._cell(rng, (4, 3, 5))
        u = solve_cell_problems(grid, micro_elasticity(x, self.mat, 3.0, grid.dim))
        whole = cell_energy_basis(grid, u)
        monkeypatch.setattr(homogenization, "BASIS_CHUNK", 7)  # 60 voxels: eight chunks, the last of four
        assert np.array_equal(cell_energy_basis(grid, u), whole)

    def test_working_set_of_a_3d_homogenization(self):
        # the prism_3d seed cell, 14^3 voxels: the whole corrected-strain field g would take 6.3 MiB and the
        # whole gather of the correctors 3.2 MiB; the basis forms g one chunk of voxels at a time
        cfg = parse_config(str(CONFIGS / "prism_3d.yaml"))
        cell = cfg.cell_grid()
        x = seed_cell(cell, cfg.seed_fraction, cfg.x_min)
        props, peak = traced_peak(lambda: homogenize(cell, x, cfg.base_material, cfg.penalty))
        assert props.basis.shape == (14**3, 2, 6, 6)
        assert peak < 11.5 * 2**20


class TestSeedAndFormatting:
    def test_seed_fraction_and_symmetry(self):
        grid = StructuredGrid((10, 10), (0.1, 0.1))
        x = seed_cell(grid, 0.05, X_MIN)
        count = np.sum(x == X_MIN)
        assert 0 < count <= 8  # closest complete shells to 5 voxels
        field = x.reshape(10, 10, order="F")
        assert np.allclose(field, field[::-1, :]) and np.allclose(field, field[:, ::-1])
        assert np.allclose(field, field.T)

    def test_zero_fraction_is_uniform(self):
        grid = StructuredGrid((4, 4), (0.25, 0.25))
        assert np.all(seed_cell(grid, 0.0, X_MIN) == 1.0)

    def test_format_block_contains_matrix_and_density(self):
        text = format_effective_matrix(np.eye(3), 1.23e-9)
        assert "effective elasticity matrix" in text
        assert "1.23" in text and text.count("\n") == 5
