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
    cell_dofs,
    cell_loads,
    cell_operator,
    corrected_strains,
    effective_density,
    format_effective_matrix,
    homogenize,
    seed_cell,
    solve_cell_problems,
    stiffness_weights,
)
from rcto.materials import Phase, TwoPhaseMaterial, elasticity_matrix
from rcto.problem import design_weight
from rcto.uncertainty import BatchComplianceEvaluator

from conftest import (
    cell_phases,
    cell_strains,
    coo_reference,
    full_state,
    periodic_dofs,
    phase_derivatives,
    reference_d_h,
    reference_d_h_derivative,
    refuse_sparse_matrices,
    stacked_cell_loads,
    steel_foam,
    traced_peak,
    voxel_elasticity,
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
        g, w = cell_strains(grid, *cell_phases(np.ones(grid.n_elems), mat, 3.0, 2))
        induced = np.eye(3)[None, None] - g
        assert np.abs(induced).max() < 1e-12

    def test_layered_cell_strains_match_series_solution(self):
        # nu = 0 phases: for the transverse unit test strain the stress is
        # uniform and each layer carries sigma / E_layer of strain
        e1, e2 = 10.0, 2.0
        mat = TwoPhaseMaterial(Phase(e1, 0.0, 2.0), Phase(e2, 0.0, 1.0))
        grid, x = laminate_cell(6, layers_axis=1)
        g, w = cell_strains(grid, *cell_phases(x, mat, 3.0, 2))
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
            solve_cell_problems(grid, np.zeros(grid.n_elems), np.zeros((3, 3)), np.zeros((3, 3)))


class TestCellOperator:
    @pytest.mark.parametrize("shape", [(3, 2), (3, 1), (2, 2, 1)])
    def test_operator_matches_coo_assembly(self, rng, shape):
        # a one-element axis maps both faces of an element onto one master node
        grid = StructuredGrid(shape, (1.0,) * len(shape))
        dofs, n = periodic_dofs(grid), grid.dim * grid.n_elems
        assert np.unique(dofs).size == n
        assert cell_dofs(grid).flags.c_contiguous and np.array_equal(cell_dofs(grid).T, dofs)
        ncomp = 3 if grid.dim == 2 else 6
        k_e = element_stiffness_batch(rng.standard_normal((1, ncomp, ncomp)), grid.spacing)[0]
        u = rng.standard_normal((n, 4))
        ref = coo_reference(dofs, n, np.broadcast_to(k_e, (grid.n_elems,) + k_e.shape)) @ u
        assert np.abs(cell_operator(grid, k_e)(u) - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("shape", [(5, 4), (3, 4, 2)])
    def test_weighted_operator_matches_the_scaled_stack(self, rng, shape):
        # the Monte Carlo oracle's cell terms: a per-voxel weight times one reference element matrix
        grid = StructuredGrid(shape, tuple(1.0 / n for n in shape))
        ncomp = 3 if grid.dim == 2 else 6
        k = element_stiffness_batch(spd_stack(rng, 1, ncomp), grid.spacing)[0]
        weights = rng.random(grid.n_elems)
        u = rng.standard_normal((grid.dim * grid.n_elems, 3))
        ref = coo_reference(periodic_dofs(grid), len(u), weights[:, None, None] * k) @ u
        got = cell_operator(grid, k, weights)(u)
        assert got.flags.c_contiguous
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_cell_dofs_built_once_per_grid(self):
        grid = StructuredGrid((4, 2), (0.25, 0.5))
        assert cell_dofs(grid) is cell_dofs(grid)
        assert cell_dofs(grid) is cell_dofs(StructuredGrid((4, 2), (0.25, 0.5)))
        assert not cell_dofs(grid).flags.writeable

    def test_grids_with_equal_element_counts_get_their_own_tables(self):
        wide = cell_dofs(StructuredGrid((4, 2), (0.25, 0.5)))
        tall = cell_dofs(StructuredGrid((2, 4), (0.5, 0.25)))
        assert wide is not tall
        assert not np.array_equal(wide, tall)


def spd_stack(rng, n, ncomp):
    a = rng.standard_normal((n, ncomp, ncomp))
    return a @ np.swapaxes(a, 1, 2) + ncomp * np.eye(ncomp)


def record_stiffness_batches(monkeypatch):
    """The matrix stacks of every ``element_stiffness_batch`` call the cell solver makes."""
    batches = []

    def recording(d_mats, spacing):
        batches.append(np.array(d_mats))
        return element_stiffness_batch(d_mats, spacing)

    monkeypatch.setattr(homogenization, "element_stiffness_batch", recording)
    return batches


class TestReferenceSplit:
    def test_majority_matrix_is_the_reference(self, rng, monkeypatch):
        grid = StructuredGrid((5, 4), (0.2, 0.25))
        eta, d1, d2 = cell_phases(np.where(rng.random(grid.n_elems) < 0.3, 1.0, X_MIN), steel_foam(), 3.0, 2)
        assert np.sum(eta == eta.min()) > grid.n_elems / 2  # the phase-2 voxels are the majority
        batches = record_stiffness_batches(monkeypatch)
        solve_cell_problems(grid, eta, d1, d2)
        d_ref = voxel_elasticity(eta, d1, d2)[np.argmin(eta)]
        assert len(batches) == 1 and np.array_equal(batches[0], np.stack([d_ref, d1 - d2]))

    @pytest.mark.parametrize("case", ["two-phase", "every voxel differs", "homogeneous"])
    @pytest.mark.parametrize("shape", [(5, 4), (3, 4, 2)])
    def test_reference_plus_difference_is_the_cell_operator(self, rng, case, shape):
        grid = StructuredGrid(shape, tuple(1.0 / n for n in shape))
        ncomp = 3 if grid.dim == 2 else 6
        if case == "two-phase":
            eta, d1, d2 = cell_phases(np.where(rng.random(grid.n_elems) < 0.7, 1.0, X_MIN), steel_foam(), 3.0, grid.dim)
            eta_ref = 1.0
            assert 0 < np.sum(eta != eta_ref) < grid.n_elems / 2
        elif case == "every voxel differs":  # continuous weights, none at the reference weight
            (d1, d2), eta, eta_ref = spd_stack(rng, 2, ncomp), rng.random(grid.n_elems), 0.5
        else:
            (d1, d2), eta = spd_stack(rng, 2, ncomp), np.full(grid.n_elems, rng.random())
            eta_ref = eta[0]
        differ = eta != eta_ref
        d_ref = voxel_elasticity(np.array([eta_ref]), d1, d2)[0]
        k_ref, k_diff = element_stiffness_batch(np.stack([d_ref, d1 - d2]), grid.spacing)
        difference = cell_operator(grid, k_diff, eta[differ] - eta_ref, differ)
        p = rng.standard_normal((grid.dim * grid.n_elems, 4))
        k_e = element_stiffness_batch(voxel_elasticity(eta, d1, d2), grid.spacing)
        ref = coo_reference(periodic_dofs(grid), len(p), k_e) @ p
        assert np.abs(cell_operator(grid, k_ref)(p) + difference(p) - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_contrast_of_the_extreme_weights_is_that_of_every_voxel(self, rng, dim):
        # D(eta) is affine in eta: the pencil's largest eigenvalue is convex in eta and its smallest concave
        for _ in range(50):
            e1, e2 = 10.0 ** rng.uniform(0.0, 3.0, 2)
            mat = TwoPhaseMaterial(Phase(e1, rng.uniform(0.0, 0.45), 1.0), Phase(e2, rng.uniform(0.0, 0.45), 1.0))
            eta, d1, d2 = cell_phases(rng.random(40), mat, 1.0, dim)
            d_ref = voxel_elasticity(eta[rng.integers(40)][None], d1, d2)[0]
            every = homogenization._phase_contrast(voxel_elasticity(eta, d1, d2), d_ref)
            ends = homogenization._phase_contrast(voxel_elasticity(np.array([eta.min(), eta.max()]), d1, d2), d_ref)
            assert ends == pytest.approx(every, rel=1e-14)

    @pytest.mark.parametrize("name", ["prism_3d.yaml", "cantilever_2d.yaml"])
    def test_cell_solve_builds_one_stiffness_batch_of_two_matrices(self, name, monkeypatch):
        # the reference element and the one difference direction D1 - D2, whatever the number of differing voxels
        cfg = parse_config(str(CONFIGS / name))
        cell = cfg.cell_grid()
        x = seed_cell(cell, cfg.seed_fraction, cfg.x_min)
        eta, d1, d2 = cell_phases(x, cfg.base_material, cfg.penalty, cell.dim)
        batches = record_stiffness_batches(monkeypatch)
        solve_cell_problems(cell, eta, d1, d2)
        minority = int(np.sum(x == cfg.x_min))  # 136 of 2,744 on prism_3d, 124 of 2,500 on cantilever_2d
        assert 0 < minority < cell.n_elems / 2
        assert len(batches) == 1 and np.array_equal(batches[0], np.stack([d1, d1 - d2]))


def per_component_sum(reference, r):
    """K_ref^+ r applied in the grid-first layout: ``rfftn`` over the leading axes of r reshaped to
    (*grid, dim, k) and one product of the inverse symbol per component j, summed in order."""
    inverse = np.moveaxis(reference.inverse, (0, 1), (-2, -1))  # (*frequencies, dim, dim)
    axes = tuple(range(len(reference.shape)))
    r_hat = np.fft.rfftn(r.reshape(reference.shape + (-1, r.shape[1])), axes=axes)
    z_hat = sum(inverse[..., j, None] * r_hat[..., None, j, :] for j in range(r_hat.shape[-2]))
    return np.fft.irfftn(z_hat, s=reference.shape, axes=axes).reshape(r.shape)


class TestReferencePreconditioner:
    @pytest.mark.parametrize("shape", [(7, 5), (4, 3, 5)])  # cells no other test builds
    def test_memo_hit_is_the_same_object_and_applies_bitwise_as_a_fresh_build(self, rng, shape):
        grid = StructuredGrid(shape, tuple(1.0 / n for n in shape))
        k = element_stiffness_batch(steel_foam().phase1.elasticity(grid.dim)[None], grid.spacing)[0]
        memo = homogenization.reference_preconditioner(grid, k.tobytes())
        again = homogenization.reference_preconditioner(StructuredGrid(shape, grid.spacing), k.copy().tobytes())
        assert again is memo
        assert not memo.inverse.flags.writeable
        fresh = homogenization._ReferencePreconditioner(grid, k)
        r = homogenization._zero_mean(rng.standard_normal((grid.dim * grid.n_elems, 4)), grid.dim)
        ref = per_component_sum(fresh, r)
        assert np.array_equal(memo(r), ref)
        assert np.array_equal(fresh(r), ref)

    def test_each_reference_medium_gets_its_own_entry(self, rng, monkeypatch):
        built = []

        class Counted(homogenization._ReferencePreconditioner):
            def __init__(self, grid, k_ref):
                built.append(grid)
                super().__init__(grid, k_ref)

        monkeypatch.setattr(homogenization, "_ReferencePreconditioner", Counted)
        grid = StructuredGrid((5, 7), (0.2, 1.0 / 7))  # a cell no other test builds
        x = np.where(rng.random(grid.n_elems) < 0.8, 1.0, X_MIN)  # phase 1 is the majority
        flipped = np.where(x == 1.0, X_MIN, 1.0)  # phase 2 is the majority
        other = TwoPhaseMaterial(Phase(100e3, 0.2, 1.0), Phase(50e3, 0.3, 1.0))
        for material, design, entries in [
            (steel_foam(), x, 1),
            (steel_foam(), x[::-1].copy(), 1),  # another design with the same majority phase: a memo hit
            (steel_foam(), flipped, 2),
            (other, x, 3),
            (steel_foam(), flipped, 3),
        ]:
            solve_cell_problems(grid, *cell_phases(design, material, 3.0, grid.dim))
            assert len(built) == entries


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
    return grid, cell_phases(x, steel_foam(), 3.0, 3)


def dense_cell_solution(grid, eta, d1, d2):
    """Pinned-corner dense solve of the cell problems moved to zero mean per direction, and its g."""
    dofs = periodic_dofs(grid)
    k_e = element_stiffness_batch(voxel_elasticity(eta, d1, d2), grid.spacing)
    k = coo_reference(dofs, grid.dim * grid.n_elems, k_e).toarray()
    rhs = cell_loads(grid, np.stack([eta, 1.0 - eta]), np.stack([d1, d2]))[0]
    u = np.zeros_like(rhs)
    u[grid.dim:] = np.linalg.solve(k[grid.dim:, grid.dim:], rhs[grid.dim:])
    nodal = u.reshape(-1, grid.dim, rhs.shape[1])
    u = (nodal - nodal.mean(axis=0)).reshape(u.shape)
    b = strain_operators(grid.spacing)[0]
    return u, np.eye(rhs.shape[1]) - b[None] @ u[dofs][:, None]


class TestCellSolver:
    def test_3d_cell_solution_matches_dense_solve(self, rng):
        grid, phases = random_cell_3d(rng, 4)
        u = solve_cell_problems(grid, *phases)
        g = corrected_strains(grid, u)
        u_ref, g_ref = dense_cell_solution(grid, *phases)
        err = np.linalg.norm(u - u_ref, axis=0)
        assert np.all(err <= 1e-10 * np.linalg.norm(u_ref, axis=0))
        nodal_mean = u.reshape(-1, grid.dim, u.shape[1]).mean(axis=0)
        assert np.abs(nodal_mean).max() <= 1e-14 * np.abs(u).max()
        assert np.abs(g - g_ref).max() <= 1e-10 * np.abs(g_ref).max()

    @pytest.mark.parametrize("shape", [(8, 6), (4, 3, 4)])
    def test_phase2_majority_cell_matches_dense_solve(self, rng, shape):
        grid = StructuredGrid(shape, tuple(1.0 / n for n in shape))
        x = np.where(rng.random(grid.n_elems) < 0.3, 1.0, X_MIN)
        phases = cell_phases(x, steel_foam(), 3.0, grid.dim)
        d = voxel_elasticity(*phases)
        g, w = cell_strains(grid, *phases)
        _, g_ref = dense_cell_solution(grid, *phases)
        assert np.abs(g - g_ref).max() <= 1e-10 * np.abs(g_ref).max()
        d_h, d_h_dense = reference_d_h(g, w, d, grid.volume), reference_d_h(g_ref, w, d, grid.volume)
        assert np.abs(d_h - d_h_dense).max() <= 1e-10 * np.abs(d_h_dense).max()

    @pytest.mark.parametrize("shape", [(5, 5), (3, 3, 3)])
    def test_rounding_level_loads_give_zero_correctors(self, shape):
        # a homogeneous cell's loads cancel to rounding: no solve, exactly zero correctors
        grid = StructuredGrid(shape, tuple(1.0 / n for n in shape))
        eta, d1, d2 = cell_phases(np.ones(grid.n_elems), steel_foam(), 3.0, grid.dim)
        assert np.any(cell_loads(grid, np.stack([eta, 1.0 - eta]), np.stack([d1, d2]))[0])
        u = solve_cell_problems(grid, eta, d1, d2)
        assert not np.any(u)

    @pytest.mark.parametrize("shape", [(4, 4, 4), (8, 8)])
    def test_high_contrast_cell_matches_dense_d_h(self, rng, shape):
        # E1 / E2 = 1e3 puts the phase contrast, and the CG iteration bound, far above the shipped 1.33
        mat = TwoPhaseMaterial(Phase(1e3, 0.3, 1.0), Phase(1.0, 0.3, 1.0))
        grid = StructuredGrid(shape, tuple(1.0 / n for n in shape))
        phases = cell_phases(np.where(rng.random(grid.n_elems) < 0.5, 1.0, X_MIN), mat, 3.0, grid.dim)
        d = voxel_elasticity(*phases)
        g, w = cell_strains(grid, *phases)
        _, g_ref = dense_cell_solution(grid, *phases)
        d_h, d_ref = reference_d_h(g, w, d, grid.volume), reference_d_h(g_ref, w, d, grid.volume)
        assert np.abs(d_h - d_ref).max() <= 1e-10 * np.abs(d_ref).max()

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.yaml")))
    def test_seed_cell_of_every_shipped_config_converges_within_the_bound(self, name):
        # going past the a-priori iteration bound raises, so returning is the check
        cfg = parse_config(str(CONFIGS / name))
        cell = cfg.cell_grid()
        x = seed_cell(cell, cfg.seed_fraction, cfg.x_min)
        for material in (cfg.base_material, cfg.params.mean_material(cfg.base_material)):
            solve_cell_problems(cell, *cell_phases(x, material, cfg.penalty, cell.dim))

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.yaml")))
    def test_loads_one_test_strain_at_a_time_are_the_stacked_product_bitwise(self, rng, name):
        cfg = parse_config(str(CONFIGS / name))
        cell = cfg.cell_grid()
        for _ in range(5):
            x = np.where(rng.random(cell.n_elems) < rng.random(), 1.0, cfg.x_min)
            eta, d1, d2 = cell_phases(x, cfg.base_material, cfg.penalty, cell.dim)
            weights, d = np.stack([eta, 1.0 - eta]), np.stack([d1, d2])
            loads, floors = cell_loads(cell, weights, d)
            ref_loads, ref_floors = stacked_cell_loads(cell, weights, d)
            assert np.array_equal(loads, ref_loads) and np.array_equal(floors, ref_floors)

    def test_unreachable_tolerance_stops_at_the_bound_and_names_the_contrast(self, rng, monkeypatch):
        monkeypatch.setattr(homogenization, "CG_RTOL", 1e-30)
        grid, x = random_cell(rng)
        with pytest.raises(NumericalError, match="kappa = 1.333"):
            solve_cell_problems(grid, *cell_phases(x, steel_foam(), 3.0, 2))


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

    penalty = 3.0

    def _props(self, rng):
        """A random cell design x and its homogenization at ``penalty``."""
        grid, x = random_cell(rng)
        return x, homogenize(grid, x, self.mat, self.penalty)

    def test_density_derivative_is_weighted_volume_fraction(self, rng):
        x, props = self._props(rng)
        drho = props.rho_h_derivative(("rho1",))
        expect = np.sum(x) * props.grid.elem_volume / props.grid.volume
        assert np.isclose(drho, expect, rtol=1e-12)

    def test_elasticity_derivative_matches_finite_differences(self, rng):
        x, props = self._props(rng)
        dd = props.d_h_derivative(("e1",))
        e0 = self.mat.phase1.youngs
        h = 1e-4 * e0
        def d_h_at(e1):
            m = TwoPhaseMaterial(Phase(e1, 0.3, 7.9e-9), self.mat.phase2)
            return homogenize(props.grid, x, m, self.penalty).d_h
        fd = (d_h_at(e0 + h) - d_h_at(e0 - h)) / (2 * h)
        assert np.abs(dd - fd).max() <= 0.02 * np.abs(fd).max()

    def test_poisson_derivative_matches_finite_differences(self, rng):
        x, props = self._props(rng)
        dd = props.d_h_derivative(("nu",))
        h = 1e-5
        def d_h_at(nu):
            m = TwoPhaseMaterial(Phase(200e3, nu, 7.9e-9), Phase(150e3, nu, 0.79e-9))
            return homogenize(props.grid, x, m, self.penalty).d_h
        fd = (d_h_at(0.3 + h) - d_h_at(0.3 - h)) / (2 * h)
        assert np.abs(dd - fd).max() <= 0.02 * np.abs(fd).max()

    def test_own_kernel_maps_to_d_h_and_rho_h_bitwise(self, rng):
        _, props = self._props(rng)
        d, rho = props.properties(self.mat.kernel(props.grid.dim))
        assert np.array_equal(d, props.d_h) and rho == props.rho_h

    def test_density_parameters_leave_elasticity_untouched(self, rng):
        _, props = self._props(rng)
        assert not np.any(props.d_h_derivative(("rho1",)))
        assert not np.any(props.d_h_derivative(("rho2",)))

    def test_micro_design_derivative_matches_finite_differences(self, rng):
        # dD_h/dx_i = p x_i^(p-1) / |Y| * sum_k (c[0, k] - c[1, k]) P[i, k]
        x, props = self._props(rng)
        c = self.mat.coefficients(props.grid.dim)
        scale = self.penalty * stiffness_weights(x, self.penalty - 1.0) / props.grid.volume
        dd_stack = scale[:, None, None] * np.tensordot(c[0] - c[1], props.basis, axes=([0], [1]))
        h = 1e-6
        for voxel in (0, 7, props.grid.n_elems - 1):
            xp = x.copy(); xp[voxel] += h
            xm = x.copy(); xm[voxel] -= h
            fd = (homogenize(props.grid, xp, self.mat, self.penalty).d_h
                  - homogenize(props.grid, xm, self.mat, self.penalty).d_h) / (2 * h)
            assert np.abs(dd_stack[voxel] - fd).max() <= 0.02 * max(np.abs(fd).max(), 1e-12)

    def test_unknown_parameter_tag_rejected(self, rng):
        _, props = self._props(rng)
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
        phases = cell_phases(x, self.mat, 3.0, grid.dim)
        g, w = cell_strains(grid, *phases)
        ref = reference_d_h(g, w, voxel_elasticity(*phases), grid.volume)
        assert np.abs(props.d_h - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(props.d_h, props.d_h.T)

    @pytest.mark.parametrize("shape", [(6, 5), (3, 4, 3)])
    @pytest.mark.parametrize(
        "wrt", [("e1",), ("e2",), ("nu",), ("nu1",), ("nu2",), ("rho1",), ("nu", "nu"), ("e1", "nu")]
    )
    def test_parameter_derivatives_match_direct_contraction(self, rng, shape, wrt):
        grid, x = self._cell(rng, shape)
        props = homogenize(grid, x, self.mat, 3.0)
        g, w = cell_strains(grid, *cell_phases(x, self.mat, 3.0, grid.dim))
        d1, d2 = phase_derivatives(self.mat, grid.dim, wrt)
        ref = reference_d_h_derivative(g, w, stiffness_weights(x, 3.0), d1, d2, grid.volume)
        got = props.d_h_derivative(wrt)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(got, got.T)


    def test_chunks_leave_the_basis_bitwise_unchanged(self, rng, monkeypatch):
        grid, x = self._cell(rng, (4, 3, 5))
        u = solve_cell_problems(grid, *cell_phases(x, self.mat, 3.0, grid.dim))
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

    def test_working_set_of_a_3d_cell_solve(self):
        # the prism_3d seed cell: one (n_voxels, ndof_e, ncomp) element stack takes 3.0 MiB; the loads, their
        # rounding floors and the CG's true-residual check form one test strain at a time and hold none
        cfg = parse_config(str(CONFIGS / "prism_3d.yaml"))
        cell = cfg.cell_grid()
        phases = cell_phases(seed_cell(cell, cfg.seed_fraction, cfg.x_min), cfg.base_material, cfg.penalty, cell.dim)
        solve_cell_problems(cell, *phases)  # fills the grid's cached corner tables, which outlive the solve
        _, peak = traced_peak(lambda: solve_cell_problems(cell, *phases))
        assert peak < 7 * 2**20


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
