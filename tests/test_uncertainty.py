"""Hybrid parameter model, perturbation analysis, and the Monte Carlo oracle."""

import pathlib

import numpy as np
import pytest
import scipy.linalg

import rcto.fem
import rcto.uncertainty
from rcto.beso import initial_state
from rcto.config import build_problem, parse_config
from rcto.errors import NumericalError, SingularSystemError
from rcto.fem import StructuredGrid, mean_compliance
from rcto.homogenization import homogenize, seed_cell
from rcto.materials import PARAMETER_NAMES, Phase, TwoPhaseMaterial
from rcto.problem import (
    DesignState,
    MacroProblem,
    apply_parameter_operator,
    factorized_dynamic,
    parameter_to_matrices,
    stiffness_scale,
)
from rcto.uncertainty import (
    BatchComplianceEvaluator,
    HybridParameter,
    Interval,
    UncertainSet,
    _interval_corners,
    ihpa_evaluate,
    mcs_evaluate,
    select_beta,
)

from conftest import (
    cantilever,
    degenerate_params,
    fractional_interval,
    full_state,
    hybrid_params,
    reference_compliance,
    reference_draws,
    reference_matrices,
    refuse_sparse_matrices,
    steel_foam,
    traced_peak,
)

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def record_compliance_rows(monkeypatch):
    """Record a copy of the sample rows of every ``BatchComplianceEvaluator.compliance`` call."""
    rows = []
    original = BatchComplianceEvaluator.compliance

    def recording(ev, names, values):
        rows.append(np.array(values))
        return original(ev, names, values)

    monkeypatch.setattr(BatchComplianceEvaluator, "compliance", recording)
    return rows


class TestInterval:
    def test_midpoint_and_deviation(self):
        iv = Interval(2.0, 6.0)
        assert iv.midpoint == 4.0 and iv.deviation == 2.0

    def test_bounds_order_enforced(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.5)

    def test_exact_interval_is_degenerate(self):
        assert Interval.exact(3.0).degenerate
        assert Interval.exact(3.0).deviation == 0.0


class TestHybridParameter:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            HybridParameter("e1", Interval(1.0, 2.0), Interval(-0.1, 0.2))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            HybridParameter("shear", Interval(1.0, 2.0), Interval(0.0, 0.1))

    def test_duplicate_names_rejected(self):
        p = HybridParameter("e1", Interval(1.0, 2.0), Interval.exact(0.0))
        with pytest.raises(ValueError, match="duplicate"):
            UncertainSet([p, p])

    def test_shared_and_split_nu_exclusive(self):
        for split in ("nu1", "nu2"):
            with pytest.raises(ValueError, match="both set the poisson"):
                UncertainSet([
                    HybridParameter("nu", Interval(0.29, 0.31), Interval.exact(0.0)),
                    HybridParameter(split, Interval(0.29, 0.31), Interval.exact(0.0)),
                ])


class TestIhpaEvaluate:
    mat = steel_foam()

    def _problem(self, omega=0.0):
        return cantilever(6, 2, cell_n=4, omega=omega)

    def test_fea_calls_one_plus_three_n(self):
        prob = self._problem()
        state = full_state(prob, micro=seed_cell(prob.cell, 0.2, 1e-6))
        for params, expect in (
            (UncertainSet(), 1),
            (hybrid_params(self.mat), 16),
        ):
            _, cache = ihpa_evaluate(prob, state, self.mat, params, kappa=1.0)
            assert cache.fea_calls == expect

    def test_working_set_is_about_the_band(self):
        # the cantilever_2d seed design (n = 5): past the band and its kept diagonals, one 2n-column block solve
        # and one streamed parameter operator; whole-stack operators and masked block copies read 2.5x
        cfg = parse_config(str(CONFIGS / "cantilever_2d.yaml"))
        prob = build_problem(cfg)
        state = initial_state(prob, x_min=cfg.x_min, seed_fraction=cfg.seed_fraction)
        band_bytes = 8 * (prob.pattern.kd + 1) * prob.pattern.n  # the pattern is built once per problem
        (_, cache), peak = traced_peak(lambda: ihpa_evaluate(prob, state, cfg.base_material, cfg.params))
        assert cache.fea_calls == 16
        assert peak < 1.75 * band_bytes

    def test_degenerate_uncertainty_reduces_to_deterministic(self):
        prob = self._problem()
        state = full_state(prob, micro=seed_cell(prob.cell, 0.2, 1e-6))
        obj, cache = ihpa_evaluate(prob, state, self.mat, degenerate_params(self.mat), kappa=1.0)
        props = homogenize(prob.cell, state.x_micro, self.mat, prob.penalty)
        system = factorized_dynamic(prob, state, props.d_h, props.rho_h)
        c_det = mean_compliance(prob.force, system.solve(prob.force))
        assert abs(obj.expectation - c_det) <= 1e-9 * abs(c_det)
        assert obj.std == 0.0
        assert obj.objective == obj.expectation

    def test_empty_set_degenerates_to_single_solve(self):
        prob = self._problem()
        state = full_state(prob, micro=seed_cell(prob.cell, 0.2, 1e-6))
        obj, cache = ihpa_evaluate(prob, state, self.mat, UncertainSet(), kappa=3.0)
        assert cache.fea_calls == 1 and obj.std == 0.0

    def test_worst_case_dominates_midpoint_expectation(self, rng):
        prob = self._problem(omega=2 * np.pi * 200.0)
        for trial in range(3):
            micro = np.where(rng.random(prob.cell.n_elems) < 0.7, 1.0, 1e-6)
            state = full_state(prob, micro=micro)
            params = hybrid_params(self.mat, mean_frac=0.04, cov=0.06, sigma_frac=0.05)
            obj, cache = ihpa_evaluate(prob, state, self.mat, params, kappa=1.0)
            assert obj.expectation >= cache.c_nominal
            assert obj.std >= 0.0

    def test_smooth_objective_approaches_hard_signs(self):
        prob = self._problem()
        state = full_state(prob, micro=seed_cell(prob.cell, 0.2, 1e-6))
        params = hybrid_params(self.mat)
        obj, cache = ihpa_evaluate(prob, state, self.mat, params, kappa=1.0)
        smooth = cache.smooth_objective(1.0, beta=1e9)
        assert np.isclose(smooth.objective, obj.objective, rtol=1e-9)
        beta = select_beta(cache)
        assert 1.0 <= beta <= 1e4
        signs = np.sign(cache.terms)
        recomposed = cache.c_nominal + float(np.dot(signs[0], cache.terms[0]))
        assert np.isclose(recomposed, obj.expectation, rtol=1e-12)

    def test_mean_material_uses_interval_midpoints(self):
        params = hybrid_params(self.mat, mean_frac=0.05)
        mid = params.mean_material(self.mat)
        assert np.isclose(mid.phase1.youngs, self.mat.phase1.youngs)
        assert np.isclose(mid.phase2.density, self.mat.phase2.density)


class TestParameterMatrices:
    mat = steel_foam()

    def _setup(self, omega=0.0, rng=None):
        prob = cantilever(4, 2, cell_n=4, omega=omega)
        if rng is None:
            micro = seed_cell(prob.cell, 0.25, 1e-6)
        else:
            micro = np.where(rng.random(prob.cell.n_elems) < 0.6, 1.0, 1e-6)
        state = full_state(prob, micro=micro)
        props = homogenize(prob.cell, state.x_micro, self.mat, prob.penalty)
        return prob, state, props

    def test_density_parameter_does_not_touch_stiffness(self):
        prob, state, props = self._setup(omega=0.0)
        g_rho = parameter_to_matrices(prob, state, props, "rho1")
        assert g_rho.nnz == 0 or np.abs(g_rho.data).max() == 0.0

    def test_modulus_parameter_does_not_touch_mass(self):
        # dK_d/dE must be omega-independent (no mass contribution)
        prob0, state, props = self._setup(omega=0.0)
        prob1 = cantilever(4, 2, cell_n=4, omega=2 * np.pi * 500.0)
        g0 = parameter_to_matrices(prob0, state, props, "e1")
        g1 = parameter_to_matrices(prob1, state, props, "e1")
        assert np.abs((g0 - g1).toarray()).max() <= 1e-12 * np.abs(g0.toarray()).max()

    def test_full_phase1_modulus_derivative_is_stiffness_over_e(self):
        prob = cantilever(4, 2, cell_n=4)
        state = full_state(prob)  # homogeneous phase-1 cell
        props = homogenize(prob.cell, state.x_micro, self.mat, prob.penalty)
        k, _ = reference_matrices(prob, state, props.d_h, props.rho_h)
        g = parameter_to_matrices(prob, state, props, "e1")
        assert np.allclose(g.toarray(), k.toarray() / self.mat.phase1.youngs, rtol=1e-9)

    def test_random_cell_modulus_derivative_matches_finite_differences(self, rng):
        prob, state, props = self._setup(omega=0.0, rng=rng)
        g = parameter_to_matrices(prob, state, props, "e1")
        e0 = self.mat.phase1.youngs
        h = 1e-4 * e0
        def k_at(e1):
            m = TwoPhaseMaterial(Phase(e1, 0.3, 7.9e-9), self.mat.phase2)
            p = homogenize(prob.cell, state.x_micro, m, prob.penalty)
            return reference_matrices(prob, state, p.d_h, p.rho_h)[0].toarray()
        fd = (k_at(e0 + h) - k_at(e0 - h)) / (2 * h)
        assert np.abs(g.toarray() - fd).max() <= 0.02 * np.abs(fd).max()


@pytest.mark.parametrize("macro_shape, cell_shape", [((4, 2), (4, 4)), ((3, 2, 2), (3, 3, 2))])
@pytest.mark.parametrize("freq", [0.0, 150.0])
def test_matrix_free_operator_matches_sparse_matrices(rng, macro_shape, cell_shape, freq):
    # every first and (theta, theta) second derivative, applied to a stack of two fields
    dim = len(macro_shape)
    grid = StructuredGrid(macro_shape, (1.0,) * dim)
    cell = StructuredGrid(cell_shape, tuple(1.0 / n for n in cell_shape))
    prob = MacroProblem(
        grid=grid, cell=cell, fixed_dofs=np.arange(dim), force=np.zeros(grid.n_dofs), omega=2 * np.pi * freq
    )
    state = DesignState(
        x_macro=np.where(rng.random(grid.n_elems) < 0.7, 1.0, 1e-6),
        x_micro=np.where(rng.random(cell.n_elems) < 0.6, 1.0, 1e-6),
    )
    mat = TwoPhaseMaterial(Phase(200e3, 0.3, 7.9e-9), Phase(150e3, 0.25, 0.79e-9))
    props = homogenize(cell, state.x_micro, mat, prob.penalty)
    u = rng.standard_normal((2, grid.n_dofs))
    for name in PARAMETER_NAMES:
        for wrt in ((name,), (name, name)):
            ref = (parameter_to_matrices(prob, state, props, *wrt) @ u.T).T
            dd, drho = props.d_h_derivative(wrt), props.rho_h_derivative(wrt)
            got = apply_parameter_operator(prob, state, dd, drho, u)
            assert got.shape == u.shape
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    # a stack of operators against one field, as the perturbation analysis applies them
    dd = np.array([props.d_h_derivative((name,)) for name in PARAMETER_NAMES])
    drho = np.array([props.rho_h_derivative((name,)) for name in PARAMETER_NAMES])
    stacked = apply_parameter_operator(prob, state, dd, drho, u[0])
    for j in range(len(PARAMETER_NAMES)):
        # a lone operator's k(dD) is a one-row product, which numpy forms as a vector product and rounds differently
        single = apply_parameter_operator(prob, state, dd[j], drho[j], u[0])
        assert np.abs(stacked[j] - single).max() <= 1e-14 * np.abs(stacked).max()
    # applied one operator at a time, the stack equals one bincount over all its element forces bit for bit
    k = rcto.fem.element_stiffness_batch(dd, grid.spacing)
    ue = u[0][grid.elem_dofs]
    m_u = state.x_macro[:, None] * (ue @ rcto.fem.element_mass(1.0, grid.spacing))
    forces = stiffness_scale(state.x_macro, prob.penalty, state.x_min)[:, None] * (ue @ k)
    forces = forces - prob.omega**2 * drho[:, None, None] * m_u
    index = (grid.n_dofs * np.arange(len(dd))[:, None] + grid.elem_dofs.ravel()).ravel()
    whole = np.bincount(index, weights=forces.ravel(), minlength=len(dd) * grid.n_dofs)
    assert np.array_equal(stacked, whole.reshape(stacked.shape))


class TestMcsEvaluate:
    mat = steel_foam()

    def test_degenerate_intervals_return_deterministic_exactly(self):
        prob = cantilever(4, 2, cell_n=4)
        state = full_state(prob, micro=seed_cell(prob.cell, 0.25, 1e-6))
        res = mcs_evaluate(prob, state, self.mat, degenerate_params(self.mat), 4, 50, seed=1)
        props = homogenize(prob.cell, state.x_micro, self.mat, prob.penalty)
        system = factorized_dynamic(prob, state, props.d_h, props.rho_h)
        c_det = mean_compliance(prob.force, system.solve(prob.force))
        assert np.isclose(res.expectation, c_det, rtol=1e-12)
        assert res.std == 0.0

    def test_identical_samples_give_zero_std_exactly(self, monkeypatch):
        # np.mean of 50 copies of this value rounds away from it, so np.std(ddof=1) of them is 2.9e-14
        value = 185.90891464231507
        monkeypatch.setattr(BatchComplianceEvaluator, "compliance", lambda self, names, v: np.full(len(v), value))
        prob = cantilever(2, 1, cell_n=2)
        res = mcs_evaluate(prob, full_state(prob), self.mat, hybrid_params(self.mat), 2, 50, seed=1)
        assert res.std == 0.0
        assert res.expectation == value

    def test_sample_mean_consistent_with_perturbation_expectation(self):
        # single interval point, one-element problem, large sample
        prob = cantilever(1, 1, cell_n=2)
        state = full_state(prob)
        p1 = self.mat.phase1
        params = UncertainSet([
            HybridParameter("e1", Interval.exact(p1.youngs), Interval.exact(0.02 * p1.youngs)),
        ])
        obj, cache = ihpa_evaluate(prob, state, self.mat, params, kappa=1.0)
        res = mcs_evaluate(prob, state, self.mat, params, 2, 20000, seed=3)
        se = res.std / np.sqrt(res.n_random)
        assert abs(res.expectation - obj.expectation) <= 3 * se + 1e-4 * obj.expectation

    def test_corner_maxima_stable_across_seeds(self):
        prob = cantilever(4, 2, cell_n=4)
        state = full_state(prob, micro=seed_cell(prob.cell, 0.25, 1e-6))
        params = hybrid_params(self.mat, mean_frac=0.05, cov=0.03)
        r1 = mcs_evaluate(prob, state, self.mat, params, 8, 1500, seed=10)
        r2 = mcs_evaluate(prob, state, self.mat, params, 8, 1500, seed=20)
        assert r1.expectation != r2.expectation  # different draws
        assert abs(r1.expectation - r2.expectation) <= 0.01 * r1.expectation

    def test_deterministic_for_fixed_seed(self):
        prob = cantilever(3, 2, cell_n=3)
        state = full_state(prob, micro=seed_cell(prob.cell, 0.2, 1e-6))
        params = hybrid_params(self.mat, mean_frac=0.03, cov=0.03)
        r1 = mcs_evaluate(prob, state, self.mat, params, 4, 300, seed=5)
        r2 = mcs_evaluate(prob, state, self.mat, params, 4, 300, seed=5)
        assert r1.expectation == r2.expectation and r1.std == r2.std

    def test_resampling_counts_nonphysical_draws(self):
        # sigma comparable to the mean forces negative modulus draws
        prob = cantilever(2, 1, cell_n=2)
        state = full_state(prob)
        p1 = self.mat.phase1
        params = UncertainSet([
            HybridParameter("e1", Interval.exact(p1.youngs), Interval.exact(0.8 * p1.youngs)),
        ])
        res = mcs_evaluate(prob, state, self.mat, params, 2, 400, seed=7)
        assert res.resampled > 0
        assert np.isfinite(res.expectation)

    def test_near_incompressible_poisson_draws_are_not_redrawn(self):
        # nu in [0.4985, 0.4995] with sigma 1e-4: every draw lies inside (-1, 0.5)
        base = TwoPhaseMaterial(Phase(200e3, 0.499, 7.9e-9), Phase(150e3, 0.499, 0.79e-9))
        prob = cantilever(3, 2, cell_n=3)
        state = full_state(prob, micro=seed_cell(prob.cell, 0.2, 1e-6))
        params = UncertainSet([HybridParameter("nu", Interval(0.4985, 0.4995), Interval.exact(1e-4))])
        res = mcs_evaluate(prob, state, base, params, 2, 20, seed=0)
        assert res.resampled == 0
        assert np.isfinite(res.expectation) and res.std > 0.0

    def test_largest_set_has_every_corner(self):
        # the overlap check admits at most six parameters (nu excludes nu1 and nu2): 2^12 box corners
        mat = self.mat
        values = {"e1": mat.phase1.youngs, "e2": mat.phase2.youngs, "nu1": mat.phase1.poisson,
                  "nu2": mat.phase2.poisson, "rho1": mat.phase1.density, "rho2": mat.phase2.density}
        params = UncertainSet([
            HybridParameter(name, fractional_interval(v, 0.05), fractional_interval(0.1 * v, 0.05))
            for name, v in values.items()
        ])
        with pytest.raises(ValueError):
            UncertainSet([*params, HybridParameter("nu", Interval.exact(0.3), Interval.exact(0.01))])
        corners = _interval_corners(params)
        assert corners.shape == (4096, 12)
        assert len({tuple(row) for row in corners}) == 4096

    def test_sample_count_validation(self):
        prob = cantilever(2, 1, cell_n=2)
        state = full_state(prob)
        with pytest.raises(ValueError):
            mcs_evaluate(prob, state, self.mat, hybrid_params(self.mat), 1, 100, seed=0)

    def test_standard_errors_come_from_the_worst_case_points(self, monkeypatch):
        # record every outer point's samples, then recompute s/sqrt(N) and s/sqrt(2(N-1))
        # at the points that set the worst-case mean and the worst-case std
        prob = cantilever(3, 2, cell_n=3)
        state = full_state(prob, micro=seed_cell(prob.cell, 0.2, 1e-6))
        params = hybrid_params(self.mat, mean_frac=0.04, cov=0.04, sigma_frac=0.3)
        outputs = []
        original = BatchComplianceEvaluator.compliance

        def recording(ev, names, values):
            outputs.append(original(ev, names, values))
            return outputs[-1]

        monkeypatch.setattr(BatchComplianceEvaluator, "compliance", recording)
        n_random = 40
        res = mcs_evaluate(prob, state, self.mat, params, 6, n_random, seed=11)
        # a call holds the samples of whole outer points, in point order
        samples = np.concatenate(outputs).reshape(res.n_outer, n_random)
        # the oracle's moments: those of the offsets from each point's first sample
        means = np.array([c[0] + np.mean(c - c[0]) for c in samples])
        stds = np.array([np.std(c - c[0], ddof=1) for c in samples])
        i_mean, i_std = int(np.argmax(means)), int(np.argmax(stds))
        assert res.expectation == means[i_mean] and res.std == stds[i_std]
        assert np.isclose(res.expectation_se, stds[i_mean] / np.sqrt(n_random), rtol=1e-14)
        assert np.isclose(res.std_se, stds[i_std] / np.sqrt(2 * (n_random - 1)), rtol=1e-14)
        assert i_mean != i_std  # the two errors come from different points here

    def wide_params(self):
        """e1 with a std near half its mean, so some draws are negative and redrawn, and rho1."""
        p1 = self.mat.phase1
        return UncertainSet([
            HybridParameter("e1", Interval(0.95 * p1.youngs, 1.05 * p1.youngs),
                            Interval(0.4 * p1.youngs, 0.5 * p1.youngs)),
            HybridParameter("rho1", Interval(0.97 * p1.density, 1.03 * p1.density), Interval.exact(0.03 * p1.density)),
        ])

    def test_samples_reach_the_oracle_in_draw_order(self, monkeypatch):
        rows = record_compliance_rows(monkeypatch)
        prob = cantilever(2, 1, cell_n=2)
        params = self.wide_params()
        res = mcs_evaluate(prob, full_state(prob), self.mat, params, 30, 10, seed=7)
        expected, resampled = reference_draws(params, 30, 10, seed=7)
        assert len(rows) > 2 and resampled > 0
        assert np.array_equal(np.concatenate(rows), expected)
        assert res.resampled == resampled

    def test_each_call_holds_whole_points_within_the_row_cap(self, monkeypatch):
        rows = record_compliance_rows(monkeypatch)
        prob = cantilever(2, 1, cell_n=2)
        n_random = 10
        res = mcs_evaluate(prob, full_state(prob), self.mat, self.wide_params(), 30, n_random, seed=7)
        sizes = [len(r) for r in rows]
        per_call = rcto.uncertainty._GROUP_ROWS // n_random
        assert sizes[0] == n_random  # the first point alone
        assert all(size % n_random == 0 and size <= rcto.uncertainty._GROUP_ROWS for size in sizes)
        assert all(size == per_call * n_random for size in sizes[1:-1])  # as many whole points as fit
        assert sum(sizes) == res.n_outer * n_random == res.fea_calls

    def test_points_above_the_row_cap_go_one_per_call(self, monkeypatch):
        rows = record_compliance_rows(monkeypatch)
        prob = cantilever(2, 1, cell_n=2)
        n_random = rcto.uncertainty._GROUP_ROWS + 1
        res = mcs_evaluate(prob, full_state(prob), self.mat, self.wide_params(), 2, n_random, seed=3)
        assert [len(r) for r in rows] == [n_random] * res.n_outer

    def test_grouped_points_match_a_per_point_evaluation(self, monkeypatch):
        # the macro basis grows from 6 to 8 columns after the first point here.  A call enriches with the worst
        # failing sample of all its points, so on other draws the two greedy paths can part by a column
        # (n_random 12 here: 8 grouped against 9 per point), with the same moments.
        prob = cantilever(4, 2, cell_n=4, omega=2 * np.pi * 300.0)
        state = full_state(prob, micro=seed_cell(prob.cell, 0.25, 1e-6))
        params = self.wide_params()
        grouped = mcs_evaluate(prob, state, self.mat, params, 8, 20, seed=5)
        monkeypatch.setattr(rcto.uncertainty, "_GROUP_ROWS", 1)
        per_point = mcs_evaluate(prob, state, self.mat, params, 8, 20, seed=5)
        assert grouped.resampled == per_point.resampled > 0
        for field in ("n_outer", "n_random", "fea_calls", "cell_basis", "cell_solves", "macro_basis", "macro_solves"):
            assert getattr(grouped, field) == getattr(per_point, field), field
        for field in ("expectation", "std", "expectation_se", "std_se"):
            assert np.isclose(getattr(grouped, field), getattr(per_point, field), rtol=1e-12, atol=0.0), field

    def test_oracle_working_memory_is_bounded(self):
        # verify_small's settings: 1,040 outer points of 20 samples on the shipped small cantilever
        cfg = parse_config(str(CONFIGS / "cantilever_small.yaml"))
        prob = build_problem(cfg)
        state = initial_state(prob, x_min=cfg.x_min, seed_fraction=cfg.seed_fraction)
        res, peak = traced_peak(lambda: mcs_evaluate(prob, state, cfg.base_material, cfg.params, 16, 20, seed=1))
        assert res.fea_calls == 20800
        assert peak < 4 * 2**20

    def test_oracle_and_macro_factorization_skip_the_full_matrices(self, monkeypatch):
        # the macro system is scattered straight into its free block; the full K, M pair is never built
        def forbidden(*args, **kwargs):
            raise AssertionError("full-matrix assembly on the run path")

        monkeypatch.setattr(rcto.fem, "assemble", forbidden)
        monkeypatch.setattr(rcto.fem, "solve_system", forbidden)  # the one place K - omega^2 M is formed
        prob = cantilever(4, 2, cell_n=4, omega=2 * np.pi * 300.0)
        state = full_state(prob, micro=seed_cell(prob.cell, 0.25, 1e-6))
        props = homogenize(prob.cell, state.x_micro, self.mat, prob.penalty)
        factorized_dynamic(prob, state, props.d_h, props.rho_h).solve(prob.force)
        ev = BatchComplianceEvaluator(prob, state, self.mat)
        assert ev.compliance(("e1",), [[200e3]]).shape == (1,)

    def test_oracle_matches_full_solves(self, rng):
        prob = cantilever(4, 2, cell_n=4, omega=2 * np.pi * 300.0)
        state = full_state(prob, micro=seed_cell(prob.cell, 0.25, 1e-6))
        ev = BatchComplianceEvaluator(prob, state, self.mat)
        names = ("e1", "e2", "nu", "rho1", "rho2")
        vals = np.column_stack([
            rng.normal(200e3, 6e3, 12), rng.normal(150e3, 5e3, 12), rng.normal(0.3, 0.004, 12),
            rng.normal(7.9e-9, 2e-10, 12), rng.normal(0.79e-9, 2e-11, 12),
        ])
        batch = ev.compliance(names, vals)
        assert np.allclose(batch, reference_compliance(prob, state, self.mat, names, vals), rtol=1e-10)

    @pytest.mark.parametrize("sizes", [[4, 3, 3, 3], [5, 4, 4], [1] * 13])
    def test_rows_in_several_calls_match_one_call(self, rng, sizes):
        prob = cantilever(4, 2, cell_n=4, omega=2 * np.pi * 300.0)
        state = full_state(prob, micro=seed_cell(prob.cell, 0.25, 1e-6))
        names = ("e1", "rho1")
        vals = np.column_stack([rng.normal(200e3, 6e3, 13), rng.normal(7.9e-9, 2e-10, 13)])
        whole = BatchComplianceEvaluator(prob, state, self.mat).compliance(names, vals)
        ev = BatchComplianceEvaluator(prob, state, self.mat)
        parts = np.split(vals, np.cumsum(sizes)[:-1])
        split = np.concatenate([ev.compliance(names, part) for part in parts])
        assert np.allclose(split, whole, rtol=1e-10)

    def test_oracle_handles_split_poisson(self, rng):
        # distinct per-phase Poisson ratios exercise the general coefficient split
        base = TwoPhaseMaterial(Phase(200e3, 0.32, 7.9e-9), Phase(150e3, 0.22, 0.79e-9))
        prob = cantilever(4, 2, cell_n=4)
        state = full_state(prob, micro=seed_cell(prob.cell, 0.25, 1e-6))
        ev = BatchComplianceEvaluator(prob, state, base)
        names = ("e1", "nu1", "nu2")
        vals = np.column_stack([
            rng.normal(200e3, 6e3, 10), rng.normal(0.32, 0.01, 10), rng.normal(0.22, 0.01, 10),
        ])
        assert np.allclose(ev.compliance(names, vals), reference_compliance(prob, state, base, names, vals), rtol=1e-10)

    def test_samples_outside_the_basis_enrich_it(self, rng):
        prob = cantilever(4, 2, cell_n=4, omega=2 * np.pi * 300.0)
        state = full_state(prob, micro=seed_cell(prob.cell, 0.25, 1e-6))
        ev = BatchComplianceEvaluator(prob, state, self.mat)
        names = ("e1", "e2")
        ev.compliance(names, np.column_stack([rng.normal(200e3, 2e3, 8), rng.normal(150e3, 1.5e3, 8)]))
        solves = ev.cell.full_solves + ev.macro.full_solves
        far = np.array([[1.4 * 200e3, 0.6 * 150e3], [0.6 * 200e3, 1.4 * 150e3], [1.4 * 200e3, 1.4 * 150e3]])
        got = ev.compliance(names, far)
        assert ev.cell.full_solves + ev.macro.full_solves > solves
        assert np.allclose(got, reference_compliance(prob, state, self.mat, names, far), rtol=1e-10)

    @pytest.mark.parametrize("scale, size", [("cell", 1e-7), ("macro", 1e-8)])
    def test_a_sample_failing_with_its_own_full_solution_raises(self, monkeypatch, rng, scale, size):
        # a full solution off by a random direction this small leaves max|r| / max|f| of 2.5e-7 (cell) or 1.2e-6 (macro)
        prob = cantilever(4, 2, cell_n=4, omega=2 * np.pi * 300.0)
        ev = BatchComplianceEvaluator(prob, full_state(prob, micro=seed_cell(prob.cell, 0.25, 1e-6)), self.mat)
        exact = getattr(ev, f"_{scale}_solution")

        def perturbed(*args):
            u = exact(*args)
            return u + size * np.abs(u).max() * rng.standard_normal(u.shape)

        monkeypatch.setattr(ev, f"_{scale}_solution", perturbed)
        with pytest.raises(NumericalError, match=f"fails the {scale} residual contract with its own full solution"):
            ev.compliance(("e1",), [[200e3]])

    def test_a_full_solution_that_adds_no_direction_raises(self, monkeypatch):
        prob = cantilever(4, 2, cell_n=4, omega=2 * np.pi * 300.0)
        ev = BatchComplianceEvaluator(prob, full_state(prob, micro=seed_cell(prob.cell, 0.25, 1e-6)), self.mat)
        monkeypatch.setattr(ev, "_macro_solution", lambda d_h, rho_h: np.zeros((prob.free.size, 1)))
        with pytest.raises(NumericalError, match="macro solution of a Monte Carlo sample adds no direction"):
            ev.compliance(("e1",), [[200e3]])

    def test_macro_above_the_old_dense_limit(self, rng):
        prob = cantilever(40, 20, cell_n=4, omega=2 * np.pi * 100.0)
        assert prob.grid.n_dofs > 1600
        state = full_state(prob, micro=seed_cell(prob.cell, 0.25, 1e-6))
        names = ("e1", "nu", "rho1")
        vals = np.column_stack([rng.normal(200e3, 6e3, 3), rng.normal(0.3, 0.004, 3), rng.normal(7.9e-9, 2e-10, 3)])
        got = BatchComplianceEvaluator(prob, state, self.mat).compliance(names, vals)
        assert np.allclose(got, reference_compliance(prob, state, self.mat, names, vals), rtol=1e-10)

    def resonant_evaluator(self):
        """Oracle on cantilever(4, 2) driven where a 10 % heavier phase 1 puts the first eigenvalue of (K, rho_h M)."""
        prob = cantilever(4, 2, cell_n=4)
        state = full_state(prob, micro=seed_cell(prob.cell, 0.25, 1e-6))
        props = homogenize(prob.cell, state.x_micro, self.mat, prob.penalty)
        k, m = reference_matrices(prob, state, props.d_h, 1.0)
        free = prob.free
        lam = scipy.linalg.eigh(k[free][:, free].toarray(), m[free][:, free].toarray(), eigvals_only=True)[0]
        rho_h = self.mat.with_values(("rho1",), (1.1 * self.mat.phase1.density,)).mixed_density(props.fraction)
        resonant = MacroProblem(prob.grid, prob.cell, prob.fixed_dofs, prob.force, omega=np.sqrt(lam / rho_h))
        return BatchComplianceEvaluator(resonant, state, self.mat)

    def test_sample_at_a_macro_resonance_raises(self):
        ev = self.resonant_evaluator()
        assert np.isfinite(ev.compliance(("rho1",), [[self.mat.phase1.density]])).all()
        with pytest.raises(SingularSystemError):
            ev.compliance(("rho1",), [[self.mat.phase1.density], [1.1 * self.mat.phase1.density]])

    def test_first_sample_above_the_first_natural_frequency_raises(self):
        # a 30 % heavier phase 1 lowers the first natural frequency below the drive, so the full solve
        # that starts the macro basis is refused
        ev = self.resonant_evaluator()
        with pytest.raises(SingularSystemError, match="at or above the first natural frequency"):
            ev.compliance(("rho1",), [[1.3 * self.mat.phase1.density]])

    def test_galerkin_sample_above_the_first_natural_frequency_raises(self):
        # a macro basis grown below the resonance answers heavier samples within the residual contract, with
        # no full solve to refuse them; their Galerkin compliances (-9,568.19 at 1.12x, -1,899.85 at 1.2x) are
        # negative, which only an indefinite K - omega^2 M gives
        ev = self.resonant_evaluator()
        rho1 = self.mat.phase1.density
        assert np.all(ev.compliance(("rho1",), np.linspace(0.5, 1.08, 30)[:, None] * rho1) > 0.0)
        assert ev.macro.full_solves == 4
        for scale in (1.12, 1.2):
            with pytest.raises(SingularSystemError, match="compliance is not positive"):
                ev.compliance(("rho1",), [[scale * rho1]])
        assert ev.macro.full_solves == 4

    def test_split_poisson_set_costs_nineteen_calls(self):
        base = TwoPhaseMaterial(Phase(200e3, 0.32, 7.9e-9), Phase(150e3, 0.22, 0.79e-9))
        prob = cantilever(4, 2, cell_n=4, omega=2 * np.pi * 100.0)
        state = full_state(prob, micro=seed_cell(prob.cell, 0.25, 1e-6))
        def iv(mid):
            return Interval(0.97 * mid, 1.03 * mid) if mid > 0 else Interval.exact(mid)
        params = UncertainSet([
            HybridParameter("e1", iv(200e3), Interval.exact(5e3)),
            HybridParameter("e2", iv(150e3), Interval.exact(4e3)),
            HybridParameter("nu1", Interval(0.31, 0.33), Interval.exact(0.002)),
            HybridParameter("nu2", Interval(0.21, 0.23), Interval.exact(0.002)),
            HybridParameter("rho1", iv(7.9e-9), Interval.exact(2e-10)),
            HybridParameter("rho2", iv(0.79e-9), Interval.exact(2e-11)),
        ])
        obj, cache = ihpa_evaluate(prob, state, base, params, kappa=1.0)
        assert cache.fea_calls == 19  # 1 + 3 * 6
        assert obj.std > 0.0
        res = mcs_evaluate(prob, state, base, params, n_interval=8, n_random=1500, seed=4)
        assert abs(obj.expectation - res.expectation) <= 0.05 * res.expectation


class TestNoDenseOracle:
    def test_oracle_never_densifies_or_builds_a_pattern(self, monkeypatch, rng):
        cfg = parse_config(str(CONFIGS / "cantilever_small.yaml"))
        grid = StructuredGrid((3, 2, 2), (1.0, 1.0, 1.0))
        force = np.zeros(grid.n_dofs)
        force[3 * grid.node_ids[-1, 0, 0] + 1] = -1000.0
        prism = MacroProblem(
            grid=grid,
            cell=StructuredGrid((3, 3, 3), (1 / 3, 1 / 3, 1 / 3)),
            fixed_dofs=(3 * grid.node_ids[0].ravel()[:, None] + np.arange(3)).ravel(),
            force=force,
            omega=2 * np.pi * 50.0,
        )
        cases = [(build_problem(cfg), cfg.base_material), (prism, steel_foam())]
        for prob, _ in cases:
            prob.pattern  # the macro free block is the one assembled system

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle built or densified a sparse matrix, or built a sparsity pattern")

        refuse_sparse_matrices(monkeypatch, refuse)
        monkeypatch.setattr(rcto.fem.SparsityPattern, "from_dofs", refuse)
        names = ("e1", "e2", "nu")
        for prob, mat in cases:
            ev = BatchComplianceEvaluator(prob, full_state(prob, micro=seed_cell(prob.cell, 0.2, 1e-6)), mat)
            p1, p2 = mat.phase1, mat.phase2
            vals = np.column_stack([
                rng.normal(p1.youngs, 0.03 * p1.youngs, 6), rng.normal(p2.youngs, 0.03 * p2.youngs, 6),
                rng.normal(p1.poisson, 0.004, 6),
            ])
            assert np.all(np.isfinite(ev.compliance(names, vals)))
            assert ev.cell.full_solves > 0 and ev.macro.full_solves > 0


class TestIhpaAgainstMcs:
    def test_small_cantilever_two_uncertain_moduli_within_ten_percent(self):
        mat = steel_foam()
        prob = cantilever(4, 1, cell_n=5)
        state = full_state(prob, micro=seed_cell(prob.cell, 0.04, 1e-6))
        p1, p2 = mat.phase1, mat.phase2
        params = UncertainSet([
            HybridParameter("e1", Interval(0.96 * p1.youngs, 1.04 * p1.youngs),
                            Interval.exact(0.05 * p1.youngs)),
            HybridParameter("e2", Interval(0.96 * p2.youngs, 1.04 * p2.youngs),
                            Interval.exact(0.05 * p2.youngs)),
        ])
        obj, _ = ihpa_evaluate(prob, state, mat, params, kappa=1.0)
        res = mcs_evaluate(prob, state, mat, params, 16, 3000, seed=2)
        assert abs(obj.expectation - res.expectation) <= 0.10 * res.expectation
        assert abs(obj.std - res.std) <= 0.10 * res.std
