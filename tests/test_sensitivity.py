"""Sensitivity numbers against finite differences, plus normalization and filtering."""

import numpy as np
import pytest

import rcto.sensitivity
from rcto.errors import NormalizationError
from rcto.fem import StructuredGrid, mean_compliance, strain_operators
from rcto.homogenization import homogenize
from rcto.materials import Phase, TwoPhaseMaterial
from rcto.problem import DesignState, MacroProblem, factorized_dynamic
from rcto.sensitivity import (
    SensitivityField,
    SensitivityFilter,
    _Field,
    _FormContext,
    _Pair,
    deterministic_sensitivity,
    history_average,
    normalize,
    robust_sensitivity,
)
from rcto.uncertainty import HybridParameter, Interval, UncertainSet, ihpa_evaluate, select_beta, smooth_sign

from conftest import (
    cantilever,
    cell_phases,
    cell_strains,
    degenerate_params,
    fractional_interval,
    hybrid_params,
    phase_derivatives,
    reference_voxel_form,
    steel_foam,
)


def relaxed_state(prob, rng, lo=0.4):
    return DesignState(
        x_macro=lo + (1 - lo) * rng.random(prob.grid.n_elems),
        x_micro=lo + (1 - lo) * rng.random(prob.cell.n_elems),
    )


def fd_field(fun, state, attr, h=1e-5):
    values = getattr(state, attr)
    out = np.zeros_like(values)
    for idx in range(values.size):
        acc = 0.0
        for sgn in (1.0, -1.0):
            st = state.copy()
            getattr(st, attr)[idx] += sgn * h
            acc += sgn * fun(st)
        out[idx] = acc / (2 * h)
    return out


class TestSmoothSign:
    def test_zero_argument(self):
        value, dvalue = smooth_sign(0.0, beta=4.0)
        assert value == 0.0 and dvalue == 4.0

    def test_saturation_at_large_beta(self):
        value, _ = smooth_sign(1.0, beta=50.0)
        assert value > 1 - 1e-12

    def test_range_is_open_unit_interval(self):
        value, _ = smooth_sign(np.array([-5.0, -0.3, 0.3, 5.0]), beta=1.0)
        assert np.all(np.abs(value) < 1.0)  # float tanh saturates only beyond ~19

    def test_derivative_matches_finite_differences(self):
        beta, f = 3.0, 0.17
        h = 1e-7
        _, dvalue = smooth_sign(f, beta)
        fd = (smooth_sign(f + h, beta)[0] - smooth_sign(f - h, beta)[0]) / (2 * h)
        assert abs(dvalue - fd) <= 1e-6 * abs(fd)

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            smooth_sign(1.0, beta=0.0)


@pytest.mark.parametrize("macro_shape, cell_shape", [((4, 2), (5, 4)), ((3, 2, 2), (3, 3, 2))])
def test_pair_forms_match_direct_contraction(rng, macro_shape, cell_shape):
    # the macro and micro forms of one (u, v) pair read the same strain and mass moments; check both
    # scales of every kernel against direct contractions over every macro element, voxel and Gauss point
    dim = len(macro_shape)
    grid = StructuredGrid(macro_shape, (1.0,) * dim)
    cell = StructuredGrid(cell_shape, tuple(1.0 / n for n in cell_shape))
    prob = MacroProblem(
        grid=grid, cell=cell, fixed_dofs=np.arange(dim), force=np.zeros(grid.n_dofs), omega=2 * np.pi * 500.0
    )
    state = relaxed_state(prob, rng)
    mat = TwoPhaseMaterial(Phase(200e3, 0.3, 7.9e-9), Phase(150e3, 0.25, 0.79e-9))
    props = homogenize(cell, state.x_micro, mat, prob.penalty)
    g, w = cell_strains(cell, *cell_phases(state.x_micro, mat, prob.penalty, dim))
    ctx = _FormContext(prob, state, props)
    u, v = rng.standard_normal((2, grid.n_dofs))
    pair = _Pair(ctx, _Field(ctx, u), _Field(ctx, v))
    bmat, nmat, w_macro = strain_operators(grid.spacing)
    dofs = grid.elem_dofs
    eps_u, eps_v = (np.einsum("qck,ak->qca", bmat, field[dofs]) for field in (u, v))
    mass = np.einsum("q,qde,ae,qdf,af->a", w_macro, nmat, u[dofs], nmat, v[dofs])
    moment = np.einsum("a,q,qca,qda->cd", ctx.s, w_macro, eps_u, eps_v)
    omega2 = prob.omega**2
    for wrt in [(), ("e1",), ("e2",), ("nu",), ("nu", "nu"), ("e1", "nu"), ("rho1",), ("rho2",)]:
        got = ctx.form(pair, mat.kernel(dim, wrt))
        dd, drho = props.d_h_derivative(wrt), props.rho_h_derivative(wrt)
        macro_ref = ctx.sprime * np.einsum("q,qca,cd,qda->a", w_macro, eps_u, dd, eps_v) - omega2 * drho * mass
        assert np.abs(got.macro - macro_ref).max() <= 1e-13 * np.abs(macro_ref).max()
        d1, d2 = phase_derivatives(mat, dim, wrt)
        cdelta = d1 - d2
        rdelta = mat.rho_derivative(1, wrt) - mat.rho_derivative(2, wrt)
        ref = ctx.micro_stiff_scale * reference_voxel_form(g, w, moment, cdelta)
        ref = ref - omega2 * ctx.voxel_scale * rdelta * np.dot(state.x_macro, mass)
        assert np.abs(got.micro - ref).max() <= 1e-13 * np.abs(ref).max()


class TestDeterministicSensitivity:
    mat = steel_foam()

    def _evaluate(self, prob, state):
        props = homogenize(prob.cell, state.x_micro, self.mat, prob.penalty)
        system = factorized_dynamic(prob, state, props.d_h, props.rho_h)
        u = system.solve(prob.force)
        return props, u

    def _compliance_fn(self, prob):
        def fn(st):
            props = homogenize(prob.cell, st.x_micro, self.mat, prob.penalty)
            system = factorized_dynamic(prob, st, props.d_h, props.rho_h)
            return mean_compliance(prob.force, system.solve(prob.force))
        return fn

    @pytest.mark.parametrize("freq", [0.0, 120.0])
    def test_matches_finite_differences_on_relaxed_variables(self, rng, freq):
        prob = cantilever(4, 2, cell_n=4, omega=2 * np.pi * freq)
        state = relaxed_state(prob, rng)
        props, u = self._evaluate(prob, state)
        field = deterministic_sensitivity(prob, state, props, u)
        fn = self._compliance_fn(prob)
        fd_mac = -fd_field(fn, state, "x_macro") / prob.penalty
        fd_mic = -fd_field(fn, state, "x_micro") / prob.penalty
        assert np.abs(field.macro - fd_mac).max() <= 0.01 * np.abs(fd_mac).max()
        assert np.abs(field.micro - fd_mic).max() <= 0.01 * np.abs(fd_mic).max()

    def test_identical_phases_zero_micro_stiffness_term(self, rng):
        same = TwoPhaseMaterial(Phase(100e3, 0.3, 5e-9), Phase(100e3, 0.3, 1e-9))
        prob = cantilever(4, 2, cell_n=4, omega=0.0)
        state = relaxed_state(prob, rng)
        props = homogenize(prob.cell, state.x_micro, same, prob.penalty)
        system = factorized_dynamic(prob, state, props.d_h, props.rho_h)
        u = system.solve(prob.force)
        field = deterministic_sensitivity(prob, state, props, u)
        assert np.abs(field.micro).max() == 0.0  # static: mass term absent too

    def test_static_macro_sensitivities_nonnegative(self, rng):
        prob = cantilever(5, 3, cell_n=4)
        state = relaxed_state(prob, rng)
        props, u = self._evaluate(prob, state)
        field = deterministic_sensitivity(prob, state, props, u)
        assert np.all(field.macro >= 0.0)


class TestRobustSensitivity:
    mat = steel_foam()

    @pytest.mark.parametrize(
        "make_params", [degenerate_params, lambda mat: UncertainSet()], ids=["degenerate", "empty"]
    )
    def test_zero_widths_reduce_to_deterministic(self, rng, make_params):
        # the empty set is deterministic CTO itself: the optimizer's only sensitivity path must give it
        prob = cantilever(4, 2, cell_n=4, omega=2 * np.pi * 80.0)
        state = relaxed_state(prob, rng)
        _, cache = ihpa_evaluate(prob, state, self.mat, make_params(self.mat), kappa=1.0)
        robust = robust_sensitivity(cache, kappa=1.0)
        props = homogenize(prob.cell, state.x_micro, self.mat, prob.penalty)
        system = factorized_dynamic(prob, state, props.d_h, props.rho_h)
        u = system.solve(prob.force)
        det = deterministic_sensitivity(prob, state, props, u)
        assert np.abs(robust.macro - det.macro).max() <= 1e-9 * np.abs(det.macro).max()
        assert np.abs(robust.micro - det.micro).max() <= 1e-9 * np.abs(det.micro).max()

    def test_matches_finite_differences_of_smoothed_objective(self, rng):
        prob = cantilever(4, 2, cell_n=4, omega=2 * np.pi * 60.0)
        state = relaxed_state(prob, rng)
        params = UncertainSet([
            HybridParameter("e1", Interval(190e3, 210e3), Interval(9.5e3, 10.5e3)),
            HybridParameter("nu", Interval(0.294, 0.306), Interval.exact(0.0015)),
        ])
        kappa, beta = 1.0, 2e-3
        _, cache = ihpa_evaluate(prob, state, self.mat, params, kappa=kappa)
        field = robust_sensitivity(cache, kappa, beta=beta)

        def objective(st):
            _, ca = ihpa_evaluate(prob, st, self.mat, params, kappa=kappa)
            return ca.smooth_objective(kappa, beta).objective

        fd_mac = -fd_field(objective, state, "x_macro") / prob.penalty
        fd_mic = -fd_field(objective, state, "x_micro") / prob.penalty
        assert np.abs(field.macro - fd_mac).max() <= 0.05 * np.abs(fd_mac).max()
        assert np.abs(field.micro - fd_mic).max() <= 0.05 * np.abs(fd_mic).max()

    def test_split_parameters_match_directional_finite_differences(self, rng):
        # all six split parameters at 30 kHz, below the first resonance (about 47 kHz), where the inertia of
        # the density kernels moves the gradient by about 0.6 % (macro) and 20 % (micro)
        prob = cantilever(4, 2, cell_n=4, omega=2 * np.pi * 30e3)
        state = relaxed_state(prob, rng)
        p1, p2 = self.mat.phase1, self.mat.phase2
        params = UncertainSet([
            HybridParameter(name, fractional_interval(mid, 0.05), fractional_interval(0.05 * mid, 0.1))
            for name, mid in [("e1", p1.youngs), ("e2", p2.youngs), ("nu1", p1.poisson), ("nu2", p2.poisson),
                              ("rho1", p1.density), ("rho2", p2.density)]
        ])
        kappa, h = 1.0, 1e-5
        _, cache = ihpa_evaluate(prob, state, self.mat, params, kappa=kappa)
        beta = select_beta(cache)
        field = robust_sensitivity(cache, kappa, beta=beta)

        def objective(st):
            return ihpa_evaluate(prob, st, self.mat, params, kappa=kappa)[1].smooth_objective(kappa, beta).objective

        # the micro forms hold the cell strain fields fixed, which is exact for D_h but not for its
        # parameter derivatives: a model error of about 0.26 % here, against 1e-9 on the macro scale
        for attr, grad, tol in (("x_macro", field.macro, 1e-6), ("x_micro", field.micro, 1e-2)):
            d = rng.uniform(-1.0, 1.0, grad.size)
            plus, minus = state.copy(), state.copy()
            getattr(plus, attr)[:] += h * d
            getattr(minus, attr)[:] -= h * d
            fd = (objective(plus) - objective(minus)) / (2 * h)
            assert abs(-prob.penalty * float(grad @ d) - fd) <= tol * abs(fd)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_one_evaluation_forms_2n_plus_2_pair_moments(self, rng, monkeypatch, n):
        # each operand is formed once: n + 2 gathered fields (u0, the weighted sum z and each v_j) and
        # 2n + 1 material kernels (k0, and k_j and k_jj of each parameter), 1 and 1 for n = 0
        formed, gathered, kernels = [], [], []

        class CountedPair(_Pair):
            def __init__(self, *args):
                formed.append(args)
                super().__init__(*args)

        class CountedField(_Field):
            def __init__(self, *args):
                gathered.append(args)
                super().__init__(*args)

        kernel = TwoPhaseMaterial.kernel
        monkeypatch.setattr(rcto.sensitivity, "_Pair", CountedPair)
        monkeypatch.setattr(rcto.sensitivity, "_Field", CountedField)
        monkeypatch.setattr(TwoPhaseMaterial, "kernel", lambda *args: kernels.append(args) or kernel(*args))
        prob = cantilever(4, 2, cell_n=4, omega=2 * np.pi * 80.0)
        params = UncertainSet(hybrid_params(self.mat).parameters[:n])
        _, cache = ihpa_evaluate(prob, relaxed_state(prob, rng), self.mat, params, kappa=1.0)
        robust_sensitivity(cache, kappa=1.0)
        assert len(formed) == (2 * n + 2 if n else 1)
        assert len(gathered) == (n + 2 if n else 1)
        assert len(kernels) == 2 * n + 1

    def test_kappa_zero_keeps_only_expectation_path(self, rng):
        prob = cantilever(4, 2, cell_n=4)
        state = relaxed_state(prob, rng)
        params = hybrid_params(self.mat, mean_frac=0.05, cov=0.05)
        beta = 1e-3
        _, cache = ihpa_evaluate(prob, state, self.mat, params, kappa=0.0)
        field = robust_sensitivity(cache, kappa=0.0, beta=beta)

        def expectation(st):
            _, ca = ihpa_evaluate(prob, st, self.mat, params, kappa=0.0)
            return ca.smooth_objective(0.0, beta).expectation

        fd_mac = -fd_field(expectation, state, "x_macro") / prob.penalty
        assert np.abs(field.macro - fd_mac).max() <= 0.05 * np.abs(fd_mac).max()

    def test_gap_to_deterministic_shrinks_with_uncertainty(self, rng):
        # sweep the interval widths and sigmas to zero: the elementwise gap
        # to the deterministic sensitivity must decrease monotonically
        prob = cantilever(4, 2, cell_n=4, omega=2 * np.pi * 80.0)
        state = relaxed_state(prob, rng)
        props = homogenize(prob.cell, state.x_micro, self.mat, prob.penalty)
        system = factorized_dynamic(prob, state, props.d_h, props.rho_h)
        det = deterministic_sensitivity(prob, state, props, system.solve(prob.force))
        gaps = []
        for scale in (1.0, 0.5, 0.2, 0.05):
            params = hybrid_params(
                self.mat, mean_frac=0.05 * scale, cov=0.05 * scale, sigma_frac=0.05 * scale
            )
            _, cache = ihpa_evaluate(prob, state, self.mat, params, kappa=1.0)
            rob = robust_sensitivity(cache, kappa=1.0, beta=1e-3)
            gaps.append(
                max(np.abs(rob.macro - det.macro).max() / np.abs(det.macro).max(),
                    np.abs(rob.micro - det.micro).max() / np.abs(det.micro).max())
            )
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.25 * gaps[0]


class TestNormalize:
    mat = steel_foam()

    def _setup(self, rng, material=None):
        material = material or self.mat
        prob = cantilever(3, 2, cell_n=3)
        state = relaxed_state(prob, rng)
        props = homogenize(prob.cell, state.x_micro, material, prob.penalty)
        field = SensitivityField(
            np.abs(rng.random(prob.grid.n_elems)) + 0.1,
            np.abs(rng.random(prob.cell.n_elems)) + 0.1,
        )
        return prob, state, props, field

    def test_doubling_effective_density_halves_macro_values(self, rng):
        prob, state, props, field = self._setup(rng)
        xi = normalize(field, prob, state, props)
        props2 = homogenize(prob.cell, state.x_micro, self.mat, prob.penalty)
        props2.rho_h *= 2.0
        xi2 = normalize(field, prob, state, props2)
        assert np.allclose(xi2.macro, 0.5 * xi.macro)

    def test_micro_weight_derivative_formula(self, rng):
        # full macro field: d(mass)/dx_i = (V_i/|Y|)(rho1 - rho2) * NE * V_a
        prob, _, props, field = self._setup(rng)
        state = DesignState(
            x_macro=np.ones(prob.grid.n_elems), x_micro=np.ones(prob.cell.n_elems)
        )
        xi = normalize(field, prob, state, props)
        v_a = prob.grid.elem_volume
        dm = (
            prob.cell.elem_volume / prob.cell.volume
            * (self.mat.phase1.density - self.mat.phase2.density)
            * prob.grid.n_elems * v_a
        )
        assert np.allclose(xi.micro, field.micro / dm)

    def test_rank_order_invariant_under_positive_rescale(self, rng):
        prob, state, props, field = self._setup(rng)
        xi1 = normalize(field, prob, state, props)
        scaled = SensitivityField(5.0 * field.macro, 5.0 * field.micro)
        xi2 = normalize(scaled, prob, state, props)
        merged1 = np.argsort(np.concatenate([xi1.macro, xi1.micro]))
        merged2 = np.argsort(np.concatenate([xi2.macro, xi2.micro]))
        assert np.array_equal(merged1, merged2)

    def test_equal_phase_densities_not_comparable(self, rng):
        same_rho = TwoPhaseMaterial(Phase(200e3, 0.3, 5e-9), Phase(100e3, 0.3, 5e-9))
        prob, state, props, field = self._setup(rng, material=same_rho)
        with pytest.raises(NormalizationError, match="not comparable"):
            normalize(field, prob, state, props)


FILTER_CASES = [
    ((5, 5), (1.0, 1.0), 1.5, False, (2, 2)),
    ((7, 5), (1.0, 0.6), 1.7, False, (1, 4)),
    ((8, 8), (0.125, 0.125), 0.3, True, (0, 0)),
    ((6, 5, 4), (0.1, 0.13, 0.2), 0.28, True, (0, 4, 3)),
    ((5, 4, 3), (1.0, 1.0, 1.0), 1.8, False, (0, 1, 2)),
]
FILTER_IDS = ["2d-square", "2d-unequal-spacing", "2d-periodic", "3d-periodic-unequal-spacing", "3d-mesh"]


class TestFilter:
    def test_constant_field_unchanged(self):
        grid = StructuredGrid((6, 4), (1.0, 1.0))
        filt = SensitivityFilter(grid, r_min=2.5)
        field = np.full(grid.n_elems, 3.7)
        assert np.allclose(filt.apply(field), field)
        averaged = history_average(
            SensitivityField(field, field), SensitivityField(field, field)
        )
        assert np.allclose(averaged.macro, field)

    @pytest.mark.parametrize("shape, spacing, r_min, periodic, spike", FILTER_CASES, ids=FILTER_IDS)
    def test_single_spike_spreads_exactly_within_radius(self, shape, spacing, r_min, periodic, spike):
        # direct evaluation of the weighted average, minimum-image distances on the periodic cell
        grid = StructuredGrid(shape, spacing)
        filt = SensitivityFilter(grid, r_min=r_min, periodic=periodic)
        field = np.zeros(grid.n_elems)
        center = int(np.ravel_multi_index(spike, shape, order="F"))
        field[center] = 10.0
        out = filt.apply(field)
        centroids = grid.centroids
        box = np.array(shape) * np.array(spacing)

        def dists_from(e):
            delta = centroids - centroids[e]
            if periodic:
                delta = delta - box * np.round(delta / box)
            return np.linalg.norm(delta, axis=1)

        for e in range(grid.n_elems):
            weights = np.maximum(r_min - dists_from(e), 0.0)
            expect = weights[center] * 10.0 / weights.sum()
            assert np.isclose(out[e], expect, atol=1e-12)
        touched = np.abs(out) > 0
        assert np.array_equal(touched, dists_from(center) < r_min)

    @pytest.mark.parametrize("shape, spacing, r_min, periodic, spike", FILTER_CASES, ids=FILTER_IDS)
    def test_matches_ndimage_correlate(self, rng, shape, spacing, r_min, periodic, spike):
        from scipy import ndimage

        grid = StructuredGrid(shape, spacing)
        offsets = [h * np.arange(-(r_min // h), r_min // h + 1) for h in spacing]
        stencil = np.maximum(r_min - np.sqrt(sum(d**2 for d in np.meshgrid(*offsets, indexing="ij"))), 0.0)
        mode = "wrap" if periodic else "constant"
        field = rng.standard_normal(grid.n_elems)
        ref = ndimage.correlate(field.reshape(shape, order="F"), stencil, mode=mode)
        ref = (ref / ndimage.correlate(np.ones(shape), stencil, mode=mode)).ravel(order="F")
        out = SensitivityFilter(grid, r_min=r_min, periodic=periodic).apply(field)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_filtered_range_bracketed_by_raw_range(self, rng):
        grid = StructuredGrid((7, 5), (1.0, 1.0))
        filt = SensitivityFilter(grid, r_min=2.2)
        field = rng.standard_normal(grid.n_elems)
        out = filt.apply(field)
        assert out.min() >= field.min() - 1e-12 and out.max() <= field.max() + 1e-12

    def test_periodic_filter_preserves_mean(self, rng):
        grid = StructuredGrid((8, 8), (0.125, 0.125))
        filt = SensitivityFilter(grid, r_min=0.3, periodic=True)
        field = rng.standard_normal(grid.n_elems)
        assert np.isclose(filt.apply(field).mean(), field.mean(), atol=1e-12)

    def test_periodic_filter_wraps_across_faces(self):
        grid = StructuredGrid((8, 8), (1.0, 1.0))
        filt = SensitivityFilter(grid, r_min=1.5, periodic=True)
        field = np.zeros(grid.n_elems)
        field[0] = 1.0  # corner voxel: neighbors wrap to the opposite faces
        out = filt.apply(field)
        assert out[7] > 0.0 and out[56] > 0.0  # (7,0) and (0,7) via wrap

    def test_radius_validation(self):
        grid = StructuredGrid((4, 4), (1.0, 1.0))
        with pytest.raises(ValueError):
            SensitivityFilter(grid, r_min=0.0)
        with pytest.raises(ValueError):
            SensitivityFilter(grid, r_min=3.0, periodic=True)  # >= half the cell
