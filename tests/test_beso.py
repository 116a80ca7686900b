"""Discrete evolutionary engine: schedule, update, convergence, full runs."""

import itertools

import numpy as np
import pytest

import rcto.beso
from rcto.errors import InfeasibleTargetError
from rcto.fem import StructuredGrid, mean_compliance
from rcto.homogenization import effective_density, homogenize, seed_cell
from rcto.materials import Phase, TwoPhaseMaterial
from rcto.problem import DesignState, MacroProblem, design_weight, factorized_dynamic, weight_gradient
from rcto.sensitivity import SensitivityField
from rcto.beso import (
    Schedule,
    check_convergence,
    concurrent_update,
    initial_state,
    mass_quantum,
    reference_mass,
    run,
    total_mass,
    update_weight_target,
)
from rcto.uncertainty import UncertainSet

from conftest import cantilever, full_state, hybrid_params, steel_foam

X_MIN = 1e-6


class TestWeightSchedule:
    def test_basic_step_down(self):
        assert np.isclose(update_weight_target(1.0, 0.5, 0.02), 0.98)

    def test_clamp_on_overshoot(self):
        # 0.505 * 0.98 = 0.4949 would cross the target, so clamp to it
        assert update_weight_target(0.505, 0.5, 0.02) == 0.5

    def test_target_is_fixed_point(self):
        assert update_weight_target(0.5, 0.5, 0.02) == 0.5

    def test_step_up_toward_target(self):
        assert np.isclose(update_weight_target(0.5, 0.9, 0.02), 0.51)
        assert update_weight_target(0.899, 0.9, 0.02) == 0.9

    def test_trajectory_monotone_and_constant_after_target(self):
        w, seq = 1.0, []
        for _ in range(60):
            w = update_weight_target(w, 0.5, 0.02)
            seq.append(w)
        assert all(a >= b for a, b in zip(seq, seq[1:]))
        assert seq[-1] == 0.5 and seq[-2] == 0.5


def tiny_problem():
    """2x1 macro grid with a 2x1 cell: the smallest concurrent instance."""
    grid = StructuredGrid((2, 1), (1.0, 1.0))
    cell = StructuredGrid((2, 1), (0.5, 1.0))
    f = np.zeros(grid.n_dofs)
    f[2 * 2 + 1] = -1.0
    return MacroProblem(grid=grid, cell=cell, fixed_dofs=np.array([0, 1, 6, 7]), force=f)


class TestConcurrentUpdate:
    mat = TwoPhaseMaterial(Phase(2.0, 0.3, 1.0), Phase(1.0, 0.3, 0.5))

    def test_uniform_sensitivity_removes_from_merged_tail_in_index_order(self):
        # ties rank macro before micro and ascend by element index, so weight
        # removals peel the highest-index micro voxels first
        prob = cantilever(3, 1, cell_n=2)
        state = full_state(prob)
        xi = SensitivityField(np.ones(3), np.ones(4))
        target = total_mass(prob, state, self.mat) - 0.9 * prob.grid.elem_volume * self.mat.phase1.density
        new, info = concurrent_update(prob, state, self.mat, xi, target, flip_cap=None)
        assert np.all(new.x_macro == 1.0)
        assert np.array_equal(new.x_micro, [1.0, 1.0, X_MIN, X_MIN])

    @pytest.mark.parametrize("flip_cap", [None, 0.05])
    def test_values_moved_by_a_few_ulps_give_the_same_update(self, rng, flip_cap):
        # mirror images of one element carry equal sensitivities up to their
        # last bits; the ranking must not read those bits
        prob = cantilever(6, 3, cell_n=4)
        state = full_state(prob, micro=seed_cell(prob.cell, 0.2, X_MIN))
        levels = rng.standard_normal(2)
        xi = SensitivityField(rng.choice(levels, prob.grid.n_elems), rng.choice(levels, prob.cell.n_elems))
        nudge = lambda v: v + rng.integers(-4, 5, v.size) * np.spacing(v)
        moved = SensitivityField(nudge(xi.macro), nudge(xi.micro))
        assert not np.array_equal(moved.micro, xi.micro)
        target = 0.9 * total_mass(prob, state, self.mat)
        new, info = concurrent_update(prob, state, self.mat, xi, target, flip_cap)
        new_moved, info_moved = concurrent_update(prob, state, self.mat, moved, target, flip_cap)
        assert np.array_equal(new.x_macro, new_moved.x_macro)
        assert np.array_equal(new.x_micro, new_moved.x_micro)
        assert info == info_moved

    def test_all_zero_field_ties_everywhere(self):
        prob = cantilever(3, 1, cell_n=2)
        state = full_state(prob)
        target = total_mass(prob, state, self.mat) - 0.9 * prob.grid.elem_volume * self.mat.phase1.density
        with np.errstate(divide="raise", invalid="raise"):  # no 0 / 0 in the ranking key
            zero, _ = concurrent_update(prob, state, self.mat, SensitivityField(np.zeros(3), np.zeros(4)), target, None)
        ones, _ = concurrent_update(prob, state, self.mat, SensitivityField(np.ones(3), np.ones(4)), target, None)
        assert np.array_equal(zero.x_micro, ones.x_micro) and np.array_equal(zero.x_macro, ones.x_macro)

    def test_target_equal_to_current_weight_changes_nothing(self):
        prob = cantilever(3, 1, cell_n=2)
        state = full_state(prob)
        xi = SensitivityField(np.ones(3), np.ones(4))
        target = total_mass(prob, state, self.mat)
        new, info = concurrent_update(prob, state, self.mat, xi, target, flip_cap=None)
        assert info.flips_macro == 0 and info.flips_micro == 0

    def test_matches_exhaustive_enumeration(self):
        prob = tiny_problem()
        state = DesignState(
            x_macro=np.array([1.0, 1.0]), x_micro=np.array([1.0, 1.0]), x_min=X_MIN
        )
        xi = SensitivityField(np.array([10.0, 1.0]), np.array([8.0, 2.0]))
        m0 = reference_mass(prob, self.mat)
        target = 0.55 * m0

        new, _ = concurrent_update(prob, state, self.mat, xi, target, flip_cap=None)

        # brute force: all 2^4 discrete states within the weight budget,
        # maximal total kept sensitivity
        def mass_of(xa, xi_):
            st = DesignState(x_macro=np.array(xa, dtype=float), x_micro=np.array(xi_, dtype=float))
            return total_mass(prob, st, self.mat)

        best, best_score = None, -np.inf
        merged = np.concatenate([xi.macro, xi.micro])
        for bits in itertools.product([X_MIN, 1.0], repeat=4):
            xa, xm = bits[:2], bits[2:]
            if mass_of(xa, xm) > target * (1 + 1e-9):
                continue
            score = float(np.dot(merged, np.concatenate([xa, xm])))
            if score > best_score:
                best, best_score = (xa, xm), score
        assert best is not None
        assert np.array_equal(new.x_macro, best[0])
        assert np.array_equal(new.x_micro, best[1])

    def test_weight_always_within_one_quantum_of_target(self, rng):
        prob = cantilever(4, 2, cell_n=3)
        ne_mac, ne_mic = prob.grid.n_elems, prob.cell.n_elems
        state = full_state(prob, micro=seed_cell(prob.cell, 0.2, X_MIN))
        m0 = reference_mass(prob, self.mat)
        for target_frac in (0.9, 0.7, 0.5, 0.3):
            xi = SensitivityField(rng.random(ne_mac), rng.random(ne_mic))
            # one design_weight call weighs every prefix of the merged ranking
            is_micro = np.argsort(-np.concatenate([xi.macro, xi.micro])) >= ne_mac
            n1 = np.concatenate([[0], np.cumsum(~is_micro)])
            m1 = np.concatenate([[0], np.cumsum(is_micro)])
            prefix = design_weight(prob, self.mat, n1 + X_MIN * (ne_mac - n1), m1 + X_MIN * (ne_mic - m1))
            cut = prefix[np.argmin(np.abs(prefix - target_frac * m0))]
            state, _ = concurrent_update(prob, state, self.mat, xi, target_frac * m0, flip_cap=None)
            assert np.isclose(total_mass(prob, state, self.mat), cut, rtol=1e-14, atol=0.0)
            quantum = mass_quantum(prob, state, self.mat)
            assert abs(total_mass(prob, state, self.mat) - target_frac * m0) <= quantum
            assert set(np.unique(state.x_macro)) <= {X_MIN, 1.0}
            assert set(np.unique(state.x_micro)) <= {X_MIN, 1.0}

    def test_weight_gradient_matches_central_differences(self, rng):
        # W is bilinear in (sum_a x_a, sum_i x_i), so central differences agree to rounding
        prob = cantilever(4, 2, cell_n=3)
        state = full_state(prob, micro=rng.choice([X_MIN, 1.0], prob.cell.n_elems))
        state.x_macro[rng.random(prob.grid.n_elems) < 0.4] = X_MIN
        macro_sum, micro_sum = np.sum(state.x_macro), np.sum(state.x_micro)
        rho_h = effective_density(state.x_micro, self.mat, prob.cell)
        gradient = weight_gradient(prob, state, rho_h, self.mat.phase1.density - self.mat.phase2.density)
        weight = lambda a, i: design_weight(prob, self.mat, macro_sum + a, micro_sum + i)
        h = 0.5
        fd = ((weight(h, 0.0) - weight(-h, 0.0)) / (2 * h), (weight(0.0, h) - weight(0.0, -h)) / (2 * h))
        assert np.allclose(gradient, fd, rtol=1e-13, atol=0.0)

    def test_infeasible_targets_raise_structured_errors(self):
        prob = tiny_problem()
        state = DesignState(x_macro=np.ones(2), x_micro=np.ones(2))
        xi = SensitivityField(np.ones(2), np.ones(2))
        with pytest.raises(InfeasibleTargetError, match="minimum"):
            concurrent_update(prob, state, self.mat, xi, 1e-12)
        with pytest.raises(InfeasibleTargetError, match="maximum"):
            concurrent_update(prob, state, self.mat, xi, 10.0 * reference_mass(prob, self.mat))

    def test_flip_cap_limits_changes_per_scale(self):
        prob = cantilever(10, 2, cell_n=4)
        state = full_state(prob)
        xi = SensitivityField(
            np.arange(prob.grid.n_elems, dtype=float),
            np.arange(prob.cell.n_elems, dtype=float),
        )
        m0 = reference_mass(prob, self.mat)
        new, info = concurrent_update(prob, state, self.mat, xi, 0.4 * m0, flip_cap=0.05)
        assert info.cap_bound
        assert info.flips_macro <= max(1, int(np.ceil(0.05 * prob.grid.n_elems)))
        assert info.flips_micro <= max(1, int(np.ceil(0.05 * prob.cell.n_elems)))


class TestConvergence:
    def test_constant_history_converges(self):
        assert check_convergence([5.0] * 10, window=5, tol=1e-6)[0]

    def test_alternating_history_error_matches_direct_formula(self):
        a, delta = 10.0, 0.02
        series = [a if i % 2 == 0 else a * (1 + delta) for i in range(12)]
        _, err = check_convergence(series, window=5, tol=1e-9)
        recent, older = sum(series[-5:]), sum(series[-10:-5])
        assert np.isclose(err, abs(recent - older) / recent, rtol=1e-12)
        assert np.isclose(err, a * delta / recent, rtol=1e-12)

    def test_insufficient_history_not_converged(self):
        converged, err = check_convergence([1.0] * 9, window=5, tol=1e-3)
        assert not converged and err == float("inf")


class TestRun:
    mat = steel_foam()

    def test_full_target_keeps_full_design(self):
        prob = cantilever(4, 2, cell_n=4)
        sched = Schedule(target_weight_fraction=1.0, max_iterations=60)
        res = run(prob, self.mat, UncertainSet(), sched, r_min_macro=1.5, r_min_micro=0.12)
        assert res.converged
        assert np.all(res.state.x_macro == 1.0) and np.all(res.state.x_micro == 1.0)
        props = homogenize(prob.cell, res.state.x_micro, self.mat, prob.penalty)
        system = factorized_dynamic(prob, res.state, props.d_h, props.rho_h)
        c_full = mean_compliance(prob.force, system.solve(prob.force))
        assert np.isclose(res.history[-1].objective, c_full, rtol=1e-12)

    def test_smoke_run_is_sane(self):
        prob = cantilever(6, 2, cell_n=4)
        sched = Schedule(target_weight_fraction=0.5)
        res = run(prob, self.mat, UncertainSet(), sched, r_min_macro=1.5, r_min_micro=0.12)
        assert res.converged
        objs = [r.objective for r in res.history]
        assert all(np.isfinite(v) for v in objs)
        m0 = reference_mass(prob, self.mat)
        quantum = mass_quantum(prob, res.state, self.mat)
        assert abs(total_mass(prob, res.state, self.mat) - 0.5 * m0) <= quantum
        # discrete variables at every iteration end
        assert set(np.unique(res.state.x_macro)) <= {X_MIN, 1.0}
        assert set(np.unique(res.state.x_micro)) <= {X_MIN, 1.0}

    def test_robust_run_smoke(self):
        prob = cantilever(6, 2, cell_n=4, omega=2 * np.pi * 100.0)
        params = hybrid_params(self.mat, mean_frac=0.05, cov=0.05, sigma_frac=0.05)
        sched = Schedule(target_weight_fraction=0.6, max_iterations=120)
        res = run(prob, self.mat, params, sched, r_min_macro=1.5, r_min_micro=0.12)
        assert res.history[-1].std > 0.0
        assert res.history[-1].objective > res.history[-1].expectation

    def test_neither_stop_builds_the_last_iterations_sensitivities(self, monkeypatch):
        # only the update reads the sensitivities, and both stops leave the loop before it
        calls = []
        robust = rcto.beso.robust_sensitivity
        monkeypatch.setattr(rcto.beso, "robust_sensitivity", lambda *args, **kw: calls.append(1) or robust(*args, **kw))
        prob = cantilever(6, 2, cell_n=4, omega=2 * np.pi * 100.0)
        params = hybrid_params(self.mat, mean_frac=0.05, cov=0.05, sigma_frac=0.05)
        histories = []
        for iterations in (2, 3):
            calls.clear()
            sched = Schedule(target_weight_fraction=0.6, max_iterations=iterations)
            res = run(prob, self.mat, params, sched, r_min_macro=1.5, r_min_micro=0.12)
            assert not res.converged and len(calls) == iterations - 1
            histories.append(res.history)
        assert histories[0] == histories[1][:2]  # the pass a 2-iteration run skips changes nothing it returns
        calls.clear()
        sched = Schedule(target_weight_fraction=1.0, max_iterations=60)
        res = run(cantilever(4, 2, cell_n=4), self.mat, UncertainSet(), sched, r_min_macro=1.5, r_min_micro=0.12)
        assert res.converged and len(calls) == len(res.history) - 1

    def test_schedule_needs_one_iteration(self):
        # the result reports the last evaluated objective, so an empty loop is rejected up front
        with pytest.raises(ValueError, match="max_iterations"):
            Schedule(target_weight_fraction=0.5, max_iterations=0)

    def test_history_snapshots_on_request(self):
        prob = cantilever(4, 2, cell_n=3)
        sched = Schedule(target_weight_fraction=0.8, max_iterations=40)
        res = run(
            prob, self.mat, UncertainSet(), sched,
            r_min_macro=1.5, r_min_micro=0.2, keep_snapshots=True,
        )
        assert len(res.field_snapshots) == len(res.history)
