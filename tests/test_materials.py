"""Elasticity matrix factorization and its analytic E/nu derivatives."""

import numpy as np
import pytest

from rcto.materials import (
    _PARTS,
    PARAMETER_NAMES,
    PARAMETERS,
    PHYSICAL_RANGES,
    Phase,
    TwoPhaseMaterial,
    elasticity_matrix,
    phase_coefficients,
)

from conftest import phase_derivatives, steel_foam


def fd_matrix(fun, x, h):
    return (fun(x + h) - fun(x - h)) / (2.0 * h)


@pytest.mark.parametrize("dim", [2, 3])
def test_matrix_is_symmetric_and_positive_definite(dim):
    d = elasticity_matrix(210e3, 0.29, dim)
    assert np.allclose(d, d.T)
    assert np.all(np.linalg.eigvalsh(d) > 0)


def test_plane_stress_reference_values():
    # E/(1-nu^2) * [[1, nu, 0], [nu, 1, 0], [0, 0, (1-nu)/2]]
    e, nu = 100.0, 0.25
    d = elasticity_matrix(e, nu, 2)
    c = e / (1 - nu**2)
    assert np.allclose(d, c * np.array([[1, nu, 0], [nu, 1, 0], [0, 0, (1 - nu) / 2]]))


def test_solid_reference_values():
    e, nu = 100.0, 0.3
    d = elasticity_matrix(e, nu, 3)
    c = e / ((1 + nu) * (1 - 2 * nu))
    assert np.isclose(d[0, 0], c * (1 - nu))
    assert np.isclose(d[0, 1], c * nu)
    assert np.isclose(d[3, 3], c * (1 - 2 * nu) / 2)
    assert np.isclose(d[3, 3], e / (2 * (1 + nu)))  # shear modulus


@pytest.mark.parametrize("dim", [2, 3])
def test_linear_in_youngs_modulus(dim):
    assert np.allclose(elasticity_matrix(3.0, 0.3, dim), 3.0 * elasticity_matrix(1.0, 0.3, dim))
    assert np.allclose(elasticity_matrix(5.0, 0.3, dim, de=1), elasticity_matrix(1.0, 0.3, dim))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("nu", [0.0, 0.25, 0.35])
def test_nu_derivatives_match_finite_differences(dim, nu):
    h = 1e-6
    d1 = elasticity_matrix(1.0, nu, dim, dnu=1)
    fd1 = fd_matrix(lambda x: elasticity_matrix(1.0, x, dim), nu, h)
    assert np.allclose(d1, fd1, rtol=1e-7, atol=1e-7)
    d2 = elasticity_matrix(1.0, nu, dim, dnu=2)
    fd2 = fd_matrix(lambda x: elasticity_matrix(1.0, x, dim, dnu=1), nu, h)
    assert np.allclose(d2, fd2, rtol=1e-6, atol=1e-6)


def test_mixed_e_nu_derivative():
    # d2 D / dE dnu equals the nu-derivative of the unit-modulus matrix
    got = elasticity_matrix(7.0, 0.3, 2, de=1, dnu=1)
    assert np.allclose(got, elasticity_matrix(1.0, 0.3, 2, dnu=1))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("de", [0, 1])
@pytest.mark.parametrize("dnu", [0, 1, 2])
def test_sample_coefficients_match_scalar_matrices(rng, dim, de, dnu):
    # one vectorized call over samples of (E1, nu1) against the scalar matrix of every sample
    e1 = rng.uniform(50.0, 300.0, 7)
    nu1 = rng.uniform(0.0, 0.45, 7)
    wrt = ("e1",) * de + ("nu1",) * dnu
    c = phase_coefficients((e1, 150.0), (nu1, 0.3), dim, wrt)
    assert c.shape == (2, 2, 7)
    if wrt:  # no name acts on phase 2
        assert not np.any(c[1])
    a0, a1 = _PARTS[dim]
    for b in range(e1.size):
        got = c[0, 0, b] * a0 + c[0, 1, b] * a1
        ref = elasticity_matrix(e1[b], nu1[b], dim, de=de, dnu=dnu)
        if de + dnu <= 1:
            assert np.array_equal(got, ref)
        else:
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


def test_unsupported_orders_rejected():
    with pytest.raises(ValueError):
        elasticity_matrix(1.0, 0.3, 2, de=2)
    with pytest.raises(ValueError):
        elasticity_matrix(1.0, 0.3, 4)


class TestTwoPhaseDerivatives:
    mat = steel_foam()

    def test_value_dispatch(self):
        d1, d2 = phase_derivatives(self.mat, 2)
        assert np.allclose(d1, self.mat.phase1.elasticity(2))
        assert np.allclose(d2, self.mat.phase2.elasticity(2))

    def test_modulus_derivative_hits_own_phase_only(self):
        d1, d2 = phase_derivatives(self.mat, 2, ("e1",))
        assert np.allclose(d1, elasticity_matrix(1.0, 0.3, 2))
        assert not np.any(d2)

    def test_density_parameters_do_not_touch_elasticity(self):
        assert not np.any(self.mat.coefficients(2, ("rho1",))[0])
        assert not np.any(self.mat.coefficients(2, ("e1", "rho1"))[0])

    def test_shared_nu_hits_both_phases(self):
        d1, d2 = phase_derivatives(self.mat, 2, ("nu",))
        assert np.any(d1) and np.any(d2)
        assert np.allclose(d1 / self.mat.phase1.youngs, d2 / self.mat.phase2.youngs)

    def test_second_modulus_derivative_vanishes(self):
        assert not np.any(self.mat.coefficients(2, ("e1", "e1"))[0])

    def test_rho_derivatives(self):
        assert self.mat.rho_derivative(1, ("rho1",)) == 1.0
        assert self.mat.rho_derivative(1, ("rho2",)) == 0.0
        assert self.mat.rho_derivative(2, ("rho2",)) == 1.0
        assert self.mat.rho_derivative(1, ("rho1", "rho1")) == 0.0

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            self.mat.coefficients(2, ("shear",))
        with pytest.raises(ValueError):
            self.mat.kernel(2, ("shear",))

    def test_with_values_replaces_fields(self):
        out = self.mat.with_values(("e1", "nu"), (123.0, 0.2))
        assert out.phase1.youngs == 123.0
        assert out.phase1.poisson == 0.2 and out.phase2.poisson == 0.2
        assert out.phase2.youngs == self.mat.phase2.youngs


@pytest.mark.parametrize("name", PARAMETER_NAMES)
def test_parameter_table_round_trip(name):
    # with_values sets exactly the row's field on the row's phases, and only those phases have derivatives
    mat, row = steel_foam(), PARAMETERS[name]
    out = mat.with_values((name,), (0.25,))
    for p in (1, 2):
        acts = p in row.phases
        for field in PHYSICAL_RANGES:
            changed = getattr(out.phase(p), field) != getattr(mat.phase(p), field)
            assert changed == (acts and field == row.field), (p, field)
        for wrt in ((name,), (name, name)):
            stiff = acts and row.field != "density" and not (row.field == "youngs" and len(wrt) == 2)
            assert np.any(mat.coefficients(2, wrt)[p - 1]) == stiff, (p, wrt)
            assert np.any(mat.coefficients(3, wrt)[p - 1]) == stiff, (p, wrt)
        assert (mat.rho_derivative(p, (name,)) != 0.0) == (acts and row.field == "density")
        assert mat.rho_derivative(p, (name, name)) == 0.0


def test_parameter_ranges_are_open():
    for name, row in PARAMETERS.items():
        lo, hi = PHYSICAL_RANGES[row.field]
        inside = np.array([lo + 0.5 * min(hi - lo, 1.0)])
        assert row.admits(inside).all(), name
        assert not row.admits(np.array([lo, hi])).any(), name
    assert PARAMETERS["nu"].admits(0.4999) and not PARAMETERS["nu"].admits(0.5)
