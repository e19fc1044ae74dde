import cmath
import math

import numpy as np
import pytest

from oracles import hyp2f1_series_reference, mp_hyp2f1, mp_loggamma
from qscat import gauss_2f1, log_gamma, specfun
from qscat.specfun import _hyp2f1_series
from qscat.errors import ConvergenceError, InvalidInputError, PoleError


def _scattering_parameters(rng, q=0.9):
    """Draw (mu, nu, lam) the way the Hulthen amplitude assembly builds them."""
    mass = 1.0
    v0 = rng.uniform(0.2, 2.0)
    a = rng.uniform(0.3, 1.5)
    energy = mass * rng.uniform(1.05, 10.0)
    k = math.sqrt(energy**2 - mass**2)
    p = math.sqrt((energy + v0 / q) ** 2 - mass**2)
    return 1j * k / a, 1j * p / a, 1j * v0 / (a * q)


class TestLogGamma:
    def test_at_one_is_zero(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_at_half(self):
        assert log_gamma(0.5).real == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)
        assert log_gamma(0.5).imag == 0.0

    def test_recurrence(self, rng):
        # exp(lg(z+1) - lg(z)) == z, insensitive to any 2*pi*i ambiguity
        for _ in range(100):
            z = complex(rng.uniform(0.05, 20.0), rng.uniform(-20.0, 20.0))
            lhs = cmath.exp(log_gamma(z + 1) - log_gamma(z))
            assert abs(lhs - z) < 1e-10 * abs(z)

    def test_reflection_identity(self, rng):
        for _ in range(100):
            z = complex(rng.uniform(0.01, 0.99), rng.uniform(0.05, 10.0) * rng.choice([-1, 1]))
            product = cmath.exp(log_gamma(z) + log_gamma(1 - z))
            expected = math.pi / cmath.sin(math.pi * z)
            assert abs(product - expected) < 1e-10 * abs(expected)

    def test_principal_branch_against_mpmath(self, rng):
        # dense coverage of both half-planes including Re z < 0.5
        points = [complex(rng.uniform(-80.0, 80.0), rng.uniform(-80.0, 80.0)) for _ in range(150)]
        points += [0.25, -0.5 + 0j, -2.5 + 0.3j, -2.5 - 0.3j, 1 + 1j, 99.5 + 3j, -99.5 + 0.25j]
        for z in points:
            z = complex(z)
            if z.imag == 0.0 and z.real <= 0 and z.real == math.floor(z.real):
                continue
            ours = log_gamma(z)
            ref = mp_loggamma(z)
            assert abs(ours - ref) <= 1e-12 * max(1.0, abs(ref)), f"mismatch at {z}"

    def test_recurrence_oracle_example(self):
        z = 1 + 1j
        lhs = log_gamma(z + 1)
        rhs = log_gamma(z) + cmath.log(z)
        assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
    def test_poles(self, z):
        with pytest.raises(PoleError):
            log_gamma(z)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            log_gamma(complex("inf"))
        with pytest.raises(InvalidInputError):
            log_gamma(np.array([1.0, np.nan]))

    def test_array_matches_scalar_and_mpmath(self, rng):
        # numpy's complex arithmetic may differ from cmath's in the last bits
        zs = rng.uniform(-80.0, 80.0, 200) + 1j * rng.uniform(-80.0, 80.0, 200)
        zs = np.concatenate([zs, 1j * rng.uniform(-300.0, 300.0, 20), [0.25, -2.5 - 0.3j, 99.5 + 3j]])
        ours = log_gamma(zs)
        assert ours.shape == zs.shape
        for z, value in zip(zs.tolist(), ours.tolist()):
            scalar = log_gamma(z)
            assert abs(value - scalar) <= 1e-13 * max(1.0, abs(scalar)), z
            assert abs(value - mp_loggamma(z)) <= 1e-12 * max(1.0, abs(scalar)), z

    def test_array_poles_are_infinite(self):
        # 1/Gamma vanishes there, which the Hulthen connection formula relies on
        values = log_gamma(np.array([0.0, -3.0, 2.0, -3.0 + 1e-9j]))
        assert values[0] == values[1] == np.inf
        assert np.isfinite(values[2:]).all()


class TestGauss2F1:
    def test_at_zero_is_one(self):
        assert gauss_2f1(0.3 + 2j, -1.1j, 0.7 + 0.2j, 0.0) == 1.0 + 0.0j

    def test_log_identity(self):
        # F(1, 1; 2; z) = -log(1-z)/z
        got = gauss_2f1(1.0, 1.0, 2.0, 0.5)
        assert got.real == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
        assert got.imag == 0.0

    def test_complex_parameters_against_mpmath(self):
        got = gauss_2f1(0.1j, 0.1j, 1.2, 0.9)
        ref = mp_hyp2f1(0.1j, 0.1j, 1.2, 0.9)
        assert abs(got - ref) < 1e-12 * abs(ref)

    def test_hulthen_style_parameters_against_mpmath(self, rng):
        # parameter patterns exactly as the scattering assembly produces them
        for _ in range(15):
            mu, nu, lam = _scattering_parameters(rng)
            for (a, b, c) in [
                (lam + mu - nu, lam + mu + nu, 1 + 2 * mu),
                (lam - mu - nu, lam - mu + nu, 1 - 2 * mu),
                (1 + lam - mu - nu, 1 + lam - mu + nu, 2 - 2 * mu),
            ]:
                got = gauss_2f1(a, b, c, 0.9)
                ref = mp_hyp2f1(a, b, c, 0.9)
                assert abs(got - ref) < 1e-11 * max(1.0, abs(ref))

    def test_parameter_symmetry(self, rng):
        for _ in range(20):
            a = complex(rng.uniform(-2, 2), rng.uniform(-5, 5))
            b = complex(rng.uniform(-2, 2), rng.uniform(-5, 5))
            c = complex(rng.uniform(0.5, 3), rng.uniform(-5, 5))
            z = rng.uniform(0.0, 0.95)
            f_ab = gauss_2f1(a, b, c, z)
            f_ba = gauss_2f1(b, a, c, z)
            assert abs(f_ab - f_ba) <= 1e-13 * max(1.0, abs(f_ab))

    def test_euler_transformation(self, rng):
        # F(a,b;c;z) = (1-z)^(c-a-b) F(c-a, c-b; c; z)
        for _ in range(25):
            a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-3, 3))
            b = complex(rng.uniform(-1.5, 1.5), rng.uniform(-3, 3))
            c = complex(rng.uniform(1.0, 3.0), rng.uniform(-3, 3))
            z = rng.uniform(0.05, 0.9)
            lhs = gauss_2f1(a, b, c, z)
            rhs = (1.0 - z) ** (c - a - b) * gauss_2f1(c - a, c - b, c, z)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_terminating_series(self):
        # negative-integer a terminates: F(-2, b; c; z) is a quadratic in z
        b, c, z = 1.5, 2.5, 0.7
        expected = 1 + (-2 * b / c) * z + ((-2) * (-1) * b * (b + 1) / (c * (c + 1)) / 2) * z**2
        assert gauss_2f1(-2.0, b, c, z).real == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("c", [0.0, -1.0, -5.0])
    def test_c_pole(self, c):
        with pytest.raises(PoleError):
            gauss_2f1(1.0, 1.0, c, 0.5)

    def test_argument_range(self):
        with pytest.raises(InvalidInputError):
            gauss_2f1(1.0, 1.0, 2.0, 1.0)
        with pytest.raises(InvalidInputError):
            gauss_2f1(1.0, 1.0, 2.0, -0.1)

    @pytest.mark.parametrize("a, b, c", [
        (1.0, 1.0, complex("-inf")),
        (math.nan, 1.0, 2.0),
        (1.0, complex(0.0, math.inf), 2.0),
        (1.0, 1.0, complex(2.0, math.nan)),
    ], ids=["c-minus-inf", "a-nan", "b-imag-inf", "c-imag-nan"])
    def test_nonfinite_parameters_rejected(self, a, b, c):
        with pytest.raises(InvalidInputError, match="finite"):
            gauss_2f1(a, b, c, 0.5)

    def test_nonconvergence_reports_last_term(self):
        # at z = 1 - 1e-6 the series needs ~3.5e7 terms, far past the 20000-term cap
        with pytest.raises(ConvergenceError) as exc_info:
            gauss_2f1(0.5, 0.5, 1.5, 0.999999)
        assert exc_info.value.last_term is not None
        assert exc_info.value.last_term > 0


class TestKernelBackends:
    """The numpy block kernel against the term-by-term reference in oracles.py."""

    def test_scalar_and_numpy_paths_agree(self, rng):
        for _ in range(25):
            mu, nu, lam = _scattering_parameters(rng)
            a, b, c = lam - mu - nu, lam - mu + nu, 1 - 2 * mu
            s1 = hyp2f1_series_reference(a, b, c, 0.9, 1e-15, 20000)
            (s2,) = _hyp2f1_series([(a, b, c)], 0.9)
            assert s1[1] == s2[1]  # same number of terms
            assert abs(s1[0] - s2[0]) <= 1e-12 * max(1.0, abs(s1[0]))

    def test_termination_counts_match_on_short_series(self):
        s1 = hyp2f1_series_reference(1 + 0j, 1 + 0j, 2 + 0j, 0.5, 1e-15, 20000)
        (s2,) = _hyp2f1_series([(1 + 0j, 1 + 0j, 2 + 0j)], 0.5)
        assert s1[1] == s2[1]
        assert s1[2] and s2[2]

    def test_stacked_rows_equal_their_one_row_calls(self, rng, monkeypatch):
        # 120 rows cross the lockstep row cap; at 300 terms the longer q = 0.9
        # series fail while the shorter ones converge, so rows leave the
        # active set at different blocks, and some never do
        rows = []
        for _ in range(20):
            mu, nu, lam = _scattering_parameters(rng)
            rows += [
                (1 + lam - mu - nu, 1 + lam - mu + nu, 2 - 2 * mu),
                (lam + mu - nu, lam + mu + nu, 1 + 2 * mu),
                (1 + lam + mu - nu, 1 + lam + mu + nu, 2 + 2 * mu),
                (lam - mu - nu, lam - mu + nu, 1 - 2 * mu),
                (1 - lam - mu - nu, 1 - lam - mu + nu, 2 - 2 * mu),
                (-lam - mu - nu, -lam - mu + nu, 1 - 2 * mu),
            ]
        monkeypatch.setattr(specfun, "_MAX_TERMS", 300)
        stacked = _hyp2f1_series(rows, 0.9)
        converged = [s[2] for s in stacked]
        assert 0 < sum(converged) < len(rows)
        for row, s in zip(rows, stacked):
            assert _hyp2f1_series([row], 0.9) == [s]  # value, terms, flag, last

    def test_unconverged_nan_row_after_an_underflow(self):
        # an underflow leaves errno set; the NaN last term of a row that did not
        # converge must still come back as NaN, not as an OverflowError
        assert np.float64(1e-200) ** 2 == 0.0
        ((value, terms, converged, last),) = _hyp2f1_series([(1, 1 + 6666.666666666667j, 2)], 0.3)
        assert cmath.isnan(value) and math.isnan(last)
        assert (terms, converged) == (20000, False)
