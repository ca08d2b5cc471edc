"""Divisor-class arithmetic and the slope identities."""

from fractions import Fraction

import pytest

from gitcurves.divisors import (
    DivisorClass,
    DivisorError,
    canonical_alpha_class,
    canonical_class,
    delta,
    epsilon_of_m,
    lam,
    lambda_n,
    moriwaki_class,
    moriwaki_decomposition,
    proportional,
    r,
    viehweg_class,
)


class TestRank:
    def test_values(self):
        assert r(1, 9) == 9
        assert r(2, 9) == 24 == 3 * 9 - 3
        assert r(5, 4) == 27

    def test_guards(self):
        with pytest.raises(DivisorError):
            r(0, 5)


class TestLambdaN:
    def test_n2(self):
        assert lambda_n(2, 8).coefficients() == (13, -1)

    def test_n1_convention(self):
        assert lambda_n(1, 8) == lam(8)

    def test_n3(self):
        assert lambda_n(3, 8).coefficients() == (37, -3)

    @pytest.mark.parametrize("n", [0, -2])
    def test_guards(self, n):
        with pytest.raises(DivisorError, match="^need n >= 1$"):
            lambda_n(n, 10)


class TestViehweg:
    @pytest.mark.parametrize("m", [2, 3, 17, 50])
    @pytest.mark.parametrize("g", [3, 9, 20])
    def test_n2_row(self, m, g):
        v = viehweg_class(2, m, g)
        want = ((m - 1) * (g - 1)) * DivisorClass.total(g, 20 * m - 3, -2 * m)
        assert (v - want).is_zero()

    def test_n2_slope(self):
        v = viehweg_class(2, 9, 13)
        slope = DivisorClass.total(13, Fraction(10) - Fraction(3, 18), -1)
        assert proportional(v, slope)

    def test_large_m_limit_direction(self):
        # slopes approach 10 lambda - delta monotonically from below
        slopes = [
            Fraction(-viehweg_class(2, m, 5).to_split().delta_coefficient(0), 1)
            for m in (2, 3)
        ]
        v2, v3 = (viehweg_class(2, m, 5) for m in (2, 3))
        s2 = -Fraction(v2.lam) / v2.delta_total
        s3 = -Fraction(v3.lam) / v3.delta_total
        assert s2 < s3 < 10

    def test_n1_row(self):
        g, m = 7, 11
        v = viehweg_class(1, m, g)
        want = lam(g) + (m - 1) * DivisorClass.total(
            g, (4 * g + 2) * m - g + 1, Fraction(-g * m, 2)
        )
        assert (v - want).is_zero()
        # asymptotic slope (4g+2) lambda - g/2 delta
        asym = DivisorClass.total(g, 4 * g + 2, Fraction(-g, 2))
        big = viehweg_class(1, 1000, g)
        slope_big = -Fraction(big.lam) / big.delta_total
        slope_asym = -Fraction(asym.lam) / asym.delta_total
        assert abs(slope_big - slope_asym) < Fraction(1, 100)


class TestCanonical:
    def test_k(self):
        assert canonical_class(7).coefficients() == (13, -2)

    def test_seven_tenths_slope(self):
        ka = canonical_alpha_class(Fraction(7, 10), 9)
        assert proportional(ka, DivisorClass.total(9, 10, -1))

    def test_epsilon(self):
        assert epsilon_of_m(10) == Fraction(39, 1970)
        assert epsilon_of_m(1) == Fraction(39, 170)

    def test_epsilon_decreasing_positive(self):
        vals = [epsilon_of_m(m) for m in range(1, 60)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("m", [2, 3, 10, 100])
    def test_epsilon_matches_viehweg_slope(self, m):
        lhs = DivisorClass.total(9, Fraction(10) - Fraction(3, 2 * m), -1)
        rhs = canonical_alpha_class(Fraction(7, 10) - epsilon_of_m(m), 9)
        assert proportional(lhs, rhs)


class TestMoriwaki:
    @pytest.mark.parametrize("g", range(3, 31))
    def test_identity(self, g):
        moriwaki_decomposition(g)  # raises on failure

    @pytest.mark.parametrize("g", range(5, 31))
    def test_positivity(self, g):
        assert all(c > 0 for c in moriwaki_decomposition(g))

    def test_g4_coefficient(self):
        # c_2 = -1 + 4*2*(4-2)/4 = 3
        assert moriwaki_decomposition(4)[-1] == 3

    def test_class_shape(self):
        mc = moriwaki_class(6)
        assert mc.lam == 52
        assert mc.delta_vector == (-6, -20, -32, -36)


class TestRepresentations:
    def test_mixing_errors(self):
        a = lam(6)
        b = moriwaki_class(6)
        with pytest.raises(DivisorError):
            _ = a + b

    def test_conversions(self):
        t = DivisorClass.total(6, 1, 5)
        s = t.to_split()
        assert s.delta_vector == (5, 5, 5, 5)
        assert s.to_total() == t
        with pytest.raises(DivisorError):
            moriwaki_class(6).to_total()

    def test_linearity(self):
        a = DivisorClass.total(8, 3, Fraction(1, 2))
        b = DivisorClass.total(8, -1, 4)
        assert (2 * (a + b) - (2 * a + 2 * b)).is_zero()
        assert (Fraction(1, 3) * (3 * a) - a).is_zero()

    def test_proportional_edge_cases(self):
        z = DivisorClass.total(5, 0, 0)
        assert not proportional(z, lam(5))
        assert proportional(2 * lam(5), lam(5))
        assert not proportional(lam(5), delta(5))
