import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

import mpref
from cflimits import limitset as L
from cflimits import recur as R
from cflimits.errors import RootsNotDistinctError, RootsNotUnitModulusError
from cflimits.limitset import UnitModulusNumber as U

SQRT5 = math.sqrt(5.0)


def geometric_tail(weight, ratio):
    return lambda n: weight * ratio ** (n + 1) / (1.0 - ratio)


class TestCharacteristicRoots:
    def test_43_polynomial(self):
        roots = sorted(R.characteristic_roots([-1.0, 4.0 / 3.0]), key=lambda z: z.imag)
        assert roots[0] == pytest.approx(complex(2 / 3, -SQRT5 / 3), abs=1e-12)
        assert roots[1] == pytest.approx(complex(2 / 3, SQRT5 / 3), abs=1e-12)

    def test_pm_one(self):
        roots = sorted(R.characteristic_roots([1.0, 0.0]), key=lambda z: z.real)
        assert roots[0] == pytest.approx(-1.0, abs=1e-12)
        assert roots[1] == pytest.approx(1.0, abs=1e-12)

    def test_cube_roots_of_unity(self):
        roots = R.characteristic_roots([1.0, 0.0, 0.0])
        got = sorted(cmath.phase(r) % (2 * math.pi) for r in roots)
        want = sorted((0.0, 2 * math.pi / 3, 4 * math.pi / 3))
        assert got == pytest.approx(want, abs=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="need at least one coefficient"):
            R.characteristic_roots([])


class TestBuildValidation:
    def test_non_unit_roots_rejected(self):
        with pytest.raises(RootsNotUnitModulusError):
            R.PoincareRecurrence.build(lambda n: (2.0,), (2.0,))

    def test_repeated_roots_rejected(self):
        # t^2 - 2t + 1 = (t - 1)^2
        with pytest.raises(RootsNotDistinctError):
            R.PoincareRecurrence.build(lambda n: (-1.0, 2.0), (-1.0, 2.0))

    def test_supplied_roots_checked_against_polynomial(self):
        with pytest.raises(ValueError):
            R.PoincareRecurrence.build(
                lambda n: (-1.0, 4.0 / 3.0),
                (-1.0, 4.0 / 3.0),
                roots=(U.root_of_unity(1, 3), U.root_of_unity(2, 3)),
            )

    def test_one_root_per_coefficient(self):
        with pytest.raises(ValueError, match="expected one root per coefficient"):
            R.PoincareRecurrence.build(lambda n: (1.0, 0.0), (1.0, 0.0), roots=(U.root_of_unity(0, 1),))

    @pytest.mark.parametrize("initial", [(1.0,), (1.0, 0.5, 0.25)])
    def test_iterate_needs_one_initial_value_per_order(self, initial):
        rec = R.PoincareRecurrence.build(lambda n: (1.0, 0.0), (1.0, 0.0))
        with pytest.raises(ValueError, match="need 2 initial values"):
            rec.iterate(initial, 5)


def cf32_recurrence(tail_ratio=0.0, tail_coeff=0.0):
    def coefficients(n):
        return (-1.0 + tail_coeff * tail_ratio**n, 4.0 / 3.0)

    tail = geometric_tail(abs(tail_coeff), tail_ratio) if tail_ratio else (lambda n: 0.0)
    return R.PoincareRecurrence.build(coefficients, (-1.0, 4.0 / 3.0), tail_bound=tail)


class TestAsymptoticCoefficients:
    def test_constant_coefficients_solve_vandermonde_exactly(self):
        rec = cf32_recurrence()
        init = (0.0, -1.0)
        result = R.asymptotic_coefficients(rec, init, 1e-12)
        roots = rec.root_values()
        vander = np.array([[r**k for r in roots] for k in range(2)], dtype=complex)
        want = np.linalg.solve(vander, np.array(init, dtype=complex))
        assert abs(result.c[0] - want[0]) < 1e-12
        assert abs(result.c[1] - want[1]) < 1e-12
        assert result.residual < 1e-10

    def test_cf32_numerators_reproduce_map_coefficient(self):
        # With P_{-1} = 1, P_0 = 0 the numerator solution is
        # u alpha^n + v beta^n with u = 1/(beta - alpha); the fraction
        # module's first map coefficient is alpha^{-1} u (alpha - beta).
        rec = cf32_recurrence()
        result = R.asymptotic_coefficients(rec, (0.0, -1.0), 1e-12)
        alpha = complex(2 / 3, SQRT5 / 3)
        beta = alpha.conjugate()
        c_by_root = dict()
        for root, coeff in zip(rec.root_values(), result.c):
            c_by_root[complex(round(root.real, 6), round(root.imag, 6))] = coeff
        c_alpha = c_by_root[complex(round(alpha.real, 6), round(alpha.imag, 6))]
        # a = c_alpha (alpha - beta) / alpha, and a = -beta here.
        assert c_alpha * (alpha - beta) / alpha == pytest.approx(-beta, abs=1e-8)

    def test_geometric_perturbation_residual(self):
        rec = cf32_recurrence(tail_ratio=1.0 / 3.0, tail_coeff=1.0)
        result = R.asymptotic_coefficients(rec, (1.0, 0.5), 1e-12)
        xs = rec.iterate((1.0, 0.5), 401)
        worst = 0.0
        for n in range(200, 401):
            approx = sum(
                result.c[i] * rec.roots[i].power(n).value for i in range(rec.order)
            )
            worst = max(worst, abs(xs[n] - approx))
        assert worst < 1e-6

    def test_linearity_in_initial_conditions(self):
        rec = cf32_recurrence(tail_ratio=0.4, tail_coeff=0.5)
        c1 = np.array(R.asymptotic_coefficients(rec, (1.0, 0.0), 1e-12).c)
        c2 = np.array(R.asymptotic_coefficients(rec, (0.0, 1.0), 1e-12).c)
        mixed = np.array(R.asymptotic_coefficients(rec, (2.0, -3.0j), 1e-12).c)
        assert np.max(np.abs(2.0 * c1 - 3.0j * c2 - mixed)) < 1e-9

    def test_residual_does_not_grow_with_window(self):
        rec = cf32_recurrence(tail_ratio=0.5, tail_coeff=0.3)
        result = R.asymptotic_coefficients(rec, (1.0, 1.0), 1e-12)
        xs = rec.iterate((1.0, 1.0), 1601)

        def sup_residual(n0, n1):
            worst = 0.0
            for n in range(n0, n1 + 1):
                approx = sum(
                    result.c[i] * rec.roots[i].power(n).value for i in range(rec.order)
                )
                worst = max(worst, abs(xs[n] - approx))
            return worst

        early = sup_residual(200, 400)
        late = sup_residual(800, 1600)
        assert late <= early + 1e-12


class TestResidueLimitsRecurrence:
    def test_period_two_unperturbed(self):
        rec = R.PoincareRecurrence.build(
            lambda n: (1.0, 0.0),
            (1.0, 0.0),
            roots=(U.root_of_unity(0, 1), U.root_of_unity(1, 2)),
            tail_bound=lambda n: 0.0,
        )
        res = R.residue_limits_recurrence(rec, (3.0, -2.0), 1e-12)
        assert res.m == 2
        assert res.l[0] == pytest.approx(3.0)
        assert res.l[1] == pytest.approx(-2.0)

    def test_perturbed_period_two(self):
        rec = R.PoincareRecurrence.build(
            lambda n: (1.0 + 2.0**-n, 0.0),
            (1.0, 0.0),
            roots=(U.root_of_unity(0, 1), U.root_of_unity(1, 2)),
            tail_bound=geometric_tail(1.0, 0.5),
        )
        res = R.residue_limits_recurrence(rec, (1.0, 1.5), 1e-11)
        assert res.limit_recurrence_residual < 1e-8
        one, half = mpref.mp.mpf(1), mpref.mp.mpf(0.5)
        l = mpref.recurrence_residues(lambda n: (one + half**n, 0), (1.0, 1.5), 2, 0.5)
        assert mpref.max_abs_diff(res.l, l) <= 1e-11

    @pytest.mark.parametrize(
        "roots, perturbations",
        [
            ((Fraction(1, 6), Fraction(-1, 6)), ((0.5, 0.4), (0.0, 0.0))),
            ((Fraction(1, 3), Fraction(2, 3)), ((0.0, 0.0), (1.0, 0.5))),
            ((Fraction(4, 9), Fraction(7, 10)), ((0.3 - 0.1j, 0.4), (0.2j, 0.5))),
        ],
        ids=["m6", "m3", "4/9,7/10"],
    )
    def test_matches_40_digit_reference(self, roots, perturbations):
        # x_{n+2} = (alpha + beta + e1 r1^n) x_{n+1} + (-alpha beta + e0 r0^n) x_n
        alpha, beta = (U(t) for t in roots)
        limits = (-(alpha * beta).value, alpha.value + beta.value)
        (e0, r0), (e1, r1) = perturbations
        rec = R.PoincareRecurrence.build(
            lambda n: (limits[0] + e0 * r0**n, limits[1] + e1 * r1**n),
            limits,
            roots=(alpha, beta),
            tail_bound=lambda n: abs(e0) * r0 ** (n + 1) / (1.0 - r0) + abs(e1) * r1 ** (n + 1) / (1.0 - r1),
        )
        res = R.residue_limits_recurrence(rec, (1.0, 0.5 - 0.25j), 1e-11)
        mp = mpref.mp

        def rows(n):
            return tuple(mp.mpc(v) + mp.mpc(e) * mp.mpf(r) ** n for v, (e, r) in zip(limits, perturbations))

        l = mpref.recurrence_residues(rows, (1.0, 0.5 - 0.25j), res.m, max(r0, r1))
        assert res.m == math.lcm(*(t.denominator for t in roots))
        assert mpref.max_abs_diff(res.l, l) <= 1e-11

    def test_cube_root_spectrum_three_limits(self):
        # roots e^{+-2 pi i/3}: t^2 + t + 1, so a_1 = -1, a_0 = -1.
        rec = R.PoincareRecurrence.build(
            lambda n: (-1.0 + 2.0**-n, -1.0),
            (-1.0, -1.0),
            roots=(U.root_of_unity(1, 3), U.root_of_unity(2, 3)),
            tail_bound=geometric_tail(1.0, 0.5),
        )
        res = R.residue_limits_recurrence(rec, (1.0, 2.0), 1e-11)
        assert res.m == 3
        assert len(res.l) == 3
        assert res.limit_recurrence_residual < 1e-8
        xs = rec.iterate((1.0, 2.0), 3 * 40 + 3)
        for j in range(3):
            assert abs(xs[3 * 39 + j] - res.l[j]) < 1e-8

    @pytest.mark.parametrize("initial", [(1.0,), (1.0, 0.5, 0.25)])
    def test_wrong_number_of_initial_values_rejected_first(self, initial):
        rows = []
        rec = R.PoincareRecurrence.build(
            lambda n: rows.append(n) or (1.0 + 2.0**-n, 0.0),
            (1.0, 0.0),
            roots=(U.root_of_unity(0, 1), U.root_of_unity(1, 2)),
        )
        with pytest.raises(ValueError, match="need 2 initial values"):
            R.residue_limits_recurrence(rec, initial)
        assert rows == []


class TestPerronDiagnostic:
    def test_unit_root_power_sequence(self):
        # x_{n+1} = alpha x_n with |alpha| = 1: |x_n|^(1/n) = 1 exactly.
        alpha = cmath.rect(1.0, 1.0)
        got = R.perron_limsup_diagnostic(lambda n: (alpha,), (1.0,), 2000)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_cf32_numerators(self):
        got = R.perron_limsup_diagnostic(
            lambda n: (-1.0, 4.0 / 3.0), (0.0, -1.0), 10_000
        )
        assert abs(got - 1.0) < 0.01

    def test_geometric_growth(self):
        got = R.perron_limsup_diagnostic(lambda n: (2.0,), (1.0,), 400)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_growth_past_the_renormalization_threshold(self):
        # 3^1000 ~ 1e477 is out of double range; the rescaled state is not.
        got = R.perron_limsup_diagnostic(lambda n: (3.0,), (1.0,), 1000)
        assert got == pytest.approx(3.0, abs=1e-12)

    def test_iterate_decays_past_the_renormalization_threshold_exactly(self):
        # Power-of-two rescaling is exact: x_n = 2^-n to the last bit, far below 1/RENORM_THRESHOLD.
        rec = R.PoincareRecurrence.build(lambda n: (0.5,), (1.0,))
        xs = rec.iterate((1.0,), 1000)
        assert all(x == 2.0**-n for n, x in enumerate(xs))
