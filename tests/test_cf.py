import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cflimits import cf as C
from cflimits.errors import (
    IndeterminateValueError,
    ZeroPartialNumeratorError,
    ZeroScaleError,
)
from cflimits.sphere import INFINITY, ExtendedComplex, chordal_distance, projective

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def golden_cf():
    return C.ContinuedFraction(1.0, lambda n: (1.0, 1.0))


def cf_43():
    # 4/3 - 1/(4/3) - 1/(4/3) - ... in plus form: partial numerators -1.
    return C.ContinuedFraction(4.0 / 3.0, lambda n: (-1.0, 4.0 / 3.0))


def random_cf(rng, bounded=True):
    terms = {}

    def draw():
        phase = complex(
            math.cos(rng.uniform(0, 2 * math.pi)), math.sin(rng.uniform(0, 2 * math.pi))
        )
        return rng.uniform(0.5, 2.0) * phase

    def gen(n):
        if n not in terms:
            if bounded:
                terms[n] = (draw(), draw())
            else:
                a = complex(rng.gauss(0, 1), rng.gauss(0, 1)) or (1.0 + 0j)
                b = complex(rng.gauss(0, 1), rng.gauss(0, 1))
                terms[n] = (a, b)
        return terms[n]

    return C.ContinuedFraction(0.0, gen)


class TestConvergents:
    def test_golden_ratio_convergents(self):
        stream = C.convergents(golden_cf())
        got = [stream.value().z]
        for _ in range(4):
            stream.step()
            got.append(stream.value().z)
        assert got == [1.0, 2.0, 1.5, 5.0 / 3.0, 8.0 / 5.0]

    def test_43_fraction_matches_orbit_iteration(self):
        # The approximants reproduce the orbit x -> 4/3 - 1/x from 4/3.
        stream = C.convergents(cf_43())
        x = ExtendedComplex(4.0 / 3.0)
        assert stream.value() == x
        for _ in range(200):
            stream.step()
            if x.is_infinity:
                x = ExtendedComplex(4.0 / 3.0)
            elif x.z == 0:
                x = INFINITY
            else:
                x = ExtendedComplex(4.0 / 3.0 - 1.0 / x.z)
            assert chordal_distance(stream.value(), x) < 1e-9

    def test_zero_partial_numerator_rejected(self):
        fraction = C.ContinuedFraction(0.0, lambda n: (0.0 if n == 3 else 1.0, 1.0))
        stream = C.convergents(fraction)
        stream.step()
        stream.step()
        with pytest.raises(ZeroPartialNumeratorError):
            stream.step()

    def test_determinant_identity_random_20(self):
        # Direct product oracle, normalized by the cancellation scale (the
        # raw relative error degrades with |P Q| * eps once convergents grow).
        rng = random.Random(5)
        fraction = random_cf(rng, bounded=True)
        stream = C.convergents(fraction)
        prod = 1.0 + 0j
        for n in range(1, 21):
            a, _ = fraction.term(n)
            stream.step()
            prod *= a
            lhs = stream.num * stream.den_prev
            rhs = stream.num_prev * stream.den
            want = (prod if n % 2 == 1 else -prod) * math.ldexp(1.0, -2 * stream.exponent)
            scale = max(abs(lhs), abs(rhs), abs(want))
            assert abs((lhs - rhs) - want) <= 1e-12 * scale

    def test_determinant_residual_over_long_run(self):
        rng = random.Random(17)
        stream = C.convergents(random_cf(rng, bounded=True))
        for _ in range(10_000):
            stream.step()
            assert stream.determinant_residual() < 1e-10


class TestValue:
    def test_infinity_when_denominator_vanishes(self):
        stream = C.convergents(C.ContinuedFraction(1.0, lambda n: (-1.0, 1.0)))
        stream.step()  # P_1 = 0, Q_1 = 1 -> value 0
        stream.step()  # Q_2 = 0 -> infinity
        assert stream.value().is_infinity

    def test_plain_ratio(self):
        stream = C.convergents(C.ContinuedFraction(2.0, lambda n: (1.0, 1.0)))
        assert stream.value().z == 2.0

    def test_projective_rescaling_invariance(self):
        # Same fraction advanced under wildly different renormalization
        # thresholds yields identical values.
        rng = random.Random(23)
        fraction = random_cf(rng, bounded=False)
        s1 = C.convergents(fraction, renorm_threshold=1e10)
        s2 = C.convergents(fraction, renorm_threshold=1e300)
        for _ in range(300):
            s1.step()
            s2.step()
            assert chordal_distance(s1.value(), s2.value()) < 1e-12

    def test_indeterminate_pair(self):
        with pytest.raises(IndeterminateValueError):
            projective(0.0, 0.0)


class TestEvaluate:
    def test_golden_limit(self):
        result = C.evaluate(golden_cf(), 1e-12, 500)
        assert result.converged
        assert abs(result.value.z - GOLDEN) < 1e-10

    def test_dense_orbit_does_not_converge(self):
        result = C.evaluate(cf_43(), 1e-6, 3000)
        assert not result.converged

    def test_stern_stolz_split_limits(self):
        fraction = C.ContinuedFraction(0.0, lambda n: (1.0, 2.0**-n))
        assert not C.evaluate(fraction, 1e-8, 4000).converged
        even = C.limit_along_residue(fraction, 0, 2, 1e-11, 4000)
        odd = C.limit_along_residue(fraction, 1, 2, 1e-11, 4000)
        assert even.converged and odd.converged
        assert chordal_distance(even.value, odd.value) > 0.1

    def test_terminating_policy(self):
        fraction = C.ContinuedFraction(5.0, lambda n: (0.0 if n == 1 else 1.0, 1.0))
        result = C.evaluate(fraction, 1e-10, 100, on_zero_numerator="terminate")
        assert result.converged
        assert result.value.z == 5.0


class TestModifiedValue:
    def test_zero_modification_equals_plain(self):
        fraction = golden_cf()
        stream = C.convergents(fraction)
        for _ in range(50):
            stream.step()
            assert stream.modified(0.0) == stream.value()
        plain = C.evaluate(fraction, 1e-12, 500)
        modified = C.modified_value(fraction, lambda n: 0.0, 1e-12, 500)
        assert chordal_distance(plain.value, modified.value) == 0.0

    def test_infinite_modification_uses_previous_pair(self):
        stream = C.convergents(golden_cf())
        stream.step()
        stream.step()
        assert stream.modified(INFINITY).z == 2.0  # P_1/Q_1

    def test_constant_modification_shifts_periodic_fraction(self):
        # For the periodic fraction with fixed point w, modifying with w
        # gives the exact value at every depth.
        w = (math.sqrt(5.0) - 1.0) / 2.0  # fixes w = 1/(1+w)
        result = C.modified_value(
            C.ContinuedFraction(0.0, lambda n: (1.0, 1.0)), lambda n: w, 1e-14, 50, window=4
        )
        assert result.converged
        assert abs(result.value.z - w) < 1e-14


class TestEquivalenceTransform:
    def test_unit_scale_is_identity(self):
        fraction = golden_cf()
        scaled = C.equivalence_transform(fraction, lambda n: 1.0)
        for n in range(1, 20):
            assert scaled.term(n) == fraction.term(n)

    def test_rogers_ramanujan_normal_form(self):
        # 1 + q/1 + q^2/1 + ... rescaled to unit partial numerators has
        # denominators 1/q, 1/q, 1/q^2, 1/q^2, ...
        q = 2.0
        rr = C.ContinuedFraction(1.0, lambda n: (q**n, 1.0))
        scaled = C.equivalence_transform(rr, lambda n: q ** -((n + 1) // 2))
        for n in range(1, 12):
            a, b = scaled.term(n)
            assert abs(a - 1.0) < 1e-12
            assert abs(b - q ** -((n + 1) // 2)) < 1e-14

    def test_every_approximant_preserved(self):
        rng = random.Random(31)
        fraction = random_cf(rng, bounded=False)
        scales = {n: complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0)) for n in range(1, 31)}
        scaled = C.equivalence_transform(fraction, lambda n: scales[n])
        s1 = C.convergents(fraction)
        s2 = C.convergents(scaled)
        for _ in range(30):
            s1.step()
            s2.step()
            assert chordal_distance(s1.value(), s2.value()) < 1e-12

    def test_zero_scale_rejected(self):
        scaled = C.equivalence_transform(golden_cf(), lambda n: 0.0 if n == 2 else 1.0)
        stream = C.convergents(scaled)
        stream.step()
        with pytest.raises(ZeroScaleError):
            stream.step()


@given(st.integers(min_value=0, max_value=60))
def test_modified_with_zero_agrees_at_every_depth(n_steps):
    stream = C.convergents(C.ContinuedFraction(0.5j, lambda n: (1.0 + 0.5j / n, 1.0 - 1j / n)))
    for _ in range(n_steps):
        stream.step()
    if n_steps:
        assert stream.modified(0.0) == stream.value()
