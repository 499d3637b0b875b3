import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cflimits import cf as C
from cflimits.errors import (
    IndeterminateValueError,
    InvalidFactorError,
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
        fraction = random_cf(rng, bounded=True)
        stream, product = C.convergents(fraction), NumeratorProduct()
        for n in range(1, 10_001):
            stream.step()
            product.times(fraction.term(n)[0])
            assert determinant_residual(stream, product) < 1e-10

    def test_unscaled_undoes_the_exponent(self):
        # Power-of-two rescaling is exact, so a stream that renormalized
        # unscales to the pairs of the plain recurrence, which reaches 1e167.
        stream = C.convergents(golden_cf())
        num_prev, num, den_prev, den = 1.0 + 0j, 1.0 + 0j, 0j, 1.0 + 0j
        for _ in range(800):
            stream.step()
            num_prev, num = num, num + num_prev
            den_prev, den = den, den + den_prev
        assert stream.exponent > 0
        assert stream.unscaled() == (num, num_prev, den, den_prev)


class NumeratorProduct:
    """Running prod a_k with its own power-of-two exponent, kept beside a stream."""

    def __init__(self):
        self.value, self.exponent = 1.0 + 0.0j, 0

    def times(self, a: complex) -> None:
        self.value *= a
        k = C.renorm_exponent(abs(self.value), C.RENORM_THRESHOLD)
        if k:
            self.value *= math.ldexp(1.0, -k)
            self.exponent += k


def determinant_residual(stream, product: NumeratorProduct) -> float:
    """|P_n Q_{n-1} - P_{n-1} Q_n - (-1)^(n-1) prod a_k| over the cancellation scale.

    Compared at the stream's stored scale; when the product dwarfs what
    that scale can represent, in the product's scale instead.
    """
    lhs = stream.num * stream.den_prev
    rhs = stream.num_prev * stream.den
    det = lhs - rhs
    target = product.value if stream.n % 2 == 1 else -product.value
    shift = product.exponent - 2 * stream.exponent
    try:
        aligned = complex(math.ldexp(target.real, shift), math.ldexp(target.imag, shift))
    except OverflowError:
        aligned = complex(math.inf, 0.0)
    if not (math.isfinite(aligned.real) and math.isfinite(aligned.imag)):
        det_aligned = complex(math.ldexp(det.real, -shift), math.ldexp(det.imag, -shift))
        return abs(det_aligned - target) / abs(target)
    scale = max(abs(lhs), abs(rhs), abs(aligned))
    if scale == 0.0:
        return math.inf
    return abs(det - aligned) / scale


def hex_pair(z):
    return (z.real.hex(), z.imag.hex())


class TestRenormalizationBits:
    """Streams driven through renormalizations, pinned bit for bit.

    Golden: |P_n| passes 1e150 near n = 740, so the pairs are scaled down
    while prod a_k = 1 never is.  Shrinking: P_n, Q_n and prod a_k all
    fall under 1e-150 and are scaled up, repeatedly.  The product is kept
    beside the stream, which carries only its pairs.
    """

    RECORDED = {
        "golden": (
            lambda: C.ContinuedFraction(1.0, lambda n: (1.0, 1.0)), 800, 499, 0,
            (("0x1.89ba08049c232p+56", "0x0.0p+0"), ("0x1.e6ac464194b62p+55", "0x0.0p+0"),
             ("0x1.e6ac464194b62p+55", "0x0.0p+0"), ("0x1.2cc7c9c7a3903p+55", "0x0.0p+0")),
            "0x0.0p+0",
        ),
        "shrinking": (
            lambda: C.ContinuedFraction(0.5j, lambda n: (1e-4 * (1 + 1j), 0.01 - 0.003j)),
            120, -501, -1496,
            (("-0x1.0d5ded6f351e6p-209", "-0x1.c0cceaac58b00p-209"),
             ("-0x1.bfab556682abcp-208", "0x1.04b809833da22p-208"),
             ("-0x1.2dbcc6a4b6b8ep-203", "-0x1.7e044bb6c7d46p-203"),
             ("-0x1.7dffee296b71ep-202", "0x1.25a040397b57fp-202")),
            "0x1.0a19a506e532ap-54",
        ),
    }

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_matches_recorded_bits(self, name):
        make, steps, exponent, a_prod_exp, pairs, residual = self.RECORDED[name]
        fraction = make()
        stream, product = C.convergents(fraction), NumeratorProduct()
        for n in range(1, steps + 1):
            stream.step()
            product.times(fraction.term(n)[0])
        assert (stream.exponent, product.exponent) == (exponent, a_prod_exp)
        stored = (stream.num, stream.den, stream.num_prev, stream.den_prev)
        assert tuple(hex_pair(z) for z in stored) == pairs
        assert determinant_residual(stream, product).hex() == residual

    def test_precomputed_term_matches_generated_one(self):
        fraction = self.RECORDED["shrinking"][0]()
        s1, s2 = C.convergents(fraction), C.convergents(fraction)
        for n in range(1, 121):
            s1.step()
            s2.step(fraction.term(n))
        assert s1.exponent == s2.exponent
        assert [hex_pair(z) for z in (s1.num, s1.den, s1.num_prev, s1.den_prev)] == [
            hex_pair(z) for z in (s2.num, s2.den, s2.num_prev, s2.den_prev)
        ]


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
        # The stream's values equal those of a recurrence that rescales its
        # pairs into [1/2, 1) after every step.
        rng = random.Random(23)
        fraction = random_cf(rng, bounded=False)
        stream = C.convergents(fraction)
        num_prev, num, den_prev, den = 1.0 + 0j, 0j, 0j, 1.0 + 0j
        for n in range(1, 301):
            stream.step()
            a, b = fraction.term(n)
            num_prev, num = num, b * num + a * num_prev
            den_prev, den = den, b * den + a * den_prev
            s = math.ldexp(1.0, -math.frexp(max(abs(num), abs(den), abs(num_prev), abs(den_prev)))[1])
            num, den, num_prev, den_prev = num * s, den * s, num_prev * s, den_prev * s
            assert chordal_distance(stream.value(), projective(num, den)) < 1e-12

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

    @pytest.mark.parametrize("modulus", [0, -2])
    def test_residue_modulus_must_be_positive(self, modulus):
        def never_called(n):
            raise AssertionError("no term may be formed")

        fraction = C.ContinuedFraction(0.0, never_called)
        with pytest.raises(ValueError, match="modulus must be at least 1"):
            C.limit_along_residue(fraction, 0, modulus, 1e-10, 100)

    def test_terminating_policy(self):
        fraction = C.ContinuedFraction(5.0, lambda n: (0.0 if n == 1 else 1.0, 1.0))
        result = C.evaluate(fraction, 1e-10, 100)
        assert result.converged
        assert result.value.z == 5.0

    @pytest.mark.parametrize("bad", [
        (1.0, {5: (math.nan, 1.0)}), (1.0, {5: (1.0, math.nan)}), (1.0, {5: (1.0, math.inf)}),
        (1.0, {5: (1.0, 1e308)}),
        # Finite terms: Q_5 = 5e-300 * 1e308 - 3e-300 * 1e308 = 2e8 beside P_5 = inf - inf, and
        # P_5 = 1e8 beside Q_5 = inf - inf, which max() over the magnitudes once skipped.
        (1.0, {1: (1.0, 1e-300), 2: (1e-300, 1.0), 5: (-1e308, 1e308)}),
        (0.0, {1: (1e-300, 1.0), 5: (-1e308, 1e308)}),
    ])
    def test_non_finite_convergent_raises_at_its_index(self, bad):
        # A NaN b_5, and the finite terms of the last case, once gave converged=True with the value infinity.
        b0, terms = bad
        fraction = C.ContinuedFraction(b0, lambda n: terms.get(n, (1.0, 1.0)))
        with pytest.raises(InvalidFactorError, match="P_5/Q_5 is not finite") as info:
            C.evaluate(fraction, 1e-12, 1000)
        assert info.value.n == 5

    def test_zero_numerator_truncates_at_the_previous_approximant(self):
        fraction = C.ContinuedFraction(0.0, lambda n: (0.0 if n == 7 else 1.0, 1.0))
        stream = C.convergents(fraction)
        for _ in range(6):
            stream.step()
        result = C.evaluate(fraction, 1e-12, 100)
        assert result.converged and result.n == 6
        assert result.value == stream.value()


def ramanujan_three_limit_cf(q):
    # 1/1 - 1/(1 + q) - 1/(1 + q^2) - ...: one limit per class of n mod 3.
    return C.ContinuedFraction(0.0, lambda k: (1.0, 1.0) if k == 1 else (-1.0, 1.0 + q ** (k - 1)))


class TestLimitAlongResidue:
    CLASSES = [(0, None), (1, None), (2, lambda n: 0.25), (4, lambda n: -(0.5**n))]

    # The classes settle at n = 65 .. 67: a budget of 66 leaves some unsettled.
    @pytest.mark.parametrize("max_n", [30, 66, 500])
    def test_shared_stream_matches_separate_runs(self, max_n, monkeypatch):
        fraction = ramanujan_three_limit_cf(0.5)
        separate = [C.limit_along_residue(fraction, r, 3, 1e-12, max_n, w) for r, w in self.CLASSES]
        formed = []
        term = C.ContinuedFraction.term
        monkeypatch.setattr(C.ContinuedFraction, "term", lambda cf, n: formed.append(n) or term(cf, n))
        classes = [(r % 3, 3, w) for r, w in self.CLASSES]
        shared = C._subsequence_limits(fraction, classes, 1e-12, C.RESIDUE_WINDOW, max_n)
        assert shared == separate
        assert formed == list(range(1, min(max_n, max(r.n for r in shared)) + 1))
        assert [r.converged for r in shared] == {30: [False] * 4, 66: [True, False, True, False]}.get(
            max_n, [True] * 4
        )

    def test_zero_numerator_truncates_unmodified_classes_only(self):
        fraction = C.ContinuedFraction(0.0, lambda n: (0.0 if n == 8 else 1.0, 1.0))
        stream = C.convergents(fraction)
        for _ in range(7):
            stream.step()
        for residue in range(3):
            result = C.limit_along_residue(fraction, residue, 3, 1e-12, 100)
            assert (result.converged, result.value, result.n) == (True, stream.value(), 7)
        with pytest.raises(ZeroPartialNumeratorError) as info:
            C.limit_along_residue(fraction, 1, 3, 1e-12, 100, w=lambda n: 0.5)
        assert info.value.n == 8


class TestModifiedValue:
    def test_zero_modification_equals_plain(self):
        fraction = golden_cf()
        plain = C.evaluate(fraction, 1e-12, 500)
        modified = C.modified_value(fraction, lambda n: 0.0, 1e-12, 500)
        assert (modified.n, modified.last_delta) == (plain.n, plain.last_delta)
        assert chordal_distance(plain.value, modified.value) == 0.0

    def test_infinite_modification_uses_previous_pair(self):
        # Window 1 with a tol above the chordal diameter stops on the second sample, n = 2.
        (first,) = C._subsequence_limits(golden_cf(), [(1, 1, lambda n: INFINITY)], 3.0, 1, 2)
        assert (first.n, first.value.z) == (2, 2.0)  # P_1/Q_1
        # So the whole sequence is the plain one, one step late.
        plain = C.evaluate(golden_cf(), 1e-12, 500)
        late = C.modified_value(golden_cf(), lambda n: INFINITY, 1e-12, 500)
        assert (late.n, late.value, late.last_delta) == (plain.n + 1, plain.value, plain.last_delta)

    def test_constant_modification_shifts_periodic_fraction(self):
        # For the periodic fraction with fixed point w, modifying with w
        # gives the exact value at every depth.
        w = (math.sqrt(5.0) - 1.0) / 2.0  # fixes w = 1/(1+w)
        result = C.modified_value(
            C.ContinuedFraction(0.0, lambda n: (1.0, 1.0)), lambda n: w, 1e-14, 50
        )
        assert result.converged
        assert abs(result.value.z - w) < 1e-14

    # The fixed point settles at n = 17, the plain and infinite modifications
    # near n = 35; a budget of 25 leaves two of them unsettled.
    @pytest.mark.parametrize("max_n", [25, 500])
    def test_shared_stream_matches_separate_runs(self, max_n):
        fixed = (math.sqrt(5.0) - 1.0) / 2.0
        modifiers = [lambda n: 0.0, lambda n: fixed, lambda n: INFINITY, lambda n: 0.5 ** n]
        fraction = C.ContinuedFraction(0.0, lambda n: (1.0, 1.0))
        shared = C.modified_values(fraction, modifiers, 1e-14, max_n)
        separate = [C.modified_value(fraction, w, 1e-14, max_n) for w in modifiers]
        assert shared == separate
        assert [r.converged for r in shared] == ([False, True, False, False] if max_n == 25 else [True] * 4)

    @pytest.mark.parametrize("w", [complex(math.nan, 0.0), complex(0.0, math.inf), math.inf])
    def test_non_finite_modifier_raises(self, w):
        with pytest.raises(ValueError, match="non-finite"):
            C.modified_value(golden_cf(), lambda n: 0.5 if n < 5 else w, 1e-12, 100)

    def test_shared_stream_raises_at_the_zero_numerator(self):
        fraction = C.ContinuedFraction(0.0, lambda n: (0.0 if n == 7 else 1.0, 1.0))
        with pytest.raises(ZeroPartialNumeratorError) as info:
            C.modified_values(fraction, [lambda n: 0.0, lambda n: 1.0], 1e-12, 100)
        assert info.value.n == 7


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


@given(st.integers(min_value=1, max_value=60))
def test_modified_with_zero_agrees_at_every_depth(n_steps):
    # Window 1 with a tol above the chordal diameter: both stop on their
    # second sample, n_steps, with the (modified) approximant there.
    fraction = C.ContinuedFraction(0.5j, lambda n: (1.0 + 0.5j / n, 1.0 - 1j / n))
    plain, modified = C._subsequence_limits(
        fraction, [(n_steps - 1, 1, None), (n_steps - 1, 1, lambda n: 0.0)], 3.0, 1, n_steps
    )
    assert modified.n == plain.n == n_steps
    assert modified.value == plain.value


class Untouchable:
    """A coefficient that fails the test if a term or a tail is formed from it."""

    def __mul__(self, other):
        raise AssertionError("a term was formed")

    __rmul__ = __mul__

    def __abs__(self):
        raise AssertionError("a tail was formed")


def hexes(values):
    return [(v.real.hex(), v.imag.hex()) if isinstance(v, complex) else v.hex() for v in values]


class TestSequenceConstructors:
    NS = (0, 1, 2, 50, 10**4)

    # Values at NS of the hand-built pairs these constructors replace:
    # ``cli._sequence`` for "geometric" and "poly-qn" and ``geometric_spec``'s p.
    RECORDED = {
        "geometric-complex": (
            (0.4 + 0.1j, 0.5),
            [("0x1.999999999999ap-2", "0x1.999999999999ap-4"), ("0x1.999999999999ap-3", "0x1.999999999999ap-5"),
             ("0x1.999999999999ap-4", "0x1.999999999999ap-6"), ("0x1.999999999999ap-52", "0x1.999999999999ap-54"),
             ("0x0.0p+0", "0x0.0p+0")],
            ["0x1.a634bd77fe1a5p-2", "0x1.a634bd77fe1a5p-3", "0x1.a634bd77fe1a5p-4", "0x1.a634bd77fe1a5p-52",
             "0x0.0p+0"],
        ),
        "geometric-slow": (
            (-0.3j, 0.95),
            [("0x0.0p+0", "-0x1.3333333333333p-2"), ("0x0.0p+0", "-0x1.23d70a3d70a3dp-2"),
             ("0x0.0p+0", "-0x1.153f7ced91687p-2"), ("0x0.0p+0", "-0x1.7a332f6e2d1cdp-6"),
             ("0x0.0p+0", "-0x1.31f6e29d25cddp-742")],
            ["0x1.6ccccccccccc7p+2", "0x1.5a8f5c28f5c23p+2", "0x1.493b645a1cabap+2", "0x1.c11cc852d591cp-2",
             "0x1.6b552d1a9ce40p-738"],
        ),
        "geometric-real": (
            (1.0, 0.3),
            ["0x1.0000000000000p+0", "0x1.3333333333333p-2", "0x1.70a3d70a3d70ap-4", "0x1.1c638154c9cf4p-87",
             "0x0.0p+0"],
            ["0x1.b6db6db6db6dcp-2", "0x1.0750750750751p-3", "0x1.3bfa2608c6f2dp-5", "0x1.e786024835634p-89",
             "0x0.0p+0"],
        ),
    }
    POLY_RECORDED = (
        ([0j, 0.5 + 0j, 0.25j, -0.125 + 0j], 0.3 + 0.2j),
        [("0x1.8000000000000p-2", "0x1.0000000000000p-2"), ("0x1.f020c49ba5e35p-4", "0x1.b53f7ced91687p-4"),
         ("0x1.6c9d9d3458cd1p-6", "0x1.d3ff25e56cd6cp-5"), ("-0x1.25c48c429e7bfp-76", "-0x1.33fec37c6d4e3p-75"),
         ("0x0.0p+0", "0x0.0p+0")],
        ["0x1.f937242c9ea36p-2", "0x1.6c50e590b89b1p-3", "0x1.06b64602b8e45p-4", "0x1.50b4946474003p-75",
         "0x0.0p+0"],
    )

    @pytest.mark.parametrize("case", sorted(RECORDED))
    def test_geometric_matches_recorded_and_replaced_expressions(self, case):
        (coeff, ratio), values, tails = self.RECORDED[case]
        gen, tail = C.geometric_sequence(coeff, ratio)
        assert hexes(gen(n) for n in self.NS) == values
        assert hexes(tail(n) for n in self.NS) == tails
        assert hexes(gen(n) for n in self.NS) == hexes(coeff * ratio**n for n in self.NS)
        replaced = C.geometric_tail(abs(coeff), ratio)
        assert hexes(tail(n) for n in self.NS) == hexes(replaced(n) for n in self.NS)

    def test_poly_qn_matches_recorded_and_replaced_expressions(self):
        (coeffs, q), values, tails = self.POLY_RECORDED
        gen, tail = C.poly_qn_sequence(coeffs, q)
        assert hexes(gen(n) for n in self.NS) == values
        assert hexes(tail(n) for n in self.NS) == tails
        replaced = [sum(c * q ** (n * j) for j, c in enumerate(coeffs) if j > 0) for n in self.NS]
        assert hexes(gen(n) for n in self.NS) == hexes(replaced)
        weight = sum(abs(c) for c in coeffs[1:])
        assert hexes(tail(n) for n in self.NS) == hexes(C.geometric_tail(weight, abs(q))(n) for n in self.NS)

    def test_zero_is_geometric_with_zero_coefficient_and_ratio(self):
        gen, tail = C.geometric_sequence(0.0, 0.0)
        # The "zero" descriptor was (lambda n: 0.0), (lambda n: 0.0).
        assert hexes(gen(n) for n in self.NS) == [(0.0).hex()] * len(self.NS)
        assert hexes(tail(n) for n in self.NS) == [(0.0).hex()] * len(self.NS)

    @pytest.mark.parametrize("ratio", [1.0, -0.1, 1.5, math.nan, math.inf])
    def test_bad_ratio_raises_before_any_term(self, ratio):
        with pytest.raises(ValueError, match="ratio must lie in"):
            C.geometric_sequence(Untouchable(), ratio)

    @pytest.mark.parametrize("ratio", [1.0, -0.1, 1.5, math.nan, math.inf])
    def test_geometric_tail_checks_the_ratio_before_the_coefficient(self, ratio):
        with pytest.raises(ValueError, match=r"ratio must lie in \[0, 1\), got"):
            C.geometric_tail(Untouchable(), ratio)

    def test_geometric_tail_weighs_the_modulus_of_the_coefficient(self):
        assert hexes(C.geometric_tail(-3.0 + 4.0j, 0.5)(n) for n in self.NS) == hexes(
            C.geometric_tail(5.0, 0.5)(n) for n in self.NS)

    @pytest.mark.parametrize("q", [1.0, -1.0, 0.6 + 0.8j, 2j, complex(math.nan, 0.0)])
    def test_q_off_the_open_disc_raises_before_any_term(self, q):
        with pytest.raises(ValueError, match=r"\|q\| must be < 1"):
            C.poly_qn_sequence([0.0, Untouchable()], q)

    @pytest.mark.parametrize("c0", [1.0, 1e-300j, -0.5])
    def test_nonzero_constant_term_raises_before_any_term(self, c0):
        with pytest.raises(ValueError, match="constant term must be zero"):
            C.poly_qn_sequence([c0, Untouchable()], 0.3)
