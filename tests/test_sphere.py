import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpmath import mp

from cflimits.errors import DegenerateMapError, DegenerateTripleError, IndeterminateValueError
from cflimits.sphere import (
    INFINITY,
    INVERT_ABOVE,
    Circle,
    ExtendedComplex,
    Line,
    MobiusMap,
    chordal,
    chordal_distance,
    mobius_through,
    projective,
    quotient,
    sqrt_with_positive_branch,
)

# Coefficients of the worked-example map, as published.
H4 = MobiusMap(
    0.581867 + 0.408182j,
    -0.670885 - 0.294104j,
    0.518727 + 0.00637067j,
    -0.565036 - 0.228462j,
)
# The unperturbed 4/3 case: line-type limit set.
H43 = MobiusMap(complex(-2 / 3, math.sqrt(5) / 3), complex(2 / 3, math.sqrt(5) / 3), 1.0, -1.0)

finite_complex = st.complex_numbers(
    allow_nan=False, allow_infinity=False, max_magnitude=1e6
)
sphere_points = st.one_of(finite_complex.map(ExtendedComplex), st.just(INFINITY))


class TestExtendedComplex:
    def test_infinity_is_unique_state(self):
        assert INFINITY.is_infinity
        assert ExtendedComplex() == INFINITY
        with pytest.raises(ValueError):
            ExtendedComplex(complex(math.inf, 0.0))
        with pytest.raises(ValueError):
            ExtendedComplex(complex(0.0, math.nan))

    def test_finite_round_trip(self):
        z = ExtendedComplex(3 - 4j)
        assert z.z == 3 - 4j
        assert not z.is_infinity

    def test_infinity_has_no_finite_value(self):
        with pytest.raises(ValueError, match="no finite value"):
            INFINITY.z
        assert repr(INFINITY) == "ExtendedComplex(inf)" and repr(ExtendedComplex(2.0)) == "ExtendedComplex((2+0j))"
        assert ExtendedComplex(2.0) != "2"  # not comparable, so unequal


class TestChordalDistance:
    def test_antipodal(self):
        assert chordal_distance(0.0, INFINITY) == 2.0

    def test_identity_of_indiscernibles(self):
        assert chordal_distance(1.5 - 2j, 1.5 - 2j) == 0.0

    def test_one_and_i(self):
        assert chordal_distance(1.0, 1j) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_huge_values_do_not_overflow(self):
        d = chordal_distance(complex(1e200, 0), complex(-1e200, 0))
        assert 0.0 <= d <= 2.0
        assert chordal_distance(complex(1e300, 0), INFINITY) < 1e-299

    def test_huge_against_tiny(self):
        # inverting both would only swap them; the distance is that of 0 and infinity
        assert chordal_distance(1e200, 1e-300) == 2.0
        assert chordal_distance(1e-160j, -3e170) == 2.0

    @given(x=sphere_points, y=sphere_points, z=sphere_points)
    def test_triangle_inequality(self, x, y, z):
        dxz = chordal_distance(x, z)
        dxy = chordal_distance(x, y)
        dyz = chordal_distance(y, z)
        assert dxz <= dxy + dyz + 1e-12

    def test_triangle_inequality_bulk_random(self):
        import random

        rng = random.Random(2024)

        def point():
            if rng.random() < 0.05:
                return INFINITY
            return ExtendedComplex(complex(rng.uniform(-50, 50), rng.uniform(-50, 50)))

        for _ in range(1000):
            x, y, z = point(), point(), point()
            assert chordal_distance(x, z) <= (
                chordal_distance(x, y) + chordal_distance(y, z) + 1e-12
            )


def _reference_chordal(x, y) -> float:
    """The chordal metric at 50 digits; None is infinity."""
    with mp.workdps(50):
        if x is None or y is None:
            other = y if x is None else x
            return 0.0 if other is None else float(2 / mp.sqrt(1 + abs(mp.mpc(other)) ** 2))
        x, y = mp.mpc(x), mp.mpc(y)
        return float(2 * abs(x - y) / mp.sqrt((1 + abs(x) ** 2) * (1 + abs(y) ** 2)))


def _extended(z):
    return INFINITY if z is None else ExtendedComplex(z)


class TestRawPoints:
    """``quotient`` and ``chordal`` are the bodies of ``projective`` and ``chordal_distance``."""

    POINTS = [
        None, 0j, 1 + 1j, -0.5j, 3e150 + 0j, -2e200j, 1e300 + 1e300j,
        1e-160 + 0j, 5e-324j, complex(INVERT_ABOVE, 0.0), complex(0.0, 2 * INVERT_ABOVE),
    ]

    @pytest.mark.parametrize("x", POINTS)
    def test_chordal_matches_chordal_distance(self, x):
        for y in self.POINTS:
            d = chordal(x, y)
            assert d.hex() == chordal_distance(_extended(x), _extended(y)).hex() == chordal(y, x).hex()
            assert d == pytest.approx(_reference_chordal(x, y), rel=4e-16, abs=1e-300), (x, y)

    def test_zero_infinity_and_tiny_against_huge(self):
        assert chordal(0j, None) == chordal(None, 0j) == 2.0
        assert chordal(None, None) == chordal(0j, 0j) == 0.0
        assert chordal(1e-160j, -3e170 + 0j) == chordal(1e-300 + 0j, 1e200 + 0j) == 2.0
        assert chordal(2e150 + 0j, None) == pytest.approx(1e-150)

    @pytest.mark.parametrize(
        "num, den, want",
        [
            (0j, 2 + 1j, 0j),
            (3 + 4j, 1 - 2j, (3 + 4j) / (1 - 2j)),
            (1 + 0j, 0j, None),
            (3e150 + 0j, 1 + 0j, 3e150 + 0j),
            (1e300 + 0j, 1e-300 + 0j, None),  # overflows: the point at infinity
            (complex(1e308, 1e308), 0.5 + 0.5j, None),
        ],
    )
    def test_quotient_matches_projective(self, num, den, want):
        z = quotient(num, den)
        point = projective(num, den)
        if want is None:
            assert z is None and point.is_infinity
        else:
            assert (z.real.hex(), z.imag.hex()) == (want.real.hex(), want.imag.hex())
            assert (point.z.real.hex(), point.z.imag.hex()) == (z.real.hex(), z.imag.hex())

    def test_zero_over_zero_still_raises(self):
        with pytest.raises(IndeterminateValueError):
            quotient(0j, 0j)
        with pytest.raises(IndeterminateValueError):
            projective(0j, -0.0 + 0j)


class TestMobiusApply:
    def test_identity(self):
        assert MobiusMap.identity().apply(7 + 2j) == ExtendedComplex(7 + 2j)

    def test_worked_example_at_one(self):
        # Published value of the worked-example map at z = 1.
        got = H4.apply(1.0)
        assert got.z == pytest.approx(-0.412160 - 0.486753j, abs=5e-6)

    def test_pole_maps_to_infinity(self):
        h = MobiusMap(1.0, 0.0, 1.0, -1.0)
        assert h.apply(1.0).is_infinity

    def test_infinity_maps_to_a_over_c(self):
        assert H43.apply(INFINITY).z == pytest.approx(complex(-2 / 3, math.sqrt(5) / 3))
        affine = MobiusMap(2.0, 1.0, 0.0, 1.0)
        assert affine.apply(INFINITY).is_infinity

    def test_degenerate_rejected_at_construction(self):
        with pytest.raises(DegenerateMapError):
            MobiusMap(1.0, 2.0, 2.0, 4.0)
        with pytest.raises(DegenerateMapError):
            MobiusMap(0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan), math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_non_finite_coefficient_rejected_at_construction(self, slot, bad):
        # max() over |a|..|d| skips a NaN that is not first: a NaN b once built a map sending 0.5 to infinity.
        coeffs = [1.0, 0.0, 0.0, 1.0]
        coeffs[slot] = bad
        with pytest.raises(DegenerateMapError):
            MobiusMap(*coeffs)

    def test_zero_scale_rejected(self):
        with pytest.raises(DegenerateMapError, match="zero scale"):
            H4.scaled(0)

    @given(
        t=finite_complex.filter(lambda v: abs(v) > 1e-3),
        z=st.one_of(finite_complex, st.just(None)),
    )
    def test_projective_scaling_invariance(self, t, z):
        point = INFINITY if z is None else ExtendedComplex(z)
        assert chordal_distance(H4.scaled(t).apply(point), H4.apply(point)) < 1e-9


class TestCompose:
    def test_identity_composition(self):
        h = H4
        composed = MobiusMap.identity().compose(h)
        for z in (0.0, 1.0, 2 - 1j):
            assert chordal_distance(composed.apply(z), h.apply(z)) < 1e-15

    def test_inverse_composition_is_scalar_identity(self):
        product = H4.compose(H4.inverse())
        # Off-diagonal entries vanish and the diagonal entries agree.
        scale = abs(product.a)
        assert abs(product.b) < 1e-14 * scale
        assert abs(product.c) < 1e-14 * scale
        assert abs(product.a - product.d) < 1e-14 * scale

    def test_pointwise_composition_oracle(self):
        import random

        rng = random.Random(7)
        for _ in range(10):
            g = MobiusMap(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)))
            h = MobiusMap(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)))
            gh = g.compose(h)
            for _ in range(10):
                z = complex(rng.gauss(0, 2), rng.gauss(0, 2))
                assert chordal_distance(gh.apply(z), g.apply(h.apply(z))) < 1e-12


def _circumcircle(z1: complex, z2: complex, z3: complex) -> tuple[complex, float]:
    d = 2.0 * (
        z1.real * (z2.imag - z3.imag)
        + z2.real * (z3.imag - z1.imag)
        + z3.real * (z1.imag - z2.imag)
    )
    sq1, sq2, sq3 = abs(z1) ** 2, abs(z2) ** 2, abs(z3) ** 2
    ux = (sq1 * (z2.imag - z3.imag) + sq2 * (z3.imag - z1.imag) + sq3 * (z1.imag - z2.imag)) / d
    uy = (sq1 * (z3.real - z2.real) + sq2 * (z1.real - z3.real) + sq3 * (z2.real - z1.real)) / d
    center = complex(ux, uy)
    return center, abs(z1 - center)


class TestImageOfUnitCircle:
    def test_identity_gives_unit_circle(self):
        image = MobiusMap.identity().image_of_unit_circle()
        assert isinstance(image, Circle)
        assert image.center == 0
        assert image.radius == pytest.approx(1.0)

    def test_line_case_is_real_axis(self):
        image = H43.image_of_unit_circle()
        assert isinstance(image, Line)
        assert abs(image.point.imag) < 1e-12
        assert abs(image.direction.imag) < 1e-12

    def test_distance_to_infinity(self):
        # A line passes through infinity on the sphere; a circle in the plane does not.
        assert H43.image_of_unit_circle().distance_to(INFINITY) == 0.0
        assert H4.image_of_unit_circle().distance_to(INFINITY) == math.inf

    def test_circle_matches_three_point_circumcircle(self):
        image = H4.image_of_unit_circle()
        assert isinstance(image, Circle)
        pts = [H4.apply(z).z for z in (1.0, -1.0, 1j)]
        center, radius = _circumcircle(*pts)
        assert abs(image.center - center) < 1e-9
        assert image.radius == pytest.approx(radius, abs=1e-9)

    def test_images_of_circle_points_lie_on_report(self):
        import random

        rng = random.Random(11)
        for h in (H4, H43):
            image = h.image_of_unit_circle()
            for _ in range(100):
                theta = rng.uniform(0.0, 2.0 * math.pi)
                w = h.apply(cmath.rect(1.0, theta))
                assert image.distance_to(w) < 1e-9


class TestNormalization:
    def test_canonical_form(self):
        n = H4.scaled(3.7 - 1.1j).normalized()
        mags = [abs(n.a), abs(n.b), abs(n.c), abs(n.d)]
        assert max(mags) == pytest.approx(1.0, abs=1e-12)
        lead = next(v for v in (n.a, n.b, n.c, n.d) if abs(v) > 1e-14)
        assert lead.imag == pytest.approx(0.0, abs=1e-12)
        assert lead.real > 0

    def test_normalization_is_projective_invariant(self):
        a = H4.scaled(2.5j).normalized()
        b = H4.scaled(-0.3 + 0.9j).normalized()
        for x, y in ((a.a, b.a), (a.b, b.b), (a.c, b.c), (a.d, b.d)):
            assert abs(x - y) < 1e-12


class TestMobiusThrough:
    def test_finite_triple(self):
        h = mobius_through(2.0, -1j, 5.0)
        assert h.apply(INFINITY).z == pytest.approx(2.0)
        assert h.apply(0.0).z == pytest.approx(-1j)
        assert h.apply(1.0).z == pytest.approx(5.0)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_infinite_target(self, slot):
        targets = [ExtendedComplex(2.0), ExtendedComplex(-1j), ExtendedComplex(5.0)]
        targets[slot] = INFINITY
        h = mobius_through(*targets)
        for z, want in zip((INFINITY, 0.0, 1.0), targets):
            assert chordal_distance(h.apply(z), want) < 1e-12

    def test_degenerate_triple(self):
        with pytest.raises(DegenerateTripleError):
            mobius_through(1.0, 1.0, 2.0)

    def test_distinct_but_too_close_targets(self):
        # Pairwise distinct, but the map through them has a determinant below DET_RTOL.
        with pytest.raises(DegenerateTripleError, match="targets too close"):
            mobius_through(1.0, 1.0 + 1e-14, 1.0 + 2e-14)


class TestSquareRootBranch:
    @pytest.mark.parametrize(
        "w, root", [(4.0, 2.0), (-4.0, 2j), (complex(-4.0, -0.0), 2j), (-2j, 1 - 1j), (2j, 1 + 1j)]
    )
    def test_nonnegative_real_part_ties_to_nonnegative_imaginary(self, w, root):
        # The principal root of -4 - 0i is -2i; the branch flips it.
        assert sqrt_with_positive_branch(w) == pytest.approx(root, abs=1e-15)
