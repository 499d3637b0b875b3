import cmath
import hashlib
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cflimits import limitset as L
from cflimits import qseries as Q
from cflimits.errors import SeriesNotConvergedError
from cflimits.limitset import UnitModulusNumber as U
from cflimits.sphere import chordal_distance


def test_qparams_requires_contracting_base():
    with pytest.raises(ValueError):
        Q.QParams(1.0)
    with pytest.raises(ValueError):
        Q.QParams(-1.2)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_bad_tolerance_rejected_before_any_term(tol):
    # Each used to run its whole 100000-term budget and then report a
    # series that did not converge.
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        Q.QParams(0.3, tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        Q.qpochhammer(0.5, 0.3, tol=tol)


class TestQPochhammer:
    def test_empty_product(self):
        assert Q.qpochhammer(2.0 + 1j, 0.5, 0) == 1.0

    def test_zero_argument_infinite_product(self):
        assert Q.qpochhammer(0.0, 0.3) == 1.0

    def test_finite_matches_direct_product(self):
        a, q, n = 0.7 - 0.2j, 0.35 + 0.1j, 9
        direct = 1.0
        for k in range(n):
            direct *= 1.0 - a * q**k
        assert Q.qpochhammer(a, q, n) == pytest.approx(direct, abs=1e-15)

    def test_infinite_product_stabilizes(self):
        # (q; q)_inf at q = 0.2: partial products are stable to 1e-12 by
        # k ~ 18 because the tail bound is geometric.
        full = Q.qpochhammer(0.2, 0.2, tol=1e-15)
        partial = Q.qpochhammer(0.2, 0.2, 18)
        assert abs(full - partial) < 1e-12

    @pytest.mark.parametrize("q", [1.0, -1.0, 0.6 + 0.8j, 1.5j, complex(math.nan, 0.0)])
    def test_infinite_product_off_the_open_disc_raises(self, q):
        with pytest.raises(ValueError, match=r"ratio must lie in \[0, 1\), got"):
            Q.qpochhammer(0.5, q)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            Q.qpochhammer(0.5, 0.3, -1)

    def test_budget(self):
        # |q| = 0.9999 needs about 4.4e5 factors before the tail is under 1e-15.
        with pytest.raises(SeriesNotConvergedError, match="q-product did not meet its tail bound"):
            Q.qpochhammer(1.0, 0.9999)

    def test_smallest_subnormal_tol_stops_on_a_zero_tail(self):
        # Twice the tail is compared with tol, and doubling is exact; tol/2 would round
        # 5e-324 to 0, which no tail is under, and spend the budget.
        assert Q.qpochhammer(0.0, 0.5, tol=5e-324) == 1.0
        # Every factor after k = 52 is exactly 1, so the product is the 60-factor one.
        assert Q.qpochhammer(0.5, 0.5, tol=5e-324) == Q.qpochhammer(0.5, 0.5, 60)

    def test_finite_product_takes_any_q(self):
        assert Q.qpochhammer(0.1, 2.0, 3) == pytest.approx(0.9 * 0.8 * 0.6, abs=1e-15)

    @given(
        m=st.integers(min_value=0, max_value=12),
        n=st.integers(min_value=0, max_value=12),
    )
    def test_multiplicativity(self, m, n):
        a, q = 0.4 + 0.3j, 0.45 - 0.2j
        lhs = Q.qpochhammer(a, q, m + n)
        rhs = Q.qpochhammer(a, q, m) * Q.qpochhammer(a * q**m, q, n)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def _hex(z: complex) -> str:
    return z.real.hex() + "," + z.imag.hex()


class TestQPochhammerBits:
    """Products recorded bit for bit, as ``.hex()`` of both parts."""

    @pytest.mark.parametrize("n, bits", [
        (0, "0x1.0000000000000p+0,0x0.0p+0"),
        (1, "0x1.3333333333334p-2,0x1.999999999999ap-3"),
        (5, "0x1.98e10c9004299p-3,0x1.df479da57e82ap-4"),
        (40, "0x1.999f124d0c271p-3,0x1.d8bdf3b105ae4p-4"),
    ])
    def test_finite_products(self, n, bits):
        assert _hex(Q.qpochhammer(0.7 - 0.2j, 0.35 + 0.1j, n)) == bits

    def test_infinite_products_over_a_grid(self):
        # 120 products: complex a, |q| up to 0.99 on both sides of the axis, tol 1e-15 .. 1e-6.
        a_values = [0.5, -0.9 + 0.3j, 2.0 - 1.0j, 0.1j, 1.0]
        q_values = [0.3, -0.6 + 0.2j, 0.99, 0.7j, cmath.rect(0.95, 1.0), -0.99]
        tols = [1e-15, 1e-12, 1e-9, 1e-6]
        bits = ";".join(_hex(Q.qpochhammer(a, q, tol=t)) for a in a_values for q in q_values for t in tols)
        assert hashlib.sha256(bits.encode()).hexdigest() == (
            "22bf29318d9cd210b1276a07ad163d54465d32a738e657b4118fdd5e0560f67b")
        assert _hex(Q.qpochhammer(-0.9 + 0.3j, 0.99, tol=1e-15)) == "-0x1.511cd513e1d09p+109,-0x1.17e4fa2f0817ap+109"


class TestPxy:
    def test_q_zero_single_term(self):
        assert Q.pxy(3.7 - 1j, 0.4, Q.QParams(0.0)) == 1.0

    def test_x_zero_single_term(self):
        assert Q.pxy(0.0, 0.9, Q.QParams(0.3)) == 1.0

    def test_against_brute_force(self):
        params = Q.QParams(0.1, tol=1e-15)
        got = Q.pxy(1.0, 1.0, params)
        total = 0.0
        for n in range(50):
            den = 1.0
            for k in range(1, n + 1):
                den *= (1.0 - 0.1**k) * (1.0 - 0.1**k)
            total += 0.1 ** (n * (n + 1) / 2) / den
        assert got == pytest.approx(total, abs=1e-14)

    def test_truncation_error_below_advertised(self):
        params = Q.QParams(0.4, tol=1e-10)
        sharp = Q.QParams(0.4, tol=1e-16)
        x, y = 2.0 - 1j, 0.8 + 0.4j
        assert abs(Q.pxy(x, y, params) - Q.pxy(x, y, sharp)) < 1e-10

    def test_budget(self):
        # The term ratio |q^(n+1)| / (1 - |q^(n+1)|) stays >= 1/2 until n ~ 1.1e5 at |q| = 0.99999.
        with pytest.raises(SeriesNotConvergedError, match="series P\\(x, y\\) did not meet its tail bound"):
            Q.pxy(1.0, 0.0, Q.QParams(0.99999))

    def test_pole_detected(self):
        from cflimits.errors import PoleInDenominatorError

        with pytest.raises(PoleInDenominatorError):
            Q.pxy(1.0, 1.0 / 0.3, Q.QParams(0.3))  # y q = 1 at n = 1


class TestRamanujanLimitMap:
    def test_cross_oracle_against_direct_map(self):
        # The series-built map must agree with the convergent-recurrence map
        # for p_n = q^n, q_n = 0.
        q = 0.2
        alpha = U.from_angle(math.sqrt(11.0))
        beta = U.from_angle(math.sqrt(13.0))
        series_map = Q.ramanujan_limit_map(q, alpha, beta, tol=1e-14)
        spec = L.geometric_spec(alpha, beta, 1.0, q)
        direct = L.compute_h_direct(spec, 1e-12, 5000)
        pts = [cmath.rect(1.0, 0.31 * t) for t in range(20)]
        worst = max(
            chordal_distance(series_map.apply(z), direct.h.apply(z)) for z in pts
        )
        assert worst < 1e-6

    def test_q_zero_periodic_map(self):
        alpha = U.from_angle(1.1)
        beta = U.from_angle(-0.4)
        got = Q.ramanujan_limit_map(0.0, alpha, beta)
        av, bv = alpha.value, beta.value
        # All four series collapse to 1: the map is (-beta z + alpha)/(z - 1).
        for z in (0.0, 2.0, 1j):
            want = (-bv * z + av) / (z - 1.0)
            assert chordal_distance(got.apply(z), want) < 1e-14

    def test_finite_order_images_match_residue_values(self):
        # lambda of order 3: the map's images of the cube roots of unity
        # are the three residue-class value limits.
        q = 0.3
        alpha, beta = U.root_of_unity(1, 6), U.root_of_unity(5, 6)
        series_map = Q.ramanujan_limit_map(q, alpha, beta, tol=1e-14)
        res = L.q_cf_rank([0, 1.0], [0], alpha, beta, q)
        lam = alpha / beta
        for n in (1, 2, 3):
            predicted = series_map.apply(lam.power(n + 1).value)
            # value limit along class n mod 6 equals the predicted point
            assert chordal_distance(predicted, res.values[n % 6]) < 1e-8


class TestRamanujanClaim:
    @pytest.mark.parametrize("q", [0.1, 0.3])
    @pytest.mark.parametrize("a", [0.0, 0.05])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_residuals(self, q, a, j):
        lhs, rhs, residual = Q.verify_ramanujan_claim(q, a, j, tol=1e-12)
        assert residual < 1e-7

    def test_rhs_invariant_under_index_shift(self):
        for j in range(3):
            base = j + 3
            _, rhs1, _ = Q.verify_ramanujan_claim(0.3, 0.05, j, representative=base)
            _, rhs2, _ = Q.verify_ramanujan_claim(0.3, 0.05, j, representative=base + 3)
            assert chordal_distance(rhs1, rhs2) < 1e-12

    def test_q_zero_three_cycle(self):
        # Periodic fraction 1/1 - 1/1 - ...: the three classes converge to
        # 1, infinity and 0.
        values = {}
        for j in range(3):
            lhs, rhs, residual = Q.verify_ramanujan_claim(0.0, 0.0, j)
            assert residual < 1e-12
            values[j] = lhs
        assert values[0].z == pytest.approx(1.0)
        assert values[1].is_infinity
        assert values[2].z == pytest.approx(0.0)

    def test_wrong_representative_rejected(self):
        with pytest.raises(ValueError):
            Q.verify_ramanujan_claim(0.1, 0.0, 0, representative=4)

    @pytest.mark.parametrize("q", [1.0, -1.0, 0.6 + 0.8j, complex(math.nan, 0.0)])
    def test_q_off_the_open_disc_rejected_before_any_term(self, q, monkeypatch):
        # QParams owns the check, as for rbm_identity and the P(x, y) series.
        monkeypatch.setattr(Q._cf, "limit_along_residue", lambda *args, **kw: pytest.fail("a term was formed"))
        with pytest.raises(ValueError) as info:
            Q.verify_ramanujan_claim(q, 0.0, 0)
        assert str(info.value) == f"|q| must be < 1, got {abs(complex(q))}"

    def test_shift_at_omega_squared_returns_the_scale(self):
        # The float nearest omega^2 with a * omega == 1 exactly makes 1 - a*omega vanish:
        # Omega is infinite there, so the ratio tends to 1 and the right side to the scale.
        omega = U.root_of_unity(1, 3)
        a = complex(-0.4999999999999999, -0.8660254037844388)
        assert 1.0 - a * omega.value == 0
        q, tol = 0.1, 1e-12  # verify_ramanujan_claim's default tol
        scale = -omega.power_value(2) * Q.qpochhammer(q * q, q**3, tol=tol) / Q.qpochhammer(q, q**3, tol=tol)
        for j in range(3):
            lhs, rhs, residual = Q.verify_ramanujan_claim(q, a, j)
            assert rhs.z == scale and residual == chordal_distance(lhs, rhs) < 1e-12


class TestRogersRamanujanTwoLimits:
    def test_q_two_split(self):
        even, odd = Q.rogers_ramanujan_two_limits(2.0, tol=1e-12)
        assert chordal_distance(even, odd) > 0.1

    def test_q_two_matches_slow_subsequences(self):
        # Direct subsequence oracle at fixed large depth.
        even, odd = Q.rogers_ramanujan_two_limits(2.0, tol=1e-13)
        from cflimits import cf as C

        fraction = C.ContinuedFraction(1.0, lambda n: (2.0**n, 1.0))
        stream = C.convergents(fraction)
        values = {}
        for _ in range(120):
            stream.step()
            values[stream.n % 2] = stream.value()
        assert chordal_distance(values[0], even) < 1e-10
        assert chordal_distance(values[1], odd) < 1e-10

    def test_both_classes_read_off_one_stream(self, monkeypatch):
        from cflimits import cf as C

        fraction = C.ContinuedFraction(1.0, lambda n: (2.0**n, 1.0))
        stops = [C.limit_along_residue(fraction, parity, 2, 1e-12, 5_000).n for parity in (0, 1)]
        formed = []
        term = C.ContinuedFraction.term
        monkeypatch.setattr(C.ContinuedFraction, "term", lambda cf, n: formed.append(n) or term(cf, n))
        Q.rogers_ramanujan_two_limits(2.0)
        assert formed == list(range(1, max(stops) + 1))

    def test_q_1_5_determinant_of_transformed_fraction(self):
        # The equivalence-transformed fraction K 1/(q^(-ceil(n/2))) satisfies
        # the two-limit determinant identity with unit product.
        q = 1.5
        spec = L.EllipticCFSpec(
            U.root_of_unity(0, 1),
            U.root_of_unity(1, 2),
            p=lambda n: q ** -((n + 1) // 2),
            q=lambda n: 0.0,
            tail_bound=lambda n: 2.0 * (1 / q) ** ((n + 1) // 2) / (1.0 - 1 / q),
        )
        res = L.residue_limits(spec, 1e-12)
        det = res.A[1] * res.B[0] - res.A[0] * res.B[1]
        assert abs(det - 1.0) < 1e-10

    def test_small_q_rejected(self):
        with pytest.raises(ValueError):
            Q.rogers_ramanujan_two_limits(0.5)
