import cmath
import math
import random
from fractions import Fraction

import pytest

import mpref
from cflimits import cf as C
from cflimits import limitset as L
from cflimits.errors import (
    EqualAlphaBetaError,
    InvalidFactorError,
    NoConvergenceError,
    NotEllipticError,
    QEqualsAlphaBetaError,
)
from cflimits.sphere import Circle, Line, chordal_distance
from cflimits.limitset import UnitModulusNumber as U

SQRT5 = math.sqrt(5.0)

# Published constants of the worked example G(0.3, 0.2, ...).
H_INF = 1.13121 + 0.772998j
H_ZERO = 1.20138 + 0.0347473j
H_ONE = -0.412160 - 0.486753j
CONC_HIGH = 1.16911 + 0.374194j
CONC_LOW = 1.60256 - 4.18725j

SAMPLE_POINTS = [cmath.rect(1.0, 0.37 * k) for k in range(20)] + [0.0, 2.0, -3.0 + 1j]


def maps_agree(h1, h2, tol, points=SAMPLE_POINTS):
    return max(chordal_distance(h1.apply(z), h2.apply(z)) for z in points) < tol


class TestUnitModulusNumber:
    def test_root_reduction(self):
        u = U.root_of_unity(10, 12)
        assert u.turns == Fraction(5, 6)
        assert u.order() == 6

    def test_power_is_exact(self):
        u = U.root_of_unity(1, 7)
        assert u.power(7).value == 1.0 + 0.0j
        assert u.power(-3).turns == Fraction(4, 7)

    def test_quotient_with_shared_residual_is_exact(self):
        a = U(Fraction(0), math.sqrt(11))
        b = U(Fraction(1, 17), math.sqrt(11))
        lam = a / b
        assert lam.is_exact_root
        assert lam.order() == 17

    def test_integer_turns_read_as_a_fraction(self):
        u = U(3, 0.5)
        assert u.turns == Fraction(0) and isinstance(u.turns, Fraction)

    @pytest.mark.parametrize("residual", [math.nan, math.inf, -math.inf])
    def test_non_finite_residual_rejected(self, residual):
        with pytest.raises(ValueError, match="non-finite residual angle"):
            U(Fraction(1, 3), residual)

    def test_zero_order_root_rejected(self):
        with pytest.raises(ZeroDivisionError, match="zero order"):
            U.root_of_unity(1, 0)


def same_bits(z, w):
    return (z.real.hex(), z.imag.hex()) == (w.real.hex(), w.imag.hex())


class TestPowerValue:
    EXPONENTS = (0, 1, -1, 2, -2, 10**6, -(10**6))

    @staticmethod
    def exponents(rng, count=40):
        return list(TestPowerValue.EXPONENTS) + [rng.randint(-(10**6), 10**6) for _ in range(count)]

    @pytest.mark.parametrize("den", [1, 2, 3, 4, 6, 7, 12, 17, 360, 997, 65536, 10**6 + 3])
    def test_roots_of_unity(self, den):
        rng = random.Random(den)
        for num in {0, 1, den - 1, rng.randrange(-3 * den, 3 * den), rng.randrange(den)}:
            u = U.root_of_unity(num, den)
            for n in self.exponents(rng):
                assert same_bits(u.power_value(n), u.power(n).value), (num, den, n)

    def test_numeric_angles(self):
        rng = random.Random(3)
        angles = [math.sqrt(11), -math.sqrt(13), math.pi, -math.pi, 1e-300, 5e-324, 1e3]
        angles += [rng.uniform(-10.0, 10.0) for _ in range(30)]
        for theta in angles:
            u = U.from_angle(theta)
            for n in self.exponents(rng, 10):
                assert same_bits(u.power_value(n), u.power(n).value), (theta, n)

    def test_mixed_turns_and_residual(self):
        rng = random.Random(4)
        for _ in range(300):
            den = rng.randint(1, 10**6 + 3)
            u = U(Fraction(rng.randrange(-den, 2 * den), den), rng.uniform(-4.0, 4.0))
            for n in self.exponents(rng, 5):
                assert same_bits(u.power_value(n), u.power(n).value), (u, n)

    @pytest.mark.parametrize("turns", [Fraction(0), Fraction(1, 3), Fraction(-5, 7)])
    def test_negative_zero_residual(self, turns):
        u = U(turns, -0.0)
        for n in self.EXPONENTS:
            assert same_bits(u.power_value(n), u.power(n).value), (turns, n)


class TestPowerCycles:
    """``power_cycles`` reads every power of an exact root off one table, bit for bit."""

    @staticmethod
    def check(m: int, nums) -> None:
        for num in nums:
            u = U.root_of_unity(num, m)
            (cycle,) = L.power_cycles([u], m)
            assert len(cycle) == m
            for n in range(2 * m + 1):
                assert same_bits(cycle[n % m], u.power_value(n)), (num, m, n)

    def test_every_root_of_order_up_to_64(self):
        # Reduced fractions have orders dividing den, so this also covers
        # tables longer than the root's own order.
        for den in range(1, 65):
            self.check(den, range(den))

    @pytest.mark.parametrize("m", [960, 997])
    def test_large_orders(self, m):
        self.check(m, sorted({0, 1, 2, m // 2, m - 1, *range(3, m, 41)}))

    def test_one_table_for_several_orders(self):
        roots = [U.root_of_unity(1, 12), U.root_of_unity(7, 10), U.root_of_unity(0, 1)]
        for u, cycle in zip(roots, L.power_cycles(roots, 60)):
            assert all(same_bits(cycle[n], u.power_value(n)) for n in range(60))

    @pytest.mark.parametrize(
        "u", [U.from_angle(0.3), U(Fraction(1, 5), 1e-3), U(Fraction(1, 5), -1e-300), U.root_of_unity(1, 7)],
        ids=["numeric-angle", "root-plus-residual", "tiny-residual", "order-not-dividing"],
    )
    def test_refuses_what_the_table_cannot_hold(self, u):
        with pytest.raises(ValueError, match="exact roots of unity of order dividing 5"):
            L.power_cycles([U.root_of_unity(2, 5), u], 5)

    def test_numeric_angle_residue_limits_raise_before_any_term(self):
        def never_called(n):
            raise AssertionError("term formed")

        spec = L.EllipticCFSpec(U(Fraction(1, 5), 0.25), U(Fraction(0), 0.25), never_called, never_called)
        with pytest.raises(ValueError, match="exact roots"):
            L.residue_limits(spec)


class TestOrderOfLambda:
    def test_exact_roots(self):
        # quotient of e^(2 pi i/6) and e^(2 pi i 5/6) has order 3
        assert L.order_of_lambda(U.root_of_unity(1, 6), U.root_of_unity(5, 6)).m == 3

    def test_numeric_is_infinite(self):
        order = L.order_of_lambda(U.from_angle(math.sqrt(11)), U.from_angle(math.sqrt(13)))
        assert order.m is None
        assert not order.suspicious

    def test_near_rational_flagged(self):
        almost = 2.0 * math.pi / 7.0 + 1e-14
        order = L.order_of_lambda(U.from_angle(almost), U.root_of_unity(0, 1))
        assert order.m is None
        assert order.suspicious

    def test_half_turn(self):
        assert L.order_of_lambda(U.root_of_unity(1, 2), U.root_of_unity(0, 1)).m == 2

    def test_equal_rejected(self):
        with pytest.raises(EqualAlphaBetaError):
            L.order_of_lambda(U.root_of_unity(0, 1), U.root_of_unity(0, 1))


#: One point written two ways: a quarter turn and the numeric angle pi/2 (the same double).
QUARTER, HALF_PI = U(Fraction(1, 4)), U.from_angle(math.pi / 2)


class TestEqualAlphaBeta:
    """alpha != beta is one test, on the points' values, wherever it is made."""

    def test_the_two_writings_are_one_point(self):
        assert QUARTER.value == HALF_PI.value
        assert (QUARTER / HALF_PI).turns != 0  # so no test on the quotient's parts can see it

    def test_spec_rejects_the_pair(self):
        with pytest.raises(EqualAlphaBetaError):
            L.EllipticCFSpec(QUARTER, HALF_PI, lambda n: 0.0, lambda n: 0.0)

    def test_order_of_lambda_rejects_the_pair(self):
        with pytest.raises(EqualAlphaBetaError):
            L.order_of_lambda(QUARTER, HALF_PI)

    def test_tail_omega_rejects_the_pair(self):
        # It once returned infinity here.
        with pytest.raises(EqualAlphaBetaError):
            L.tail_omega(QUARTER, HALF_PI, 3)


class TestBuildCF:
    def test_constant_43_terms(self, constant_spec):
        fraction = L.build_cf(constant_spec)
        for n in (1, 2, 17):
            a, b = fraction.term(n)
            assert a == pytest.approx(-1.0)
            assert b == pytest.approx(4.0 / 3.0)

    def test_worked_example_terms(self, worked_spec):
        fraction = L.build_cf(worked_spec)
        ab = (worked_spec.alpha * worked_spec.beta).value
        absum = worked_spec.alpha.value + worked_spec.beta.value
        for n in (1, 3):
            a, b = fraction.term(n)
            assert a == pytest.approx(-ab + 0.2**n)
            assert b == pytest.approx(absum + 0.3**n)

    def test_q_hitting_product_rejected(self):
        spec = L.EllipticCFSpec(
            U.root_of_unity(1, 6),
            U.root_of_unity(5, 6),
            p=lambda n: 0.0,
            q=lambda n: 1.0 if n == 1 else 0.0,  # alpha*beta = 1 exactly
        )
        fraction = L.build_cf(spec)
        with pytest.raises(QEqualsAlphaBetaError):
            fraction.term(1)


class TestTailOmega:
    def test_zero_at_zero(self):
        assert L.tail_omega(U.from_angle(1.0), U.from_angle(2.0), 0) == 0.0

    def test_infinite_at_one(self):
        assert L.tail_omega(U.from_angle(1.0), U.from_angle(2.0), 1).is_infinity

    def test_quarter_turn_pair(self):
        # alpha = i, beta = -i: numerator alpha^2 - beta^2 = 0
        value = L.tail_omega(U.root_of_unity(1, 4), U.root_of_unity(3, 4), 2)
        assert value == 0.0

    @pytest.mark.parametrize(
        "alpha,beta",
        [
            (U.from_angle(math.sqrt(11)), U.from_angle(math.sqrt(13))),
            (U.root_of_unity(1, 6), U.root_of_unity(5, 6)),
            (U.from_angle(0.31), U.from_angle(-1.7)),
        ],
    )
    def test_backward_tail_recursion(self, alpha, beta):
        # As tails of the unperturbed fraction the values satisfy
        # w_n = -alpha*beta / (alpha + beta + w_{n+1}) exactly on the sphere.
        ab = (alpha * beta).value
        absum = alpha.value + beta.value
        for n in range(-3, 10):
            w_n = L.tail_omega(alpha, beta, n)
            w_next = L.tail_omega(alpha, beta, n + 1)
            if w_next.is_infinity:
                assert w_n == 0.0
                continue
            den = absum + w_next.z
            if den == 0:
                assert w_n.is_infinity
            else:
                assert chordal_distance(w_n, -ab / den) < 1e-12


class TestComputeHDirect:
    def test_constant_case_printed_coefficients(self, constant_spec):
        direct = L.compute_h_direct(constant_spec, 1e-13, 1000)
        h = direct.h
        # Exact published quadruple, up to nothing: the limits are literal.
        assert h.a == pytest.approx(complex(-2 / 3, SQRT5 / 3), abs=1e-12)
        assert h.b == pytest.approx(complex(2 / 3, SQRT5 / 3), abs=1e-12)
        assert h.c == pytest.approx(1.0, abs=1e-12)
        assert h.d == pytest.approx(-1.0, abs=1e-12)

    def test_constant_case_determinant(self, constant_spec):
        direct = L.compute_h_direct(constant_spec, 1e-13, 1000)
        beta_minus_alpha = constant_spec.beta.value - constant_spec.alpha.value
        assert direct.h.det == pytest.approx(beta_minus_alpha, abs=1e-12)
        assert direct.det_product == pytest.approx(beta_minus_alpha, abs=1e-12)

    def test_worked_example_as_map(self, worked_spec):
        from cflimits.sphere import MobiusMap

        direct = L.compute_h_direct(worked_spec, 1e-12, 5000)
        published = MobiusMap(
            0.581867 + 0.408182j,
            -0.670885 - 0.294104j,
            0.518727 + 0.00637067j,
            -0.565036 - 0.228462j,
        )
        # Compare pointwise (projective classes), never coefficientwise.
        assert maps_agree(direct.h, published, 5e-5)

    def test_det_identity_ratio(self, worked_spec):
        direct = L.compute_h_direct(worked_spec, 1e-12, 5000)
        assert abs(direct.h.det / direct.det_product - 1.0) < 1e-6

    @staticmethod
    def exact_root_spec(q=lambda n: 0.2**n * 1j):
        return L.EllipticCFSpec(
            U.root_of_unity(1, 5), U.root_of_unity(3, 7), p=lambda n: 0.3**n, q=q, tail_bound=None
        )

    def test_exact_roots_match_recorded_bits(self):
        direct = L.compute_h_direct(self.exact_root_spec(), 1e-12)
        assert direct.n_terms == 39
        got = [hex_pair(c) for c in (direct.h.a, direct.h.b, direct.h.c, direct.h.d)]
        assert got == [
            ("0x1.227cb9e3bdabcp+0", "-0x1.0dc12b0371dbfp-1"),
            ("0x1.a2464466b7e41p-3", "0x1.f724dcc675e65p-1"),
            ("0x1.4205d0d9c6f2bp+0", "-0x1.b15168641cc3ep-2"),
            ("-0x1.2c3f667edf3c9p-1", "0x1.d9d49e4e27420p-8"),
        ]
        assert hex_pair(direct.det_product) == ("-0x1.5598cfee5bcc8p+0", "-0x1.aa4404362ab4ep-1")
        assert direct.last_delta.hex() == "0x1.a900d134b90f3p-68"

    @pytest.mark.parametrize("tail_bound", [None, "sound"])
    def test_renormalized_stream_matches_recorded_bits(self, tail_bound):
        # b_1 = -b_3 = 1e200 + ... and b_2 = 0 exactly, so Q_3 = 0 exactly:
        # the stream runs at exponent 665 for two steps, then at 1 to the stop.
        # The step and the magnitude bound must both undo the exponent; the
        # bound holds 1e200 from Q_1, so the sound tail bound never fires.
        alpha, beta = U.root_of_unity(1, 5), U.root_of_unity(3, 7)
        s = alpha.value + beta.value
        big = {1: 1e200, 2: -s, 3: -1e200 - 2 * s}
        if tail_bound == "sound":
            tail_bound = lambda n: 3e200 if n < 3 else 0.3 ** (n + 1) / 0.7 + 0.2 ** (n + 1) / 0.8
        spec = L.EllipticCFSpec(
            alpha, beta, p=lambda n: big.get(n, 0.3**n), q=lambda n: 0.0 if n in (2, 3) else 0.2**n * 1j,
            tail_bound=tail_bound,
        )
        direct = L.compute_h_direct(spec, 1e-12)
        assert direct.n_terms == 39
        got = [hex_pair(c) for c in (direct.h.a, direct.h.b, direct.h.c, direct.h.d)]
        assert got == [
            ("-0x1.0eba48511360fp-1", "-0x1.0893224237a9bp+0"),
            ("-0x1.232b1372aafcbp+0", "0x1.1b529e46f4830p-4"),
            ("-0x1.eee47ca5f7e4dp-1", "0x1.130c8e5e09a23p-2"),
            ("0x1.ec51756b98550p-1", "0x1.106fc72097c11p-2"),
        ]
        assert hex_pair(direct.det_product) == ("-0x1.5073f4c61d7b9p+0", "-0x1.862fd2916b446p-1")

    def test_step_matches_40_digit_reference(self):
        # alpha^-n is rounded in phase by about eps*n*|theta|; at |theta| ~ 1000
        # that is ~1e-11 by n = 50, far above the true step at the stop.
        theta_a, theta_b = 1000.0 + math.sqrt(11), math.sqrt(13)
        spec = L.geometric_spec(U.from_angle(theta_a), U.from_angle(theta_b), 0.4 + 0.1j, 0.5, 0.3j, 0.6)
        tol = 1e-10
        direct = L.compute_h_direct(spec, tol)
        n, far = direct.n_terms, mpref.negligible_index(0.6)
        quads = mpref.rotated_convergents(
            mpref.unit_angle(theta_a), mpref.unit_angle(theta_b),
            lambda k: mpref.mp.mpc(spec.p(k)), lambda k: mpref.mp.mpc(spec.q(k)), (n - 1, n, far),
        )
        step = float(max(abs(x - y) for x, y in zip(quads[n], quads[n - 1])))
        assert direct.last_delta == pytest.approx(step, rel=1e-12, abs=0.0)
        assert mpref.max_abs_diff((direct.h.a, direct.h.b, direct.h.c, direct.h.d), quads[far]) < tol

    def test_q_equal_to_alpha_beta_raises_at_its_step(self):
        ab = (U.root_of_unity(1, 5) * U.root_of_unity(3, 7)).value
        spec = self.exact_root_spec(q=lambda n: ab if n == 7 else 0.2**n)
        with pytest.raises(QEqualsAlphaBetaError) as info:
            L.compute_h_direct(spec, 1e-12)
        assert info.value.n == 7

    @pytest.mark.parametrize("tail", [False, True])
    def test_non_finite_perturbation_raises_at_its_index(self, tail):
        # p_5 = NaN once spent the whole budget (no tail bound) or raised DegenerateMapError.
        base = inverse_square_spec()
        p = lambda n: math.nan if n == 5 else base.p(n)
        spec = L.EllipticCFSpec(base.alpha, base.beta, p, base.q, base.tail_bound if tail else None)
        with pytest.raises(InvalidFactorError, match="P_5/Q_5 is not finite") as info:
            L.compute_h_direct(spec, 1e-12)
        assert info.value.n == 5

    def test_each_perturbation_evaluated_once_per_step(self):
        calls = {"p": 0, "q": 0}

        def counted(name, fn):
            def wrapped(n):
                calls[name] += 1
                return fn(n)

            return wrapped

        spec = inverse_square_spec()
        spec = L.EllipticCFSpec(
            spec.alpha, spec.beta, counted("p", spec.p), counted("q", spec.q), spec.tail_bound
        )
        n_terms = L.compute_h_direct(spec, 1e-6).n_terms
        assert n_terms >= 1000
        assert calls == {"p": n_terms, "q": n_terms}


def hex_pair(z):
    return (z.real.hex(), z.imag.hex())


def inverse_square_spec(w=0.5):
    return L.EllipticCFSpec(
        U.from_angle(math.sqrt(11)),
        U.from_angle(math.sqrt(13)),
        p=lambda n: w / n**2,
        q=lambda n: w * 1j / n**2,
        tail_bound=lambda n: 2 * w / n,
    )


class TestComputeHDirectInverseSquare:
    # Computed with power(n).value in the loop; power_value must reproduce them bit for bit.
    RECORDED = {
        1e-6: (
            1552,
            (
                0.30967333399362773 + 0.02696358371041661j,
                -0.9923317276854293 - 0.1764425479936496j,
                0.0640157059155646 + 0.11633288374805015j,
                -0.5002620038038916 - 0.921166466394932j,
            ),
            -0.08708110783433243 - 0.17201364144857495j,
        ),
        1e-7: (
            4857,
            (
                0.3094010747293179 + 0.026824994905647062j,
                -0.9930723553662429 - 0.17676370585752038j,
                0.06400099630772066 + 0.11620207378762139j,
                -0.5004808387701241 - 0.9219766623420098j,
            ),
            -0.0870999791683775 - 0.1719758457536907j,
        ),
    }

    def test_matches_recorded_values(self):
        for tol, (n_terms, coeffs, det_product) in self.RECORDED.items():
            direct = L.compute_h_direct(inverse_square_spec(), tol)
            assert direct.n_terms == n_terms
            got = (direct.h.a, direct.h.b, direct.h.c, direct.h.d)
            assert all(same_bits(g, w) for g, w in zip(got, coeffs)), tol
            assert same_bits(direct.det_product, det_product)

    def test_power_calls_do_not_grow_with_steps(self, monkeypatch):
        power = U.power
        calls = 0

        def counting(self, n):
            nonlocal calls
            calls += 1
            return power(self, n)

        monkeypatch.setattr(U, "power", counting)
        counts = {}
        for tol in self.RECORDED:
            calls = 0
            n_terms = L.compute_h_direct(inverse_square_spec(), tol).n_terms
            counts[n_terms] = calls
        # compute_h_direct rotates with power_value only (test_two_rotations_per_call).
        assert counts == {1552: 0, 4857: 0}

    def test_two_rotations_per_call(self, monkeypatch):
        power_value = U.power_value
        calls = 0

        def counting(self, n):
            nonlocal calls
            calls += 1
            return power_value(self, n)

        monkeypatch.setattr(U, "power_value", counting)
        counts = {}
        for tol in self.RECORDED:
            calls = 0
            n_terms = L.compute_h_direct(inverse_square_spec(), tol).n_terms
            counts[n_terms] = calls
        assert counts == {1552: 2, 4857: 2}


class TestComputeHDirectBudgetTail:
    """A tail bound that cannot fall under tol within the budget is read once, at the budget."""

    # inverse_square_spec() at tol 2e-6: n_terms, h, det_product, last_delta (.hex()).
    RECORDED = (
        1095,
        [
            ("0x1.3d47029fe99f3p-2", "0x1.bb2e7bf6e87e8p-6"),
            ("-0x1.fbd75ac2a6136p-1", "-0x1.68f3929ff4290p-3"),
            ("0x1.063e7f1d95f92p-4", "0x1.dcd56b3c9e68ep-4"),
            ("-0x1.0010bdd1b1581p-1", "-0x1.d7620ac3fcddap-1"),
        ],
        ("-0x1.64a305c76628ep-4", "-0x1.6054d6832af75p-3"),
        "0x1.01418a7fd18cap-19",
    )

    @staticmethod
    def counted(spec, tail_bound):
        calls = []
        counting = lambda n: calls.append(n) or tail_bound(n)
        return L.EllipticCFSpec(spec.alpha, spec.beta, spec.p, spec.q, counting), calls

    @staticmethod
    def bits(direct):
        h = [hex_pair(c) for c in (direct.h.a, direct.h.b, direct.h.c, direct.h.d)]
        return direct.n_terms, h, hex_pair(direct.det_product), direct.last_delta.hex()

    def test_futile_bound_is_read_once_and_changes_no_bit(self):
        spec = inverse_square_spec()  # 2 * tail_bound(100_000) = 2e-5 >= tol
        counted, calls = self.counted(spec, spec.tail_bound)
        direct = L.compute_h_direct(counted, 2e-6)
        assert calls == [100_000]
        assert self.bits(direct) == self.RECORDED
        bare = L.EllipticCFSpec(spec.alpha, spec.beta, spec.p, spec.q)
        assert self.bits(L.compute_h_direct(bare, 2e-6)) == self.RECORDED

    @pytest.mark.parametrize("at_budget", [None, math.nan, -1.0])
    def test_bound_read_each_step_unless_futile(self, worked_spec, at_budget):
        # A geometric tail falls under tol; a NaN or negative value at the budget
        # does not prove the bound futile, so both keep the per-step reads.
        tail = worked_spec.tail_bound
        bound = tail if at_budget is None else (lambda n: at_budget if n == 5000 else tail(n))
        counted, calls = self.counted(worked_spec, bound)
        direct = L.compute_h_direct(counted, 1e-12, 5000)
        assert calls == [5000] + list(range(1, direct.n_terms + 1))
        assert self.bits(direct) == self.bits(L.compute_h_direct(worked_spec, 1e-12, 5000))


class TestComputeHViaModifications:
    def test_worked_example_triple(self, worked_spec):
        mods = L.compute_h_via_modifications(worked_spec, 1e-12, 5000)
        assert mods.at_infinity.z == pytest.approx(H_INF, abs=5e-5)
        assert mods.at_zero.z == pytest.approx(H_ZERO, abs=5e-5)
        assert mods.at_one.z == pytest.approx(H_ONE, abs=5e-5)

    def test_cross_oracle_with_direct(self, worked_spec):
        mods = L.compute_h_via_modifications(worked_spec, 1e-12, 5000)
        direct = L.compute_h_direct(worked_spec, 1e-12, 5000)
        assert maps_agree(mods.h, direct.h, 1e-6)

    def test_constant_case_fixed_points(self, constant_spec):
        mods = L.compute_h_via_modifications(constant_spec, 1e-12, 2000)
        # h(infinity) = -beta, h(0) = -alpha, h(1) is the line's infinity.
        assert mods.at_infinity.z == pytest.approx(-constant_spec.beta.value, abs=1e-12)
        assert mods.at_zero.z == pytest.approx(-constant_spec.alpha.value, abs=1e-12)
        assert mods.at_one.is_infinity
        assert mods.h.b / mods.h.d == pytest.approx(complex(-2 / 3, -SQRT5 / 3), abs=1e-12)

    def test_s_branch_irrelevant(self, worked_spec):
        mods = L.compute_h_via_modifications(worked_spec, 1e-12, 5000)
        flipped = mods.h.scaled(-1.0)
        assert maps_agree(mods.h, flipped, 1e-14)

    def test_modified_fraction_values_match_theorem(self, worked_spec):
        # The underlying modified fractions themselves: closing denominator
        # alpha + p_n gives h(inf), beta + p_n gives h(0), and the shifted
        # tail values at k = -1 give h(1).
        fraction = L.build_cf(worked_spec)
        alpha, beta = worked_spec.alpha, worked_spec.beta
        a_val = C.modified_value(fraction, lambda n: -beta.value, 1e-12, 4000)
        b_val = C.modified_value(fraction, lambda n: -alpha.value, 1e-12, 4000)
        c_val = C.modified_value(
            fraction, lambda n: L.tail_omega(alpha, beta, n + 1), 1e-12, 4000
        )
        assert a_val.value.z == pytest.approx(H_INF, abs=5e-5)
        assert b_val.value.z == pytest.approx(H_ZERO, abs=5e-5)
        assert c_val.value.z == pytest.approx(H_ONE, abs=5e-5)

    @staticmethod
    def root_spec(q=lambda n: 0.45**n * 1j, p=lambda n: 0.5**n):
        # lambda = e^(-2 pi i 8/35): the tail values at n + 1 are 0 at n = 34
        # and infinite at n = 35, both inside every run below.
        return L.EllipticCFSpec(U.root_of_unity(1, 5), U.root_of_unity(3, 7), p=p, q=q)

    @staticmethod
    def separate_runs(spec, tol, max_n):
        fraction, alpha, beta = L.build_cf(spec), spec.alpha, spec.beta
        return [
            C.modified_value(fraction, w, tol, max_n)
            for w in (
                lambda n: -beta.value,
                lambda n: -alpha.value,
                lambda n: L.tail_omega(alpha, beta, n + 1),
            )
        ]

    # Recorded with three separate modified_value runs over the same fraction.
    RECORDED = {
        "worked": (
            [("-0x1.29ea871480b31p-1", "-0x1.a1fa6f478d13fp-2"), ("0x1.577e35d8a169ap-1", "0x1.2d298bc329d1ep-2"),
             ("-0x1.09969d9db5bfcp-1", "-0x1.a1821dc421aa0p-8"), ("0x1.214c574f6b2f4p-1", "0x1.d3e40899160bbp-3")],
            [("0x1.21974bdda0233p+0", "0x1.8bc670d1402fcp-1"), ("0x1.338dbbb167391p+0", "0x1.1ca658ac3591bp-5"),
             ("-0x1.a60d6016be1f2p-2", "-0x1.f26f718dfb31ep-2")],
            ("0x1.2b3f2629b78c7p-2", "-0x1.72b267a6c497ap-4"),
            ("0x1.c50ffbdcda88ep-4", "-0x1.a766780cca4c9p-3"),
        ),
        "roots": (
            [("0x1.c8a90e6025de2p+0", "-0x1.211d5648836ccp+0"), ("-0x1.07a0cd99805a9p-3", "0x1.85b341829b6c4p-1"),
             ("0x1.deb6d76e4c9acp+0", "-0x1.5772c83f4e09bp+0"), ("-0x1.fa4b647988442p-3", "-0x1.06cdb41595966p-2")],
            [("0x1.d4e754560a000p-1", "0x1.b3152178ec785p-5"), ("-0x1.49a8f36d67cc0p+0", "-0x1.bdf2e3c56101cp+0"),
             ("0x1.4328f12893237p-1", "0x1.9432647e6362ep-2")],
            ("0x1.666a9aad6ba85p-4", "-0x1.97d9989adcdf4p-1"),
            ("-0x1.82e14c6592e9cp+0", "-0x1.c64d32e4dbac4p+0"),
        ),
    }

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_matches_recorded_bits(self, worked_spec, name):
        spec = worked_spec if name == "worked" else self.root_spec()
        mods = L.compute_h_via_modifications(spec, 1e-12, 5000)
        h, targets, s, det_product = self.RECORDED[name]
        assert [hex_pair(c) for c in (mods.h.a, mods.h.b, mods.h.c, mods.h.d)] == h
        assert [hex_pair(v.z) for v in (mods.at_infinity, mods.at_zero, mods.at_one)] == targets
        assert (hex_pair(mods.s), hex_pair(mods.det_product)) == (s, det_product)

    def test_non_finite_perturbation_raises_at_its_index(self, worked_spec):
        # p_5 = NaN once raised DegenerateTripleError from the three NaN limits.
        p = lambda n: math.nan if n == 5 else worked_spec.p(n)
        spec = L.EllipticCFSpec(worked_spec.alpha, worked_spec.beta, p, worked_spec.q, worked_spec.tail_bound)
        with pytest.raises(InvalidFactorError, match="P_5/Q_5 is not finite") as info:
            L.compute_h_via_modifications(spec, 1e-12, 5000)
        assert info.value.n == 5

    def test_root_spec_runs_pass_the_exact_tail_values(self):
        spec = self.root_spec()
        assert L.tail_omega(spec.alpha, spec.beta, 35) == 0.0
        assert L.tail_omega(spec.alpha, spec.beta, 36).is_infinity
        assert min(r.n for r in self.separate_runs(spec, 1e-12, 5000)) > 35

    def test_forms_the_longest_run_of_terms_once(self):
        calls = 0

        def p(n):
            nonlocal calls
            calls += 1
            return 0.5**n

        spec = self.root_spec(p=p)  # only the fraction's terms read p
        L.compute_h_via_modifications(spec, 1e-12, 5000)
        stops = [r.n for r in self.separate_runs(self.root_spec(), 1e-12, 5000)]
        assert stops == [54, 58, 54]
        assert calls == max(stops)

    def test_q_equal_to_alpha_beta_raises_at_its_step(self):
        ab = (U.root_of_unity(1, 5) * U.root_of_unity(3, 7)).value
        spec = self.root_spec(q=lambda n: ab if n == 7 else 0.45**n * 1j)
        with pytest.raises(QEqualsAlphaBetaError) as info:
            L.compute_h_via_modifications(spec, 1e-12, 5000)
        assert info.value.n == 7

    # Stops at tol 1e-12: infinity 54, zero 58, one 54.
    @pytest.mark.parametrize("max_n,label", [(50, "infinity"), (56, "zero")])
    def test_budget_error_names_the_first_unsettled_limit(self, max_n, label):
        spec = self.root_spec()
        with pytest.raises(NoConvergenceError) as info:
            L.compute_h_via_modifications(spec, 1e-12, max_n)
        assert str(info.value) == f"modified fraction at {label} not stable after {max_n} terms"
        runs = dict(zip(("infinity", "zero", "one"), self.separate_runs(spec, 1e-12, max_n)))
        assert not runs[label].converged
        assert info.value.last_delta == runs[label].last_delta


class TestDetProduct:
    def test_q_equal_to_alpha_beta_raises_at_its_factor(self):
        alpha, beta = U.root_of_unity(1, 5), U.root_of_unity(3, 7)
        ab = (alpha * beta).value
        seen = []

        def q(n):
            seen.append(n)
            return ab if n == 4 else 0.3**n

        with pytest.raises(QEqualsAlphaBetaError) as info:
            L.det_product(L.EllipticCFSpec(alpha, beta, lambda n: 0.0, q), 1e-12)
        assert info.value.n == 4
        assert seen == [1, 2, 3, 4]


class TestAsymptoticPredictor:
    def test_approximants_track_prediction(self, worked_spec):
        direct = L.compute_h_direct(worked_spec, 1e-12, 5000)
        stream = C.convergents(L.build_cf(worked_spec))
        worst = 0.0
        for _ in range(1000):
            stream.step()
            if stream.n >= 500:
                predicted = L.asymptotic_predictor(worked_spec, direct.h, stream.n)
                worst = max(worst, chordal_distance(stream.value(), predicted))
        assert worst < 1e-6

    def test_periodic_for_finite_order(self):
        spec = L.geometric_spec(
            U.root_of_unity(1, 6), U.root_of_unity(5, 6), 1.0, 0.2, 0.5, 0.25
        )
        direct = L.compute_h_direct(spec, 1e-12, 4000)
        m = spec.lambda_order().m
        for n in range(1, 12):
            a = L.asymptotic_predictor(spec, direct.h, n)
            b = L.asymptotic_predictor(spec, direct.h, n + m)
            assert chordal_distance(a, b) < 1e-14

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_shifted_tail_modification_hits_lambda_power(self, worked_spec, k):
        # Modification by tail values shifted k steps selects h(lambda^(k+1)).
        direct = L.compute_h_direct(worked_spec, 1e-12, 5000)
        fraction = L.build_cf(worked_spec)
        alpha, beta = worked_spec.alpha, worked_spec.beta
        got = C.modified_value(
            fraction, lambda n: L.tail_omega(alpha, beta, n - k), 1e-12, 4000
        )
        lam_power = worked_spec.lam.power(k + 1).value
        assert chordal_distance(got.value, direct.h.apply(lam_power)) < 1e-8


class TestConcentration:
    def test_worked_example_points(self, worked_spec):
        direct = L.compute_h_direct(worked_spec, 1e-12, 5000)
        conc = L.concentration_points(direct.h, None)
        assert conc.kind == "points"
        assert conc.highest.z == pytest.approx(CONC_HIGH, abs=5e-4)
        assert conc.lowest.z == pytest.approx(CONC_LOW, abs=5e-4)

    def test_line_case(self, constant_spec):
        direct = L.compute_h_direct(constant_spec, 1e-13, 1000)
        conc = L.concentration_points(direct.h, None)
        assert conc.kind == "points"
        assert conc.highest.z == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert conc.lowest.is_infinity

    def test_uniform_when_c_vanishes(self):
        from cflimits.sphere import MobiusMap

        conc = L.concentration_points(MobiusMap(2.0, 1.0, 0.0, 1.0), None)
        assert conc.kind == "uniform"

    def test_finite_order_not_applicable(self, worked_spec):
        direct = L.compute_h_direct(worked_spec, 1e-12, 5000)
        assert L.concentration_points(direct.h, 17).kind == "not-applicable"

    def test_circle_radius_formula(self, worked_spec):
        # radius = |det_product| / | |c|^2 - |d|^2 | with the raw limits.
        direct = L.compute_h_direct(worked_spec, 1e-12, 5000)
        geometry = direct.h.image_of_unit_circle()
        denom = abs(abs(direct.h.c) ** 2 - abs(direct.h.d) ** 2)
        assert geometry.radius == pytest.approx(abs(direct.det_product) / denom, rel=1e-6)


def mp_geometric(coeff, ratio):
    """n -> coeff * ratio^n at the reference's precision."""
    return lambda n: mpref.mp.mpc(coeff) * mpref.mp.mpf(ratio) ** n


def assert_one_period(res):
    """The first rank values are pairwise chordally distinct, and every value recurs rank on."""
    period = res.values[:res.rank]
    assert min(chordal_distance(u, v) for i, u in enumerate(period) for v in period[:i]) > 1e-6
    for j in range(res.m):
        assert chordal_distance(res.values[j], res.values[(j + res.rank) % res.m]) < 1e-8


def ring_gap(spec, values):
    """Smallest chordal gap between limits h(lambda^(j+1)) adjacent on the image circle.

    A Moebius map keeps the cyclic order of the circle, and the chord between
    two points of a circle grows with the arc between them, so this is the
    smallest gap between any two of the values.
    """
    ring = sorted(range(len(values)), key=lambda j: spec.lam.turns * (j + 1) % 1)
    return min(chordal_distance(values[i], values[j]) for i, j in zip(ring, ring[1:] + ring[:1]))


class TestResidueLimits:
    def test_stern_stolz_determinant(self):
        spec = L.geometric_spec(U.root_of_unity(0, 1), U.root_of_unity(1, 2), 1.0, 1.0 / 3.0)
        res = L.residue_limits(spec, 1e-12)
        assert res.m == 2 and res.rank == 2
        det = res.A[1] * res.B[0] - res.A[0] * res.B[1]
        assert abs(det - 1.0) < 1e-10
        for value in res.values:
            assert not value.is_infinity  # A_p, B_p finite and quotients exist

    def test_generalized_stern_stolz_product(self):
        spec = L.geometric_spec(
            U.root_of_unity(0, 1), U.root_of_unity(1, 2), 1.0, 1.0 / 3.0, 1.0, 0.25
        )
        res = L.residue_limits(spec, 1e-12)
        det = res.A[1] * res.B[0] - res.A[0] * res.B[1]
        want = 1.0
        for n in range(1, 200):
            want *= 1.0 + 0.25**n
        assert abs(det - want) < 1e-10

    def test_rank_three_with_sign_pattern(self):
        # Partial numerators -1 + 5^-n over denominators 1 + 7^-n.
        spec = L.geometric_spec(
            U.root_of_unity(1, 6), U.root_of_unity(5, 6), 1.0, 1.0 / 7.0, 1.0, 1.0 / 5.0
        )
        res = L.residue_limits(spec, 1e-12)
        assert res.m == 6
        assert res.rank == 3
        assert_one_period(res)
        for p in range(6):
            assert abs(res.A[p] + res.A[(p + 3) % 6]) < 1e-8
            assert abs(res.B[p] + res.B[(p + 3) % 6]) < 1e-8

    def test_closed_forms_and_periodicity(self):
        spec = L.geometric_spec(
            U.root_of_unity(1, 8), U.root_of_unity(7, 8), 0.7, 0.3, 0.3j, 0.25
        )
        res = L.residue_limits(spec, 1e-12)
        A, B = mpref.residue_limits(
            mpref.unit_root(Fraction(1, 8)), mpref.unit_root(Fraction(7, 8)),
            mp_geometric(0.7, 0.3), mp_geometric(0.3j, 0.25), 8, 0.3,
        )
        assert mpref.max_abs_diff(res.A, A) <= 1e-12
        assert mpref.max_abs_diff(res.B, B) <= 1e-12
        assert res.periodicity_residual < 1e-8
        assert res.det_identity_residual < 1e-9

    @pytest.mark.parametrize(
        "alpha, beta, p, q, tol",
        [
            (Fraction(0), Fraction(1, 2), (1.0, 1.0 / 3.0), (0.0, 0.0), 1e-11),  # Stern-Stolz
            (Fraction(1, 6), Fraction(5, 6), (1.0, 1.0 / 7.0), (1.0, 0.2), 1e-11),
            (Fraction(4, 9), Fraction(7, 10), (1.0, 0.3), (1.0, 0.2), 1e-11),
            # Adjacent roots, |alpha - beta| = 2 sin(pi/960), about 0.0065.  In
            # double precision the terms' rounding moves the roots by about
            # eps/|1 - lambda|, which the 2/|alpha - beta| of the closed form
            # turns into an error near 1e-11 in A and B (1.19e-11 at tol 1e-11),
            # so the case is held to the benchmark's tol.
            (Fraction(7, 960), Fraction(8, 960), (0.3 + 0.1j, 0.25), (0.1 - 0.2j, 0.2), 1e-10),
        ],
        ids=["stern-stolz", "m6", "4/9,7/10", "m960-adjacent"],
    )
    def test_matches_40_digit_reference(self, alpha, beta, p, q, tol):
        spec = L.geometric_spec(U(alpha), U(beta), p[0], p[1], q[0], q[1])
        res = L.residue_limits(spec, tol)
        A, B = mpref.residue_limits(
            mpref.unit_root(alpha), mpref.unit_root(beta), mp_geometric(*p), mp_geometric(*q),
            res.m, max(p[1], q[1]),
        )
        assert res.m == math.lcm(alpha.denominator, beta.denominator)
        assert mpref.max_abs_diff(res.A, A) <= tol
        assert mpref.max_abs_diff(res.B, B) <= tol

    def test_q_cf_matches_40_digit_reference(self):
        f, g, base = (0.0, 1.0, 0.5j), (0.0, 0.8), 0.3 + 0.2j
        res = L.q_cf_rank(f, g, U.root_of_unity(1, 5), U.root_of_unity(3, 5), base)
        qb = mpref.mp.mpc(base)

        def poly(coeffs):
            return lambda n: mpref.mp.fsum(c * qb ** (n * j) for j, c in enumerate(coeffs))

        A, B = mpref.residue_limits(
            mpref.unit_root(Fraction(1, 5)), mpref.unit_root(Fraction(3, 5)), poly(f), poly(g), 5, abs(base),
        )
        assert res.rank == 5
        assert mpref.max_abs_diff(res.A, A) <= 1e-11
        assert mpref.max_abs_diff(res.B, B) <= 1e-11

    def test_rank_formula_exhaustive(self):
        rng = random.Random(2)
        for m in range(2, 13):
            for a in range(m):
                for b in range(a + 1, m):
                    cp = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
                    cq = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
                    spec = L.geometric_spec(
                        U.root_of_unity(a, m), U.root_of_unity(b, m), cp, 0.25, cq, 0.2
                    )
                    res = L.residue_limits(spec, 1e-11)
                    want = m // math.gcd(b - a, m)
                    assert res.rank == want, (m, a, b)
                    assert_one_period(res)

    def test_each_q_evaluated_once_per_step(self):
        calls = []
        base = L.geometric_spec(U.root_of_unity(1, 8), U.root_of_unity(7, 8), 0.7, 0.3, 0.3j, 0.25)

        def q(n):
            calls.append(n)
            return base.q(n)

        spec = L.EllipticCFSpec(base.alpha, base.beta, base.p, q, base.tail_bound)
        res = L.residue_limits(spec, 1e-12)
        assert res.n_terms >= 16
        assert calls == list(range(1, res.n_terms + 1))


def greedy_distinct(values, distinct_tol):
    """The values in order, dropping each within ``distinct_tol`` of one kept earlier.

    On values that repeat with some period and whose period is more than
    ``distinct_tol`` apart, this scalar first-occurrence rule keeps exactly
    one period.
    """
    kept = []
    for v in values:
        if all(chordal_distance(v, u) > distinct_tol for u in kept):
            kept.append(v)
    return kept


def assert_same_values(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g is w


class TestDistinctValues:
    @pytest.mark.parametrize(
        "m, diffs",
        [(24, (1, 2, 3, 8, 12)), (210, (1, 6, 30, 105)), (960, (4, 60, 320, 480)), (1000, (8, 40, 250))],
    )
    def test_matches_scalar_rule_on_residue_values(self, m, diffs):
        rng = random.Random(m)
        for diff in diffs:
            a = rng.randrange(m)
            cp = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
            cq = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            spec = L.geometric_spec(
                U.root_of_unity(a, m), U.root_of_unity(a + diff, m), cp, 0.25, cq, 0.2
            )
            res = L.residue_limits(spec, 1e-11)
            assert res.rank == m // math.gcd(diff, m)
            assert_same_values(res.distinct_values, greedy_distinct(res.values, 1e-6))

    def test_scalar_calls_linear_in_m(self, monkeypatch):
        calls = 0
        scalar = L.chordal_distance

        def counting(x, y):
            nonlocal calls
            calls += 1
            return scalar(x, y)

        monkeypatch.setattr(L, "chordal_distance", counting)
        m = 997
        spec = L.geometric_spec(
            U.root_of_unity(0, m), U.root_of_unity(1, m), 0.3 + 0.1j, 0.25, 0.1 - 0.2j, 0.2
        )
        res = L.residue_limits(spec, 1e-11)
        assert res.rank == m
        assert calls <= 2 * m
        assert ring_gap(spec, res.values) > 1e-6

    def test_order_997_limits_are_all_resolved(self):
        # A chordal dedup at 1e-6 merged these into 573 values, though the
        # smallest gap between two limits, 3e-7, is far above their error.
        m, ratio = 997, 0.5
        spec = L.geometric_spec(U.root_of_unity(1, m), U.root_of_unity(3, m), 1.0, ratio, 1.0, ratio)
        res = L.residue_limits(spec, 1e-11)
        assert len(res.distinct_values) == res.rank == m
        A, B = mpref.residue_limits(
            mpref.unit_root(Fraction(1, m)), mpref.unit_root(Fraction(3, m)),
            mp_geometric(1.0, ratio), mp_geometric(1.0, ratio), m, ratio,
        )
        with mpref.mp.workdps(mpref.DPS):
            error = max(chordal_distance(v, complex(a / b)) for v, a, b in zip(res.distinct_values, A, B))
        assert error < ring_gap(spec, res.distinct_values)


class TestNormalizeElliptic:
    def test_43_normalization(self):
        d, spec = L.normalize_elliptic(lambda n: -1.0, lambda n: 4.0 / 3.0, -1.0, 4.0 / 3.0)
        assert d == pytest.approx(1.0, abs=1e-14)
        assert spec.alpha.value == pytest.approx(complex(2 / 3, SQRT5 / 3), abs=1e-14)
        assert spec.beta.value == pytest.approx(complex(2 / 3, -SQRT5 / 3), abs=1e-14)

    def test_minus_two_over_two_form_has_rank_four(self):
        # a = -2, b = 2 normalizes onto eighth roots of unity; with summable
        # perturbations the value sequence has four limits.
        d, spec = L.normalize_elliptic(
            lambda n: -2.0 + 5.0**-n, lambda n: 2.0 + 7.0**-n, -2.0, 2.0,
            tail_bound=lambda n: 5.0**-n / 4 + 7.0**-n / 6,
        )
        assert d == pytest.approx(math.sqrt(2.0), abs=1e-14)
        assert spec.alpha.value == pytest.approx(cmath.rect(1.0, math.pi / 4), abs=1e-14)
        exact = L.EllipticCFSpec(
            U.root_of_unity(1, 8),
            U.root_of_unity(7, 8),
            spec.p,
            spec.q,
            spec.tail_bound,
        )
        assert L.residue_limits(exact, 1e-11).rank == 4

    def test_scaling_identity(self):
        # d times the normalized fraction's approximants reproduces the
        # original fraction's approximants.
        a_seq = lambda n: -1.5 + 0.3**n
        b_seq = lambda n: 1.0 + 0.4**n * 1j
        d, spec = L.normalize_elliptic(a_seq, b_seq, -1.5, 1.0)
        original = C.ContinuedFraction(0.0, lambda n: (a_seq(n), b_seq(n)))
        reduced = L.build_cf(spec)
        s1 = C.convergents(original)
        s2 = C.convergents(reduced)
        for _ in range(60):
            s1.step()
            s2.step()
            v1, v2 = s1.value(), s2.value()
            if v1.is_infinity or v2.is_infinity:
                assert v1 == v2
            else:
                assert abs(v1.z - d * v2.z) < 1e-9 * max(1.0, abs(v1.z))

    def test_hyperbolic_rejected(self):
        with pytest.raises(NotEllipticError):
            L.normalize_elliptic(lambda n: 1.0, lambda n: 1.0, 1.0, 1.0)

    def test_parabolic_rejected(self):
        with pytest.raises(NotEllipticError):
            L.normalize_elliptic(lambda n: -1.0, lambda n: 2.0, -1.0, 2.0)


class TestQCFRank:
    def test_rank_four(self):
        d = math.sqrt(2.0) / 2.0
        res = L.q_cf_rank([0, 1 / d], [0], U.root_of_unity(1, 8), U.root_of_unity(7, 8), 0.3)
        assert res.rank == 4
        assert_one_period(res)

    def test_rank_six(self):
        d = 1.0 / math.sqrt(3.0)
        res = L.q_cf_rank(
            [0, 1 / d], [0, 1 / d**2], U.root_of_unity(1, 12), U.root_of_unity(11, 12), 0.3
        )
        assert res.rank == 6
        assert_one_period(res)

    def test_three_limits_for_ramanujan_form(self):
        res = L.q_cf_rank([0, 1.0], [0], U.root_of_unity(1, 6), U.root_of_unity(5, 6), 0.3)
        assert res.rank == 3
        # values converge in each congruence class mod 3, to three distinct limits
        assert_one_period(res)

    def test_nonzero_constant_term_rejected(self):
        with pytest.raises(ValueError):
            L.q_cf_rank([1.0], [0], U.root_of_unity(1, 8), U.root_of_unity(7, 8), 0.3)


class TestLimitSetReport:
    def test_worked_example_report(self, worked_spec):
        report = L.limit_set_report(worked_spec, 1e-10)
        assert report.m is None
        assert isinstance(report.geometry, Circle)
        assert report.concentration.kind == "points"
        assert report.residue is None

    def test_constant_case_line(self, constant_spec):
        report = L.limit_set_report(constant_spec, 1e-10)
        assert isinstance(report.geometry, Line)
        assert report.concentration.highest.z == pytest.approx(-2 / 3, abs=1e-10)

    def test_seventeen_limit_points(self):
        # Numeric angle with an exact rational offset: the quotient has
        # exact order 17 although neither point is a root of unity.
        alpha = U(Fraction(0), math.sqrt(11))
        beta = U(Fraction(1, 17), math.sqrt(11))
        spec = L.geometric_spec(alpha, beta, 1.0, 0.3, 1.0, 0.2)
        report = L.limit_set_report(spec, 1e-10)
        assert report.m == 17
        assert report.limit_points is not None
        distinct = []
        for v in report.limit_points:
            if all(chordal_distance(v, u) > 1e-6 for u in distinct):
                distinct.append(v)
        assert len(distinct) == 17

    def test_exact_root_report_includes_residues(self):
        spec = L.geometric_spec(
            U.root_of_unity(1, 6), U.root_of_unity(5, 6), 1.0, 1.0 / 7.0, 1.0, 1.0 / 5.0
        )
        report = L.limit_set_report(spec, 1e-10)
        assert report.m == 3  # order of the quotient
        assert report.residue is not None
        assert report.residue.m == 6  # least common order of the pair
        assert report.m == report.residue.rank == 3

    def test_exact_roots_run_h_once_and_match_40_digit_reference(self, monkeypatch):
        # alpha, beta = exp(+-2 pi i/12): the report's one h run, at the
        # residue tol min(tol, 1e-11) |alpha - beta|/2 and the report's own
        # budget, serves h, the limit points and the residue limits.
        alpha, beta, p, q, tol = Fraction(1, 12), Fraction(11, 12), (0.5, 0.3), (0.4j, 0.25), 1e-10
        spec = L.geometric_spec(U(alpha), U(beta), p[0], p[1], q[0], q[1])
        runs = []
        compute_h_direct = L.compute_h_direct

        def spy(spec, *args):
            runs.append(args)
            return compute_h_direct(spec, *args)

        monkeypatch.setattr(L, "compute_h_direct", spy)
        report = L.limit_set_report(spec, tol, max_n=5000)
        assert runs == [(1e-11 * abs(spec.alpha.value - spec.beta.value) / 2.0, 5000)]
        assert report.n_terms == report.residue.n_terms

        ma, mb = mpref.unit_root(alpha), mpref.unit_root(beta)
        n = mpref.negligible_index(max(p[1], q[1]))
        a, b, c, d = mpref.rotated_convergents(ma, mb, mp_geometric(*p), mp_geometric(*q), [n])[n]
        h = report.h_raw
        assert mpref.max_abs_diff((h.a, h.b, h.c, h.d), (a, b, c, d)) <= tol
        with mpref.mp.workdps(mpref.DPS):
            lam = ma / mb
            points = [(a * lam**j + b) / (c * lam**j + d) for j in range(report.m)]
        assert mpref.max_abs_diff([v.z for v in report.limit_points], points) <= tol
        A, B = mpref.residue_limits(ma, mb, mp_geometric(*p), mp_geometric(*q), 12, max(p[1], q[1]))
        assert mpref.max_abs_diff(report.residue.A, A) <= tol
        assert mpref.max_abs_diff(report.residue.B, B) <= tol
