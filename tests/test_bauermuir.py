import math
import random

import pytest

from cflimits import bauermuir as BM
from cflimits import cf as C
from cflimits import limitset as L
from cflimits.errors import DegenerateTermError, QEqualsAlphaBetaError, RootOfUnityLambdaError
from cflimits.limitset import UnitModulusNumber as U
from cflimits.sphere import chordal_distance

H_INF = 1.13121 + 0.772998j
H_ZERO = 1.20138 + 0.0347473j
H_ONE = -0.412160 - 0.486753j


def random_summable_spec(rng):
    alpha = U.from_angle(rng.uniform(0.3, 3.0))
    beta = U.from_angle(-rng.uniform(0.3, 3.0))
    return L.geometric_spec(
        alpha,
        beta,
        complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
        0.4,
        complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
        0.35,
    )


class TestAtInfinity:
    def test_worked_example(self, worked_spec):
        value = BM.bm_at_infinity(worked_spec).evaluate(1e-12).value
        assert value.z == pytest.approx(H_INF, abs=1e-5)

    def test_unperturbed_terminates_at_minus_beta(self, constant_spec):
        result = BM.bm_at_infinity(constant_spec).evaluate(1e-12)
        assert result.converged
        assert result.value.z == pytest.approx(-constant_spec.beta.value, abs=1e-14)
        # and that equals a/c of the directly computed map
        direct = L.compute_h_direct(constant_spec, 1e-13, 500)
        assert result.value.z == pytest.approx(direct.h.a / direct.h.c, abs=1e-12)

    def test_agreement_with_modified_route(self):
        rng = random.Random(12)
        for _ in range(5):
            spec = random_summable_spec(rng)
            bm = BM.bm_at_infinity(spec).evaluate(1e-13).value
            mod = C.modified_value(
                L.build_cf(spec), lambda n: -spec.beta.value, 1e-13, 20000
            ).value
            assert chordal_distance(bm, mod) < 1e-8


    def test_vanishing_coupling_with_perturbation_left_raises(self):
        # q_2 = -0.09 beta makes L_2 = q_2 + beta p_2 vanish; truncating there
        # returned a point 0.049 (chordal) off the modified limit.
        alpha, beta = U.from_angle(math.sqrt(11)), U.from_angle(math.sqrt(13))
        bv = beta.value
        spec = L.EllipticCFSpec(alpha, beta, lambda n: 0.3**n, lambda n: -0.09 * bv if n == 2 else 0.2**n)
        with pytest.raises(DegenerateTermError) as info:
            BM.bm_at_infinity(spec).evaluate(1e-12)
        assert info.value.n == 2

    def test_vanishing_coupling_without_tail_bound_raises(self):
        # p_1 = q_1 = 0 makes L_1 vanish with no tail bound; truncating there
        # returned -beta marked converged, 0.103 (chordal) off the modified limit.
        alpha, beta = U.from_angle(math.sqrt(11)), U.from_angle(math.sqrt(13))
        spec = L.EllipticCFSpec(
            alpha, beta, lambda n: 0.3**n if n > 1 else 0.0, lambda n: 0.2**n if n > 1 else 0.0
        )
        with pytest.raises(DegenerateTermError) as info:
            BM.bm_at_infinity(spec).evaluate(1e-12)
        assert info.value.n == 1

    @pytest.mark.parametrize("transform", [BM.bm_at_infinity, BM.bm_at_zero])
    def test_q_equal_to_alpha_beta_rejected(self, worked_spec, transform):
        ab = (worked_spec.alpha * worked_spec.beta).value
        spec = L.EllipticCFSpec(
            worked_spec.alpha, worked_spec.beta, worked_spec.p, lambda n: ab if n == 3 else worked_spec.q(n)
        )
        with pytest.raises(QEqualsAlphaBetaError) as info:
            transform(spec).evaluate(1e-12)
        assert info.value.n == 3


class TestAtZero:
    def test_worked_example(self, worked_spec):
        value = BM.bm_at_zero(worked_spec).evaluate(1e-12).value
        assert value.z == pytest.approx(H_ZERO, abs=1e-5)

    def test_swap_symmetry_termwise(self, worked_spec):
        swapped = L.EllipticCFSpec(
            worked_spec.beta, worked_spec.alpha, worked_spec.p, worked_spec.q,
            worked_spec.tail_bound,
        )
        at_zero = BM.bm_at_zero(worked_spec).cf
        at_inf_swapped = BM.bm_at_infinity(swapped).cf
        assert at_zero.b0 == at_inf_swapped.b0
        for n in range(1, 15):
            a1, b1 = at_zero.term(n)
            a2, b2 = at_inf_swapped.term(n)
            assert a1 == a2 and b1 == b2

    def test_agreement_with_modified_route(self):
        rng = random.Random(13)
        for _ in range(5):
            spec = random_summable_spec(rng)
            bm = BM.bm_at_zero(spec).evaluate(1e-13).value
            mod = C.modified_value(
                L.build_cf(spec), lambda n: -spec.alpha.value, 1e-13, 20000
            ).value
            assert chordal_distance(bm, mod) < 1e-8


class TestAtLambdaPower:
    def test_worked_example_k_minus_one(self, worked_spec):
        value = BM.bm_at_lambda_power(worked_spec, -1).evaluate(1e-12).value
        assert value.z == pytest.approx(H_ONE, abs=1e-5)

    @pytest.mark.parametrize("k", [-1, 0, 2])
    def test_matches_lambda_power_of_direct_map(self, worked_spec, k):
        direct = L.compute_h_direct(worked_spec, 1e-12, 5000)
        value = BM.bm_at_lambda_power(worked_spec, k).evaluate(1e-12).value
        target = direct.h.apply(worked_spec.lam.power(k + 1).value)
        assert chordal_distance(value, target) < 1e-5

    def test_root_of_unity_rejected(self):
        spec = L.geometric_spec(
            U.root_of_unity(1, 6), U.root_of_unity(5, 6), 1.0, 0.2, 0.0, 0.0
        )
        with pytest.raises(RootOfUnityLambdaError):
            BM.bm_at_lambda_power(spec, 0)

    def test_infinite_shifted_tail_value_raises(self):
        # lambda = exp(i pi) by numeric angles: turns 0 and residual pi, so not an exact
        # root, yet lambda^2 is exactly 1.0 in floats and the tail value at index 3 is infinite.
        alpha, beta = U.from_angle(math.pi / 2), U.from_angle(-math.pi / 2)
        assert not (alpha / beta).is_exact_root and (alpha / beta).power_value(2) == 1.0
        spec = L.geometric_spec(alpha, beta, 0.1, 0.5, 0.1, 0.5)
        with pytest.raises(RootOfUnityLambdaError, match="^tail value at shifted index 3 is infinite$"):
            BM.bm_at_lambda_power(spec, 0).evaluate(1e-10)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_q_equal_to_alpha_beta_rejected(self, k):
        # q_2 = alpha beta with no other perturbation lies below depth
        # k' = max(3, k + 3); the other two cases hit depth k' and the coupled
        # terms beyond it, on a perturbed fraction that reaches them.
        alpha, beta = U.from_angle(math.sqrt(11)), U.from_angle(math.sqrt(13))
        ab = (alpha * beta).value
        kp = max(3, k + 3)
        for bad, background in ((2, 0.0), (kp, 0.2), (kp + 4, 0.2)):
            spec = L.EllipticCFSpec(
                alpha, beta, lambda n: background**n, lambda n: ab if n == bad else background**n
            )
            with pytest.raises(QEqualsAlphaBetaError) as info:
                BM.bm_at_lambda_power(spec, k).evaluate()
            assert info.value.n == bad

    @pytest.mark.parametrize("bounded", [False, True])
    def test_vanishing_inner_denominator_raises(self, worked_spec, bounded):
        # q_7 is chosen so that E_7 = a_7 - w_6 (b_7 + w_7) is exactly 0 for k = 1;
        # truncating there returned a point 1e-3 (chordal) off h(lambda^2).
        k, n = 1, 7
        lam, bv = worked_spec.lam, worked_spec.beta.value
        ab = (worked_spec.alpha * worked_spec.beta).value
        w = lambda j: L._tail_value(lam, bv, j - k).z
        den = worked_spec.alpha.value + bv + complex(worked_spec.p(n)) + w(n)
        q_n = ab + w(n - 1) * den
        assert (-ab + q_n) - w(n - 1) * den == 0
        q = lambda m: q_n if m == n else worked_spec.q(m)
        tail = (lambda m: worked_spec.tail_bound(m) + (abs(q_n) if m < n else 0.0)) if bounded else None
        spec = L.EllipticCFSpec(worked_spec.alpha, worked_spec.beta, worked_spec.p, q, tail)
        with pytest.raises(DegenerateTermError) as info:
            BM.bm_at_lambda_power(spec, k).evaluate(1e-12)
        assert info.value.n == n

    def test_three_values_reassemble_direct_map(self, worked_spec):
        # h(inf), h(0), h(1) from the three transforms pin the same map.
        from cflimits.sphere import mobius_through

        A = BM.bm_at_infinity(worked_spec).evaluate(1e-12).value
        B = BM.bm_at_zero(worked_spec).evaluate(1e-12).value
        Cv = BM.bm_at_lambda_power(worked_spec, -1).evaluate(1e-12).value
        assembled = mobius_through(A, B, Cv)
        direct = L.compute_h_direct(worked_spec, 1e-12, 5000)
        pts = [complex(math.cos(0.4 * t), math.sin(0.4 * t)) for t in range(20)]
        worst = max(
            chordal_distance(assembled.apply(z), direct.h.apply(z)) for z in pts
        )
        assert worst < 1e-5


class TestRecordedBits:
    # Recorded when every term re-formed its p, q and tail values.
    RECORDED = {
        "infinity": (39, ("0x1.21974bdda0216p+0", "0x1.8bc670d14032bp-1")),
        "zero": (39, ("0x1.338dbbb167391p+0", "0x1.1ca658ac35d93p-5")),
        -1: (41, ("-0x1.a60d6016be13ep-2", "-0x1.f26f718dfb45fp-2")),
        0: (38, ("0x1.6cfcb769c9d40p-3", "0x1.4a56914043e57p-5")),
        3: (30, ("0x1.9576baf285318p-1", "0x1.397c7b7820869p-2")),
    }

    @staticmethod
    def transform(spec, which):
        if which == "infinity":
            return BM.bm_at_infinity(spec)
        if which == "zero":
            return BM.bm_at_zero(spec)
        return BM.bm_at_lambda_power(spec, which)

    @pytest.mark.parametrize("which", list(RECORDED))
    def test_worked_example(self, worked_spec, which):
        result = self.transform(worked_spec, which).evaluate(1e-12)
        z = result.value.z
        assert (result.n, (z.real.hex(), z.imag.hex())) == self.RECORDED[which]

    @pytest.mark.parametrize("which", list(RECORDED))
    def test_each_perturbation_formed_once_per_term(self, worked_spec, which):
        calls = {"p": 0, "q": 0}

        def counted(name, fn):
            def wrapped(n):
                calls[name] += 1
                return fn(n)

            return wrapped

        spec = L.EllipticCFSpec(
            worked_spec.alpha, worked_spec.beta, counted("p", worked_spec.p), counted("q", worked_spec.q),
            worked_spec.tail_bound,
        )
        n = self.transform(spec, which).evaluate(1e-12).n
        assert n == self.RECORDED[which][0]
        assert calls["p"] <= n + 1 and calls["q"] <= n + 1

    def test_rounding_zero_without_tail_bound_raises(self, worked_spec):
        # At k = 3, E_31 of the worked example rounds to exactly 0.  With the
        # tail bound (under 2^-52 there) it truncates at n = 30 as recorded;
        # without one nothing shows the perturbation left is negligible.
        spec = L.EllipticCFSpec(worked_spec.alpha, worked_spec.beta, worked_spec.p, worked_spec.q)
        with pytest.raises(DegenerateTermError) as info:
            BM.bm_at_lambda_power(spec, 3).evaluate(1e-12)
        assert info.value.n == 31

    @pytest.mark.parametrize("k", [-1, 0, 3])
    def test_tail_value_formed_once_per_index(self, worked_spec, k, monkeypatch):
        indices = []
        tail_value = BM._tail_value

        def recorded(lam, bv, n):
            indices.append(n)
            return tail_value(lam, bv, n)

        monkeypatch.setattr(BM, "_tail_value", recorded)
        n = BM.bm_at_lambda_power(worked_spec, k).evaluate(1e-12).n
        assert n == self.RECORDED[k][0]
        assert len(indices) == len(set(indices)) <= n + 1


class TestRbmIdentity:
    @pytest.mark.parametrize(
        "q,angles,bound",
        [
            (0.3, (math.sqrt(2.0), 1.0), 1e-10),
            (0.5, (math.sqrt(3.0), math.sqrt(5.0)), 1e-9),
        ],
    )
    def test_identity_residuals(self, q, angles, bound):
        alpha = U.from_angle(angles[0])
        beta = U.from_angle(angles[1])
        lhs, rhs, residual = BM.rbm_identity(q, alpha, beta, tol=1e-13)
        assert residual < bound

    def test_q_zero_degenerates_to_minus_beta(self):
        alpha = U.from_angle(math.sqrt(2.0))
        beta = U.from_angle(1.0)
        lhs, rhs, residual = BM.rbm_identity(0.0, alpha, beta)
        assert lhs.z == pytest.approx(-beta.value, abs=1e-15)
        assert rhs.z == pytest.approx(-beta.value, abs=1e-15)
        assert residual == 0.0

    def test_root_of_unity_rejected(self):
        with pytest.raises(RootOfUnityLambdaError):
            BM.rbm_identity(0.3, U.root_of_unity(1, 4), U.root_of_unity(3, 4))

    @pytest.mark.parametrize(
        "q, tol, message",
        [(1.0, 1e-12, r"\|q\| must be < 1"), (1.5j, 1e-12, r"\|q\| must be < 1"),
         (complex(math.nan, 0.0), 1e-12, r"\|q\| must be < 1"),
         (0.3, 0.0, "tol must be positive"), (0.3, math.nan, "tol must be positive")],
        ids=["q-one", "q-outside", "q-nan", "tol-zero", "tol-nan"],
    )
    def test_q_and_tol_checked_before_the_fraction(self, monkeypatch, q, tol, message):
        def never_evaluated(*args):
            raise AssertionError("the fraction was evaluated")

        monkeypatch.setattr(C, "evaluate", never_evaluated)
        with pytest.raises(ValueError, match=message):
            BM.rbm_identity(q, U.from_angle(math.sqrt(2.0)), U.from_angle(1.0), tol=tol)
