import contextlib
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import mpref
from cflimits import cf as C
from cflimits import limitset as L
from cflimits import matprod as MP
from cflimits.errors import (
    BudgetExceededError,
    InvalidFactorError,
    MNotFiniteOrderError,
    UnboundedMProductsError,
)
from cflimits.limitset import UnitModulusNumber as U
from cflimits.sphere import chordal_distance


def rotation(theta: float) -> np.ndarray:
    return np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]],
        dtype=complex,
    )


def geometric_tail(weight: float, ratio: float):
    return lambda n: weight * ratio ** (n + 1) / (1.0 - ratio)


#: numpy's RuntimeWarning text for an overflow or an inf * 0 in a matrix product.
OVERFLOW_WARNING = "encountered in matmul"


def never_called(i):
    raise AssertionError(f"factor {i} formed before the side was checked")


E = np.array([[0.3 - 0.2j, 0.5 + 0.1j], [-0.4 + 0.25j, 0.15 - 0.35j]])


class TestEntryNorm:
    def test_matches_numpy_max(self):
        rng = np.random.default_rng(12)
        for dim in range(1, 5):
            for scale in (1e-300, 1.0, 1e300):
                a = scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
                assert MP.entry_norm(a).hex() == float(np.max(np.abs(a))).hex()

    def test_nan_entries(self):
        a = np.array([[1.0, complex(math.nan, 0.0)], [2.0j, -3.0]], dtype=complex)
        want = float(np.max(np.abs(a)))
        assert math.isnan(want) and math.isnan(MP.entry_norm(a))

    def test_empty_is_zero(self):
        assert MP.entry_norm(np.zeros((0, 0), dtype=complex)) == 0.0


class TestSideValidation:
    def test_pair(self):
        with pytest.raises(ValueError, match="side"):
            MP.MatrixSequencePair(2, never_called, never_called, side="lft")

    def test_residue_matrix_limits(self):
        with pytest.raises(ValueError, match="side"):
            MP.residue_matrix_limits(never_called, np.eye(2), 1, side="sideways", tail_bound=never_called)

    def test_wedderburn_product(self):
        with pytest.raises(ValueError, match="side"):
            MP.wedderburn_product(never_called, lambda n: 0.0, side="Left")

    def test_pair_is_frozen(self):
        pair = MP.MatrixSequencePair(2, never_called, never_called)
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.side = "lft"
        assert pair.side == "left"


class TestWedderburn:
    @pytest.mark.parametrize(
        "factor", [0.5, np.zeros(2), np.zeros((2, 3)), np.zeros((1, 1, 1))], ids=["scalar", "1d", "2x3", "3d"]
    )
    def test_first_factor_must_be_square(self, factor):
        asked = []

        def a_seq(i):
            asked.append(i)
            return factor

        with pytest.raises(ValueError, match="square matrix"):
            MP.wedderburn_product(a_seq, lambda n: 0.0)
        assert asked == [1]

    def test_zero_terms_give_identity(self):
        got = MP.wedderburn_product(
            lambda i: np.zeros((3, 3)), lambda n: 0.0, 1e-14
        )
        assert MP.entry_norm(got - np.eye(3)) == 0.0

    def test_scalar_geometric_matches_q_product(self):
        from cflimits.qseries import qpochhammer

        q = 0.4
        got = MP.wedderburn_product(
            lambda i: np.array([[q**i]]), geometric_tail(1.0, q), 1e-13
        )
        want = qpochhammer(-q, q, tol=1e-15)  # prod (1 + q^i)
        assert abs(got[0, 0] - want) < 1e-12

    def test_diagonal_componentwise(self):
        got = MP.wedderburn_product(
            lambda i: np.diag([2.0**-i, 3.0**-i]),
            geometric_tail(1.5, 0.5),
            1e-13,
        )
        p1 = p2 = 1.0
        for i in range(1, 80):
            p1 *= 1.0 + 2.0**-i
            p2 *= 1.0 + 3.0**-i
        assert got[0, 0] == pytest.approx(p1, abs=1e-12)
        assert got[1, 1] == pytest.approx(p2, abs=1e-12)
        assert abs(got[0, 1]) == 0.0

    def test_tail_bound_honored(self):
        # Compare an early-stopped product with a much deeper one.
        q = 0.5
        rng = np.random.default_rng(3)
        e = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        seq = lambda i: q**i * e
        rough = MP.wedderburn_product(seq, geometric_tail(MP.entry_norm(e), q), 1e-8)
        sharp = MP.wedderburn_product(seq, geometric_tail(MP.entry_norm(e), q), 1e-15)
        assert MP.entry_norm(rough - sharp) < 1e-8

    def test_budget_error(self):
        with pytest.raises(BudgetExceededError):
            MP.wedderburn_product(
                lambda i: np.eye(2) * 0.5, lambda n: 1.0, 1e-10, max_terms=50
            )

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_each_factor_formed_once(self, side):
        # sha256 of the product's bytes as computed before a_seq(1) was reused.
        want = {
            "left": "23a45cfc1de27e1a4970b4b469cc66f2e98c27da894933de65f3624a098ae784",
            "right": "60fff7629677eb37f2f834ec52182371613893e94e3f2b9c158ff732bdbc9217",
        }[side]
        calls = []

        def a_seq(i):
            calls.append(i)
            return 0.5**i * E

        got = MP.wedderburn_product(a_seq, geometric_tail(MP.entry_norm(E), 0.5), 1e-13, side=side)
        assert calls == list(range(1, len(calls) + 1))
        assert hashlib.sha256(got.tobytes()).hexdigest() == want


    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_factor_raises_at_its_index(self, side, bad):
        # max(1.0, nan) is 1.0, so a NaN product once passed the tail test.
        a_seq = lambda i: np.full((2, 2), bad) if i == 3 else 0.5**i * E
        with pytest.raises(InvalidFactorError, match="A_3 is not finite") as info:
            MP.wedderburn_product(a_seq, lambda n: 0.5**n, 1e-12, side=side)
        assert info.value.n == 3

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_overflowing_product_raises_after_its_factor(self, side):
        # (1 + 1e200)^2 overflows at A_2; max(1.0, nan) is 1.0, so the zero
        # tail bound once returned an all-NaN product.
        a_seq = lambda i: 1e200 * np.eye(2)
        with (
            pytest.warns(RuntimeWarning, match=OVERFLOW_WARNING),
            pytest.raises(InvalidFactorError, match="partial product is not finite after A_2") as info,
        ):
            MP.wedderburn_product(a_seq, lambda n: 1.0 if n < 2 else 0.0, 1e-12, side=side)
        assert info.value.n == 2

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_tail_too_large_for_expm1_is_not_yet(self, side):
        # tail_bound(1) = 1000: expm1 overflows above 709.78 and once raised a bare OverflowError.
        got = MP.wedderburn_product(lambda i: 0.5**i * np.eye(2), lambda i: 2000 * 0.5**i, side=side)
        half = mpref.mp.mpf(0.5)
        want = mpref.partial_product(lambda i: (1 + half**i) * mpref.mp.eye(2), 2, mpref.negligible_index(0.5), side)
        assert got[0, 0].real == pytest.approx(2.38423, abs=1e-5)
        assert mpref.max_abs_error(got, want) < 1e-12

    @pytest.mark.parametrize("tol", [math.inf, 0.0, -1.0, math.nan])
    def test_tol_checked_before_any_factor(self, tol):
        # tol = inf once returned the first partial product; 0, -1 and NaN
        # ran the whole budget before raising.
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            MP.wedderburn_product(never_called, never_called, tol)


class TestResidueMatrixLimits:
    def test_constant_finite_order_cycles(self):
        m = rotation(2.0 * math.pi / 3.0)
        res = MP.residue_matrix_limits(lambda n: m, m, 3, 1e-13, tail_bound=lambda n: 0.0)
        assert MP.entry_norm(res.f - np.eye(2)) < 1e-12
        for j in range(3):
            want = np.linalg.matrix_power(m, j)
            assert MP.entry_norm(res.residue_limits[j] - want) < 1e-12

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_rotation_with_perturbation(self, side):
        m = rotation(2.0 * math.pi / 3.0)
        rng = np.random.default_rng(7)
        e = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        d_seq = lambda n: m + 2.0**-n * e
        res = MP.residue_matrix_limits(
            d_seq, m, 3, 1e-12, side=side, tail_bound=geometric_tail(MP.entry_norm(e), 0.5)
        )

        def direct(j, blocks=45):
            p = np.eye(2, dtype=complex)
            for n in range(1, 3 * blocks + j + 1):
                dn = d_seq(n)
                p = p @ dn if side == "left" else dn @ p
            return p

        for j in range(3):
            assert MP.entry_norm(res.residue_limits[j] - direct(j)) < 1e-8

    def test_diag_parity_alternation(self):
        m = np.diag([1.0, -1.0]).astype(complex)
        d_seq = lambda n: m + np.diag([3.0**-n, 0.0])
        res = MP.residue_matrix_limits(
            d_seq, m, 2, 1e-13, tail_bound=geometric_tail(1.0, 1.0 / 3.0)
        )
        # F diagonal; odd partial products approach F M, even approach F.
        assert abs(res.f[0, 1]) < 1e-12 and abs(res.f[1, 0]) < 1e-12
        p = np.eye(2, dtype=complex)
        for n in range(1, 61):
            p = p @ d_seq(n)
        assert MP.entry_norm(p - res.residue_limits[0]) < 1e-9

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_factor_raises_at_its_index(self, side, bad):
        # max(1.0, nan) is 1.0, so a NaN product once stopped on the tail
        # bound after 10 blocks with an all-NaN F.
        m = rotation(math.pi / 2.0)
        d_seq = lambda n: np.full((2, 2), bad) if n == 5 else m + 0.5**n * E
        # inf * 0 in the period product is NaN, which numpy warns of; NaN itself is silent.
        warns = pytest.warns(RuntimeWarning, match=OVERFLOW_WARNING) if bad == math.inf else contextlib.nullcontext()
        with warns, pytest.raises(InvalidFactorError, match="D_5 is not finite") as info:
            MP.residue_matrix_limits(d_seq, m, 4, side=side, tail_bound=lambda n: 0.5**n)
        assert info.value.n == 5

    def test_overflowing_product_raises_after_its_period(self):
        m = rotation(math.pi / 2.0)
        d_seq = lambda n: 1e200 * m if n <= 2 else m
        with (
            pytest.warns(RuntimeWarning, match=OVERFLOW_WARNING),
            pytest.raises(InvalidFactorError, match="partial product is not finite after D_4") as info,
        ):
            MP.residue_matrix_limits(d_seq, m, 4, tail_bound=lambda n: 0.0)
        assert info.value.n == 4

    # The order-2, 0.95^n product of the finite-order benchmark (seeds 1 and
    # 77): a stability window of 4 periods stopped it 6.7x and 6.4x tol off.
    SLOW_ORDER_TWO = {
        "right": (
            [[-0.9706222314957498 + 0.0029296711043475553j, -0.19281643638466067 - 0.4120482865620027j],
             [-0.06526649156138686 + 0.10997889290816304j, 0.9706222314957499 - 0.0029296711043474326j]],
            [[0.2950664757550941 + 0.05418279141451161j, -0.0898046427619526 - 0.2862431241766308j],
             [0.11588495242107913 - 0.2767140722882814j, 0.13343292508730162 - 0.26869249059593486j]],
        ),
        "left": (
            [[-1.0015357366480468 + 0.0005355217081371575j, -0.11260018649539864 - 0.0060951232658916525j],
             [0.026702173691264448 - 0.010971929403208257j, 1.001535736648047 - 0.000535521708137035j]],
            [[-0.12624667882787127 + 0.2721429331894038j, 0.2627746786769279 + 0.14473931133675225j],
             [0.2714054921081513 + 0.12782432809732353j, -0.20193511071161024 + 0.2218607920789289j]],
        ),
    }

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_slow_order_two_product_within_tol_of_reference(self, side):
        m, e = (np.array(a, dtype=complex) for a in self.SLOW_ORDER_TWO[side])
        tol, ratio = 1e-10, 0.95
        res = MP.residue_matrix_limits(
            lambda n: m + ratio**n * e, m, 2, tol, side=side, tail_bound=geometric_tail(MP.entry_norm(e), ratio)
        )
        m_mp, e_mp = mpref.to_mp(m), mpref.to_mp(e)
        f = mpref.period_limit(lambda n: m_mp + mpref.mp.mpf(ratio) ** n * e_mp, 2, 2, ratio, side)
        assert mpref.max_abs_error(res.f, f) < tol
        assert mpref.max_abs_error(res.residue_limits[1], f * m_mp if side == "left" else m_mp * f) < tol

    def test_wrong_order_rejected(self):
        with pytest.raises(MNotFiniteOrderError):
            MP.residue_matrix_limits(lambda n: rotation(1.0), rotation(1.0), 3, 1e-10, tail_bound=never_called)

    @pytest.mark.parametrize("order", [0, -2])
    def test_order_below_one_rejected(self, order):
        # M^0 = I, so before this check any d_seq gave F = I.
        m = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(ValueError, match="order"):
            MP.residue_matrix_limits(never_called, m, order, 1e-10, tail_bound=never_called)


class TestCocycleLimit:
    def test_equal_sequences_give_identity(self):
        m = rotation(0.7)
        pair = MP.MatrixSequencePair(2, lambda i: m, lambda i: m, lambda n: 0.0)
        res = MP.cocycle_limit(pair, 1e-13)
        assert MP.entry_norm(res.f - np.eye(2)) < 1e-12
        assert res.d_all_nonsingular

    def test_perturbed_rotation_asymptotics(self):
        m = rotation(1.0)
        rng = np.random.default_rng(11)
        e = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        pair = MP.MatrixSequencePair(
            2, lambda i: m + 2.0**-i * e, lambda i: m,
            geometric_tail(MP.entry_norm(e), 0.5),
        )
        res = MP.cocycle_limit(pair, 1e-13)
        assert abs(res.det_f) > 1e-6
        # ||prod D - F prod M|| decreases to zero
        pd = np.eye(2, dtype=complex)
        pm = np.eye(2, dtype=complex)
        errors = []
        for i in range(1, 61):
            pd = pd @ (m + 2.0**-i * e)
            pm = pm @ m
            errors.append(MP.entry_norm(pd - res.f @ pm))
        assert errors[-1] < 1e-12
        assert errors[-1] < errors[0]

    def test_singular_factor_flags_determinant(self):
        m = np.eye(2, dtype=complex)

        def d_seq(i):
            if i == 4:
                return np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)  # singular
            return m + np.eye(2) * 3.0**-i

        pair = MP.MatrixSequencePair(2, d_seq, lambda i: m, geometric_tail(2.0, 1.0 / 3.0))
        res = MP.cocycle_limit(pair, 1e-12)
        assert not res.d_all_nonsingular
        assert abs(res.det_f) < 1e-10

    @pytest.mark.parametrize("bad", ["d", "m"])
    def test_bad_first_factor_of_a_block_raises_at_its_index(self, bad):
        # Steps 1-16 are the first block, so step 17 opens the second with
        # no step the loop may take; without a tail bound it stops at 48.
        m = rotation(0.7)
        d_seq = lambda i: np.full((2, 2), math.nan) if bad == "d" and i == 17 else m + 0.5**i * E
        m_seq = lambda i: rotation(0.8) if bad == "m" and i == 17 else m
        message = "factor D_17 is not finite" if bad == "d" else "M_17 differs from M_1"
        with pytest.raises(InvalidFactorError, match=message) as info:
            MP.cocycle_limit(MP.MatrixSequencePair(2, d_seq, m_seq), 1e-10)
        assert info.value.n == 17

    def test_unbounded_comparison_detected(self):
        grow = np.diag([2.0, 0.5]).astype(complex)
        pair = MP.MatrixSequencePair(2, never_called, lambda i: grow, geometric_tail(0.2, 0.5))
        with pytest.raises(UnboundedMProductsError) as info:
            MP.cocycle_limit(pair, 1e-12)
        assert str(info.value) == "M has an eigenvalue of modulus 2, not 1"

    def test_finite_order_reproduces_residue_limits(self):
        m = rotation(2.0 * math.pi / 3.0)
        rng = np.random.default_rng(5)
        e = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        d_seq = lambda i: m + 2.0**-i * e
        tail = geometric_tail(MP.entry_norm(e), 0.5)
        pair = MP.MatrixSequencePair(2, d_seq, lambda i: m, tail)
        res_cocycle = MP.cocycle_limit(pair, 1e-12)
        res_blocks = MP.residue_matrix_limits(d_seq, m, 3, 1e-12, tail_bound=tail)
        assert MP.entry_norm(res_cocycle.f - res_blocks.f) < 1e-8


class TestProductPredictor:
    def test_n_zero_returns_f(self):
        m = rotation(0.3)
        pair = MP.MatrixSequencePair(2, lambda i: m, lambda i: m, lambda n: 0.0)
        f = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        assert MP.entry_norm(MP.product_predictor(pair, f, 0) - f) == 0.0

    def test_residue_case_periodicity(self):
        m = rotation(2.0 * math.pi / 3.0)
        pair = MP.MatrixSequencePair(2, lambda i: m, lambda i: m, lambda n: 0.0)
        f = np.array([[1.1, 0.2], [-0.3, 0.9]], dtype=complex)
        for j in range(3):
            a = MP.product_predictor(pair, f, 3 * 4 + j)
            b = f @ np.linalg.matrix_power(m, j)
            assert MP.entry_norm(a - b) < 1e-12

    def test_ratio_observable_reproduces_fraction_predictor(self, worked_spec):
        # Transfer-matrix form of the perturbed fraction: row products
        # [[P_{n-1}, P_n], [Q_{n-1}, Q_n]]; the ratio observable of the
        # surrogate F M^n is the same asymptotic law the fraction module
        # predicts through its Moebius map.
        ab = (worked_spec.alpha * worked_spec.beta).value
        absum = worked_spec.alpha.value + worked_spec.beta.value

        def d_seq(i):
            return np.array(
                [[0.0, -ab + worked_spec.q(i)], [1.0, absum + worked_spec.p(i)]],
                dtype=complex,
            )

        m_const = np.array([[0.0, -ab], [1.0, absum]], dtype=complex)
        pair = MP.MatrixSequencePair(
            2, d_seq, lambda i: m_const, worked_spec.tail_bound
        )
        res = MP.cocycle_limit(pair, 1e-12)
        direct = L.compute_h_direct(worked_spec, 1e-12, 5000)
        stream = C.convergents(L.build_cf(worked_spec))
        for n in (200, 201, 350):
            surrogate = MP.product_predictor(pair, res.f, n)
            ratio = surrogate[0, 1] / surrogate[1, 1]
            predicted = L.asymptotic_predictor(worked_spec, direct.h, n)
            assert chordal_distance(ratio, predicted) < 1e-8
        # and the true product's observable equals the fraction's approximant
        pd = np.eye(2, dtype=complex)
        for i in range(1, 201):
            pd = pd @ d_seq(i)
            stream.step()
        assert chordal_distance(pd[0, 1] / pd[1, 1], stream.value()) < 1e-10


class TestInverseMaintenance:
    def test_inverse_consistency_long_run(self):
        m = rotation(0.9)
        pair = MP.MatrixSequencePair(
            2, lambda i: m + 2.0**-i * np.eye(2), lambda i: m,
            geometric_tail(1.0, 0.5),
        )
        # runs through several blocks without raising
        res = MP.cocycle_limit(pair, 1e-14, max_terms=5000)
        assert res.n_terms >= 16


class TestGufuncCalls:
    """The loop makes no LAPACK solve, and an M_i other than M_1 raises
    InvalidFactorError at its step."""

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_singular_comparison_factor_raises_at_its_step(self, side):
        m = rotation(0.7)
        seen = []

        def m_seq(i):
            seen.append(i)
            return np.zeros((2, 2)) if i == 5 else m

        pair = MP.MatrixSequencePair(2, lambda i: m, m_seq, lambda n: 0.5**n, side=side)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidFactorError, match="M_5 differs from M_1") as info:
                MP.cocycle_limit(pair, 1e-12)
        assert info.value.n == 5
        assert max(seen) == MP.BLOCK_STEPS[0]  # one comparison for the first block

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_nan_comparison_factor_raises_at_its_step(self, side):
        bad = np.array([[1e-310, 1e300], [1e-310, math.nan]], dtype=complex)
        m = rotation(0.7)
        pair = MP.MatrixSequencePair(
            2, lambda i: m, lambda i: bad if i == 5 else m, lambda n: 0.5**n, side=side
        )
        with pytest.raises(InvalidFactorError, match="M_5 differs") as info:
            MP.cocycle_limit(pair, 1e-9)
        assert info.value.n == 5

    def test_no_wrapper_call_per_step(self, monkeypatch):
        calls = {"solve": 0, "det": 0}

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(np.linalg, "solve", spy("solve", np.linalg.solve))
        monkeypatch.setattr(np.linalg, "det", spy("det", np.linalg.det))
        m = rotation(0.7)
        pair = MP.MatrixSequencePair(2, lambda i: m + E / (i * i), lambda i: m)
        res = MP.cocycle_limit(pair, 5e-7)
        assert res.n_terms >= 1000 and res.d_all_nonsingular
        # one stacked det per block, and det(F) at the stop
        assert calls["solve"] == 0
        assert calls["det"] <= res.n_terms // MP.BLOCK_STEPS[-1] + len(MP.BLOCK_STEPS) + 1


def cocycle_spec(side: str, tail: bool, singular: bool) -> MP.MatrixSequencePair:
    m = rotation(0.7)

    def d_seq(i):
        if singular and i == 4:
            return np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        return m + (0.5**i if tail else 1.0 / (i * i)) * E

    return MP.MatrixSequencePair(
        2, d_seq, lambda i: m, (lambda n: 0.5**n) if tail else None, side=side
    )


# (side, tail, singular D_4) -> sha256 of f's bytes, n_terms, det_f (real and
# imaginary .hex()), d_all_nonsingular, last_delta.hex(); recorded when the
# loop moved to M's eigenbasis and blocks of steps (n and flags as before; F
# within 4.4e-13 of the step-by-step solve loop's).  tol 1e-9 with a tail,
# 1e-6 without.
RECORDED_COCYCLES = {
    ("left", True, False): ("ebc22cbb6b86371be8b57e91a5f25dd688a26dc68dd2709c6162e399864d3a6a", 32,
        ("0x1.97352d792e467p-1", "-0x1.66bd039550433p-2"), True, "0x1.024ed0cce3a49p-33"),
    ("left", True, True): ("5caa86cba3bc9114fadcd346d6df03f57967b1715d268f02b0035a7078a04dcb", 33,
        ("0x1.8d5867ba15597p-53", "0x1.76e836a190308p-54"), False, "0x1.5807d8ad1660dp-34"),
    ("left", False, False): ("8bf33a9dc2d01d1ae11710632f84d755e3ebd1c61d1e22d5cea63442d303457f", 755,
        ("0x1.6d564c208afb0p-1", "-0x1.51aa08be7e529p-1"), True, "0x1.b5b01050febf7p-21"),
    ("left", False, True): ("ca088261c1f015520fdb7d7ac3ace15bf3dd71d3280787bedeb3365eb1c1886c", 939,
        ("-0x1.b8483c56e8b96p-51", "-0x1.49ca07063dec0p-52"), False, "0x1.98c0b7dd8059ep-21"),
    ("right", True, False): ("aa393c312804c28fba9a667c5ab98b5b70fc56291773b43edf8799479ca02574", 32,
        ("0x1.97352d792e467p-1", "-0x1.66bd039550434p-2"), True, "0x1.ec5b4e8f8d8cfp-34"),
    ("right", True, True): ("049fd857a3555148ffb5208a7d83a2eeb093f927d2468db7309ed8729523ac5e", 33,
        ("0x1.5bc2a1b887cd4p-56", "0x1.246df0d52a217p-54"), False, "0x1.4bf5df96dd468p-34"),
    ("right", False, False): ("99b28342f380822a8f0e647f2025663750b296340775c8a1ffb7bc479caced96", 691,
        ("0x1.6d5c6da7cb7dfp-1", "-0x1.51a8d1084a4d2p-1"), True, "0x1.ffdee61dd9e50p-21"),
    ("right", False, True): ("baeef6a6189557af510d574c3ce50631e5c6f2838174be7a4e2d046fdcf8c70f", 993,
        ("0x1.3cc21b151cd25p-51", "-0x1.fdd407dda86e6p-53"), False, "0x1.b39b2c17b13f1p-21"),
}


@pytest.mark.parametrize("side, tail, singular", RECORDED_COCYCLES)
def test_cocycle_matches_recorded_bits(side, tail, singular):
    f_sha, n, det_f, nonsingular, delta = RECORDED_COCYCLES[side, tail, singular]
    res = MP.cocycle_limit(cocycle_spec(side, tail, singular), 1e-9 if tail else 1e-6)
    assert hashlib.sha256(res.f.tobytes()).hexdigest() == f_sha
    assert res.n_terms == n
    assert (res.det_f.real.hex(), res.det_f.imag.hex()) == det_f
    assert res.d_all_nonsingular is nonsingular
    assert res.last_delta.hex() == delta


@pytest.mark.parametrize("side", ["left", "right"])
def test_ill_conditioned_eigenbasis_matches_reference(side):
    # M = S R(0.7) S^-1 with S = [[1, 8], [0, 1]]: cond(S) ~ 66, so roundoff in
    # mu^-n and in S diag(mu^-n) S^-1 is amplified by up to cond(S)^2 per step.
    s = np.array([[1.0, 8.0], [0.0, 1.0]], dtype=complex)
    m = s @ rotation(0.7) @ np.linalg.inv(s)
    pair = MP.MatrixSequencePair(2, lambda i: m + E * (1e-4 * 0.9**i), lambda i: m, side=side)
    res = MP.cocycle_limit(pair, 1e-9)
    assert res.n_terms == 194  # a window stop
    m_mp, e_mp = mpref.to_mp(m), mpref.to_mp(E)
    exact = mpref.partial_cocycle(lambda i: m_mp + mpref.mp.mpf(1e-4 * 0.9**i) * e_mp, m, res.n_terms, side)
    bound = res.n_terms * np.linalg.cond(s) ** 2 * np.finfo(float).eps
    assert mpref.max_abs_error(res.f, exact) < bound


class TestCocycleBudgetTail:
    """A tail bound that cannot fall under tol within the budget is read once, at the budget."""

    @staticmethod
    def bits(res):
        return (hashlib.sha256(res.f.tobytes()).hexdigest(), res.n_terms,
                (res.det_f.real.hex(), res.det_f.imag.hex()), res.d_all_nonsingular, res.last_delta.hex())

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_futile_bound_is_read_once_and_changes_no_bit(self, side):
        # sum_{i>N} ||E||/i^2 <= 1/N, and d^2 B^2 / 200_000 = 2e-5 >= tol for the rotation.
        calls = []
        base = cocycle_spec(side, tail=False, singular=False)
        pair = dataclasses.replace(base, tail_bound=lambda n: calls.append(n) or 1.0 / max(n, 1))
        res = MP.cocycle_limit(pair, 1e-6)
        assert calls == [200_000]
        assert self.bits(res) == RECORDED_COCYCLES[side, False, False]
        assert self.bits(MP.cocycle_limit(base, 1e-6)) == RECORDED_COCYCLES[side, False, False]

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("at_budget", [None, math.nan, -1.0])
    def test_bound_read_each_formed_step_unless_futile(self, side, at_budget):
        calls, formed = [], []
        base = cocycle_spec(side, tail=True, singular=False)
        tail = lambda n: at_budget if at_budget is not None and n == 200_000 else base.tail_bound(n)
        pair = dataclasses.replace(base, d_seq=lambda i: formed.append(i) or base.d_seq(i),
                                   tail_bound=lambda n: calls.append(n) or tail(n))
        res = MP.cocycle_limit(pair, 1e-9)
        assert calls == [200_000] + formed
        assert self.bits(res) == RECORDED_COCYCLES[side, True, False]


class TestCocycleFactorShapes:
    """Factors need only reshape to d x d, as at any step of a step-by-step loop."""

    @staticmethod
    def run(side, shape):
        base = cocycle_spec(side, tail=False, singular=False)
        def d_seq(i):
            d = base.d_seq(i)
            return d.ravel().tolist() if shape == "flat" or (shape == "mixed" and i % 3) else d.tolist()
        return MP.cocycle_limit(dataclasses.replace(base, d_seq=d_seq), 1e-6)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("shape", ["flat", "nested", "mixed"])
    def test_lists_give_the_recorded_bits(self, side, shape):
        res = self.run(side, shape)
        assert TestCocycleBudgetTail.bits(res) == RECORDED_COCYCLES[side, False, False]

    @pytest.mark.parametrize("at", [3, 20, 100])
    @pytest.mark.parametrize("bad", [[1.0] * 5, np.ones((3, 3)), [[1.0, 0.0], [0.0]]], ids=["size-5", "3x3", "ragged"])
    def test_wrong_size_raises_the_numpy_error(self, at, bad):
        # The error of converting that one factor, e.g. "cannot reshape array of size 5 into shape (2,2)".
        with pytest.raises(ValueError) as expected:
            np.asarray(bad, dtype=complex).reshape(2, 2)
        m = rotation(0.7)
        pair = MP.MatrixSequencePair(2, lambda i: bad if i == at else (m + E / (i * i)).ravel().tolist(),
                                     lambda i: m)
        with pytest.raises(ValueError) as info:
            MP.cocycle_limit(pair, 1e-6)
        assert str(info.value) == str(expected.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_flat_factor_raises_at_its_index(self, bad):
        m = rotation(0.7)
        d_seq = lambda i: [bad] * 4 if i == 21 else (m + E / (i * i)).ravel().tolist()
        with pytest.raises(InvalidFactorError, match="D_21 is not finite") as info:
            MP.cocycle_limit(MP.MatrixSequencePair(2, d_seq, lambda i: m, lambda n: 1.0 / n), 1e-6)
        assert info.value.n == 21


class TestCocycleReference:
    """cocycle_limit against 40-digit references that share no code with it."""

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_commuting_closed_form(self, reasons, side, tol):
        # D_i = M (I + r^i E), M = S diag(mu) S^-1, E = S diag(x^2) S^-1:
        # F = S diag(prod (1 + x_j^2 r^i)) S^-1 on either side.
        s = np.array([[1.0, 0.4 - 0.3j], [0.2 + 0.5j, 1.0]])
        xs, r = (0.6, 0.35), 0.5
        m = s @ np.diag(np.exp(1j * np.array([0.3, 2.1]))) @ np.linalg.inv(s)
        me = m @ s @ np.diag(np.square(xs)) @ np.linalg.inv(s)
        pair = MP.MatrixSequencePair(2, lambda i: m + r**i * me, lambda i: m,
                                     geometric_tail(MP.entry_norm(me), r), side=side)
        res = MP.cocycle_limit(pair, tol)
        assert reasons == ["tail-bound"]
        assert mpref.max_abs_error(res.f, mpref.commuting_cocycle(s, xs, r)) < tol

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_non_commuting_geometric(self, reasons, side):
        s = np.array([[1.0, 2.0], [0.5, 1.5]], dtype=complex)
        m = s @ rotation(1.1) @ np.linalg.inv(s)
        pair = MP.MatrixSequencePair(2, lambda i: m + 0.5**i * E, lambda i: m,
                                     geometric_tail(MP.entry_norm(E), 0.5), side=side)
        res = MP.cocycle_limit(pair, 1e-11)
        assert reasons == ["tail-bound"]
        m_mp, e_mp = mpref.to_mp(m), mpref.to_mp(E)
        limit = mpref.partial_cocycle(lambda i: m_mp + mpref.mp.mpf(0.5) ** i * e_mp, m,
                                      mpref.negligible_index(0.5), side)
        assert mpref.max_abs_error(res.f, limit) < 1e-11


class TestCocycleBlocks:
    """Blocks of steps behave as a step-by-step loop at their edges."""

    @pytest.mark.parametrize("max_terms", [1, 16, 20, 49, 200])
    def test_no_factor_past_max_terms(self, max_terms):
        m = rotation(0.7)
        calls = []
        pair = MP.MatrixSequencePair(2, lambda i: calls.append(i) or m + E / (i * i), lambda i: m)
        with pytest.raises(BudgetExceededError, match=f"after {max_terms} factors"):
            MP.cocycle_limit(pair, 1e-12, max_terms)
        assert calls == list(range(1, max_terms + 1))

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("tail", [None, geometric_tail(MP.entry_norm(E), 0.5), lambda n: 0.0])
    def test_at_most_one_block_past_the_stop(self, side, tail):
        m = rotation(0.7)
        calls = []
        pair = MP.MatrixSequencePair(2, lambda i: calls.append(i) or m + 0.5**i * E, lambda i: m, tail, side=side)
        res = MP.cocycle_limit(pair, 1e-10)
        assert calls == list(range(1, len(calls) + 1))
        assert res.n_terms <= len(calls) < res.n_terms + MP.BLOCK_STEPS[-1]

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("singular_at, flag", [(1, False), (2, True)])
    def test_d_all_nonsingular_counts_only_steps_to_the_stop(self, side, singular_at, flag):
        m = rotation(0.7)
        singular = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        pair = MP.MatrixSequencePair(2, lambda i: singular if i == singular_at else m, lambda i: m,
                                     lambda n: 0.0, side=side)
        res = MP.cocycle_limit(pair, 1e-10)  # a zero tail bound stops at n = 1
        assert res.n_terms == 1
        assert res.d_all_nonsingular is flag

    @pytest.mark.parametrize(
        "m, message",
        [
            ([[1.0, 1.0], [0.0, 1.0]], "not \\(numerically\\) diagonalizable"),
            ([[1.0, 0.0], [0.0, 0.0]], "modulus 0"),
            ([[0.0, -1.0], [1.0 + 1e-6, 0.0]], "not 1"),
        ],
        ids=["jordan", "singular", "off-circle"],
    )
    def test_bad_m_rejected_before_any_factor(self, m, message):
        m = np.array(m, dtype=complex)
        pair = MP.MatrixSequencePair(2, never_called, lambda i: m, lambda n: 0.5**n)
        with pytest.raises(UnboundedMProductsError, match=message):
            MP.cocycle_limit(pair)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_factor_raises_at_its_index(self, side, bad):
        # max(1.0, nan) is 1.0, so a NaN factor once let the loop stop on
        # the tail bound with an all-NaN F.
        m = rotation(0.7)
        d_seq = lambda i: np.full((2, 2), bad) if i == 5 else m + 0.5**i * E
        pair = MP.MatrixSequencePair(2, d_seq, lambda i: m, lambda n: 0.5**n, side=side)
        with pytest.raises(InvalidFactorError, match="D_5 is not finite") as info:
            MP.cocycle_limit(pair, 1e-9)
        assert info.value.n == 5

    def test_non_finite_factor_past_the_stop_is_not_reached(self):
        m = rotation(0.7)
        pair = MP.MatrixSequencePair(2, lambda i: np.full((2, 2), math.nan) if i == 5 else m, lambda i: m,
                                     lambda n: 0.0)
        assert MP.cocycle_limit(pair).n_terms == 1


class TestCocycleSteps:
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("step", [1, 64, 65])
    def test_singular_comparison_factor(self, side, step):
        m = rotation(0.7)
        formed = {"d": 0, "m": 0}

        def d_seq(i):
            formed["d"] += 1
            return m + E / (i * i)

        def m_seq(i):
            formed["m"] += 1
            return np.zeros((2, 2)) if i == step else m

        pair = MP.MatrixSequencePair(2, d_seq, m_seq, side=side)
        if step == 1:  # M itself is singular: rejected before any D_i
            with pytest.raises(UnboundedMProductsError, match="modulus 0"):
                MP.cocycle_limit(pair, 1e-12)
            assert formed == {"d": 0, "m": 1}
            return
        with pytest.raises(InvalidFactorError, match=f"M_{step} differs") as info:
            MP.cocycle_limit(pair, 1e-12)
        assert info.value.n == step
        # the rest of step's block is formed, nothing after it; M_1 once more up front
        assert step <= formed["d"] < step + MP.BLOCK_STEPS[-1]
        assert formed["m"] == formed["d"] + 1

    def test_entry_norm_calls_do_not_grow_per_step(self, monkeypatch):
        norm = MP.entry_norm
        calls = 0

        def counting(a):
            nonlocal calls
            calls += 1
            return norm(a)

        monkeypatch.setattr(MP, "entry_norm", counting)
        m = rotation(0.7)
        pair = MP.MatrixSequencePair(2, lambda i: m + E / (i * i), lambda i: m)
        res = MP.cocycle_limit(pair, 5e-7)
        assert res.n_terms >= 1000
        assert calls <= 2


# Factors built from plain lists, so that in a fresh interpreter the call is
# the process's first use of numpy (numpy loads on first attribute access).
FIRST_USE_CASE = """
import math, sys
import cflimits
c, s = math.cos(0.7), math.sin(0.7)
pair = cflimits.MatrixSequencePair(
    2,
    lambda i: [[c + 0.3 / i**2, -s + 0.5j / i**2], [s - 0.4 / i**2, c + 0.15j / i**2]],
    lambda i: [[c, -s], [s, c]],
    lambda n: 1.5 / n,
)
numpy_loaded = "numpy.linalg" in sys.modules
res = cflimits.cocycle_limit(pair, 1e-4)
answer = (res.f.tobytes().hex(), res.n_terms, repr(res.det_f), res.d_all_nonsingular, repr(res.last_delta))
"""


class TestFreshInterpreter:
    def test_cocycle_limit_as_first_numpy_use_gives_same_bytes(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(MP.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = FIRST_USE_CASE + "print(numpy_loaded)\nprint(repr(answer))\n"
        proc = subprocess.run(
            [sys.executable, "-c", probe], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        namespace = {}
        exec(FIRST_USE_CASE, namespace)
        assert namespace["answer"][1] > sum(MP.BLOCK_STEPS)  # several blocks
        assert proc.stdout.splitlines() == ["False", repr(namespace["answer"])]
