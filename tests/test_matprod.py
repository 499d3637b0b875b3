import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cflimits import cf as C
from cflimits import limitset as L
from cflimits import matprod as MP
from cflimits.errors import (
    BudgetExceededError,
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
            MP.residue_matrix_limits(never_called, np.eye(2), 1, side="sideways")

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

    def test_wrong_order_rejected(self):
        with pytest.raises(MNotFiniteOrderError):
            MP.residue_matrix_limits(lambda n: rotation(1.0), rotation(1.0), 3, 1e-10)

    @pytest.mark.parametrize("order", [0, -2])
    def test_order_below_one_rejected(self, order):
        # M^0 = I, so before this check any d_seq gave F = I.
        m = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(ValueError, match="order"):
            MP.residue_matrix_limits(never_called, m, order, 1e-10)


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

    def test_unbounded_comparison_detected(self):
        grow = np.diag([2.0, 0.5]).astype(complex)
        pair = MP.MatrixSequencePair(
            2,
            lambda i: grow + 0.5**i * np.eye(2) * 0.1,
            lambda i: grow,
            geometric_tail(0.2, 0.5),
            norm_ceiling=1e4,
        )
        with pytest.raises(UnboundedMProductsError) as info:
            MP.cocycle_limit(pair, 1e-12)
        assert str(info.value) == (
            "comparison product norm 1.64e+04 crossed the ceiling 1e+04 at step 14"
        )

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
        # runs through several checkpoints without raising
        res = MP.cocycle_limit(pair, 1e-14, max_terms=5000)
        assert res.n_terms >= 16


def as_bytes(x) -> bytes:
    return np.asarray(x).tobytes()


class TestGufuncCalls:
    """The bare LAPACK gufuncs give the wrappers' bits, and the loop keeps
    np.linalg.solve's error for a singular M_i."""

    @staticmethod
    def operands(rng, dim):
        for scale in (1e-150, 1e-50, 1.0, 1e50, 1e150):
            yield scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        if dim > 1:  # cond(a) = 1e12
            q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            yield q1 @ np.diag(np.logspace(0, -12, dim)) @ q2

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_bit_equal_to_wrappers(self, dim):
        rng = np.random.default_rng(40 + dim)
        with np.errstate(all="ignore"):
            for a in self.operands(rng, dim):
                b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                for x, y in ((a, b), (a.T, b), (a, b.T), (a.T, b.T)):
                    assert as_bytes(MP._solve(x, y)) == as_bytes(np.linalg.solve(x, y))
                    out = np.empty((dim, dim), dtype=complex)
                    MP._solve(x, y, out=out.T)
                    assert as_bytes(out.T.copy()) == as_bytes(np.linalg.solve(x, y))
                    assert as_bytes(MP._det(x)) == as_bytes(np.linalg.det(x))

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
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                MP.cocycle_limit(pair, 1e-12)
        assert seen[-1] == 5

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_other_nan_runs_on_as_before(self, side):
        # LAPACK solves this without a zero pivot but returns NaN (inf - inf);
        # np.linalg.solve does not raise, so the loop reaches the ceiling check.
        bad = np.array([[1e-310, 1e300], [1e-310, 1e300]], dtype=complex)
        m = rotation(0.7)
        pair = MP.MatrixSequencePair(
            2, lambda i: m, lambda i: bad if i == 5 else m, lambda n: 0.5**n, side=side
        )
        with pytest.raises(UnboundedMProductsError, match="at step 5"):
            MP.cocycle_limit(pair, 1e-9)

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
        assert calls == {"solve": 0, "det": 1}  # det(F) at the stop


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
# imaginary .hex()), d_all_nonsingular, last_delta.hex(); recorded before the
# loop called the LAPACK gufuncs directly.  tol 1e-9 with a tail, 1e-6 without.
RECORDED_COCYCLES = {
    ("left", True, False): ("5cb188f09ac01c0a074974db766f60b5badf10ac501f8b300c96715bf895c63b", 32,
        ("0x1.97352d792e40fp-1", "-0x1.66bd0395503d0p-2"), True, "0x1.024ee855c525ep-33"),
    ("left", True, True): ("0116490d25a761b3577fe35ec7b25e875647f7cb2a460be55bebe735d377091b", 33,
        ("0x1.8fec0fc355c87p-52", "-0x1.dd8b4331e701ep-54"), False, "0x1.5808037727421p-34"),
    ("left", False, False): ("8040eb57db8075340e89fa965bc612a80a0d3407b93c8c4b5d09890b1d145ffc", 755,
        ("0x1.6d564c208a89bp-1", "-0x1.51aa08be7dd25p-1"), True, "0x1.b5b0104f43962p-21"),
    ("left", False, True): ("76fdd3c568a798e32e0de12a4cd8433704f339acafcae377b7ec596d3ae4d4b9", 939,
        ("0x1.5ca08b794a945p-49", "0x1.29ea01ffd4aa0p-49"), False, "0x1.98c0b7d00c503p-21"),
    ("right", True, False): ("5931cb53a51ded2c9a344949d2d891d6ae69ad81d9916ae478121e9606bde6cc", 32,
        ("0x1.97352d792e40ep-1", "-0x1.66bd0395503d6p-2"), True, "0x1.ec5b751710353p-34"),
    ("right", True, True): ("89b49cb3d13789df2de946d50fed2a8961966d7f21359fd79d905bbaaf7a6315", 33,
        ("-0x1.4fe6450c3b196p-52", "-0x1.da327fe398f64p-55"), False, "0x1.4bf650152d0d4p-34"),
    ("right", False, False): ("0f95192c5c82bcb41e91ae1d28f709f04b99dffb973686074e39f2892bbe3401", 691,
        ("0x1.6d5c6da7cb144p-1", "-0x1.51a8d10849d57p-1"), True, "0x1.ffdee61ff4aebp-21"),
    ("right", False, True): ("92227cbcb2acad2259093539d60bb1cbb7cc8fe616f3d63fae08bcfb8828ae54", 993,
        ("-0x1.e9c361b02ffd4p-48", "0x1.d90215325f93ep-49"), False, "0x1.b39b2c1e35b4fp-21"),
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


# M = S R(0.7) S^-1 with S = [[1, 8], [0, 1]]: the incrementally solved inverse
# drifts past 1e-12 by step 64, so every check (64, 128, 192) re-inverts.
DRIFTING_COCYCLES = {
    "left": ("a369cd753341e734a365c21868a7b3b3797b67813fa1e6298d721be440ea22ac", 194,
        ("0x1.f7faaa0dc9e7ap-1", "0x1.0b9915a31ec69p-7"), "0x1.8aca201e4f506p-39"),
    "right": ("34dbeb2fa0838eeb61768930db302184a5e6a62eba94dc623b07d4f1226bc16e", 194,
        ("0x1.f7faaa0dca2edp-1", "0x1.0b9915a31f330p-7"), "0x1.95b26bd46c763p-39"),
}


@pytest.mark.parametrize("side", sorted(DRIFTING_COCYCLES))
def test_inverse_drift_reinversion_matches_recorded_bits(side, monkeypatch):
    s = np.array([[1.0, 8.0], [0.0, 1.0]], dtype=complex)
    m = s @ rotation(0.7) @ np.linalg.inv(s)
    inv = np.linalg.inv
    calls = []
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(1) or inv(a))
    pair = MP.MatrixSequencePair(2, lambda i: m + E * (1e-4 * 0.9**i), lambda i: m, side=side)
    res = MP.cocycle_limit(pair, 1e-9)
    f_sha, n, det_f, delta = DRIFTING_COCYCLES[side]
    assert len(calls) == 3
    assert hashlib.sha256(res.f.tobytes()).hexdigest() == f_sha
    assert res.n_terms == n
    assert (res.det_f.real.hex(), res.det_f.imag.hex()) == det_f
    assert res.last_delta.hex() == delta


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
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            MP.cocycle_limit(pair, 1e-12)
        assert formed == {"d": step, "m": step}

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
        assert calls <= res.n_terms // MP.INVERSE_CHECK_EVERY + 2


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
        assert namespace["answer"][1] > MP.INVERSE_CHECK_EVERY
        assert proc.stdout.splitlines() == ["False", repr(namespace["answer"])]
