import math

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


class TestWedderburn:
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
        with pytest.raises(UnboundedMProductsError):
            MP.cocycle_limit(pair, 1e-12)

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
