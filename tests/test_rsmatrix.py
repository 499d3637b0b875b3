import dataclasses

import numpy as np
import pytest

from cflimits import cf as C
from cflimits import matprod as MP
from cflimits import rsmatrix as RS
from cflimits.errors import SingularBError


def classical_theta(terms):
    return lambda k: np.array([[0.0, 1.0], [terms[k][0], terms[k][1]]], dtype=complex)


class TestFProjection:
    def test_scalar_case(self):
        d = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        got = RS.f_projection(d, 1, 1)
        assert got.shape == (1, 1)
        assert got[0, 0] == 3.0 / 4.0

    def test_identity_gives_zero_block(self):
        got = RS.f_projection(np.eye(3, dtype=complex), 1, 2)
        assert got.shape == (2, 1)
        assert np.max(np.abs(got)) == 0.0

    def test_random_2_2_against_direct_solve(self):
        rng = np.random.default_rng(9)
        d = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        got = RS.f_projection(d, 2, 2)
        b = d[2:, 2:]
        a = d[2:, :2]
        want = np.linalg.inv(b) @ a
        assert np.max(np.abs(got - want)) < 1e-12

    def test_singular_block(self):
        d = np.eye(2, dtype=complex)
        d[1, 1] = 0.0
        with pytest.raises(SingularBError):
            RS.f_projection(d, 1, 1)

    def test_singular_trailing_block_of_size_two(self):
        d = np.eye(3, dtype=complex)
        d[2, 2] = 0.0
        with pytest.raises(SingularBError):
            RS.f_projection(d, 1, 2)

    def test_shape_checked(self):
        with pytest.raises(ValueError, match=r"matrix is \(2, 2\), expected \(3, 3\)"):
            RS.f_projection(np.eye(2, dtype=complex), 1, 2)

    def test_continuity_near_regular_points(self):
        rng = np.random.default_rng(21)
        d = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        base = RS.f_projection(d, 2, 2)
        bumped = RS.f_projection(d + 1e-10 * np.ones((4, 4)), 2, 2)
        assert np.max(np.abs(base - bumped)) < 1e-7


class TestApproximants:
    def test_classical_equivalence_is_exact(self):
        rng = np.random.default_rng(42)
        terms = {
            k: (
                complex(rng.normal(), rng.normal()),
                complex(rng.normal(), rng.normal()),
            )
            for k in range(1, 31)
        }
        fraction = C.ContinuedFraction(0.0, lambda n: terms[n])
        system = RS.RSSystem(1, 1, classical_theta(terms))
        stream = C.convergents(fraction)
        for k, sk in RS.rs_approximants(system, 30):
            stream.step()
            value = stream.value()
            if value.is_infinity:
                assert sk is None
            else:
                assert complex(sk[0, 0]) == value.z  # bit-for-bit

    def test_rescaled_product_keeps_classical_bits(self):
        # K(1/1): the product's entries pass 1e150 near k = 740 and are
        # rescaled by a power of two, as the stream's pairs are.
        system = RS.RSSystem(1, 1, lambda k: np.array([[0.0, 1.0], [1.0, 1.0]]))
        stream = C.convergents(C.ContinuedFraction(0.0, lambda n: (1.0, 1.0)))
        for k, sk in RS.rs_approximants(system, 900):
            stream.step()
            assert complex(sk[0, 0]) == stream.value().z, k
        assert stream.exponent > 0

    def test_constant_finite_order_is_periodic(self):
        perm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
        system = RS.RSSystem(2, 1, lambda k: perm)
        values = {}
        for k, sk in RS.rs_approximants(system, 12):
            if sk is not None:
                values[k] = sk
        for k in values:
            if k + 3 in values:
                assert np.max(np.abs(values[k] - values[k + 3])) == 0.0

    def test_incremental_matches_from_scratch(self):
        rng = np.random.default_rng(3)
        mats = {k: rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for k in range(1, 51)}
        system = RS.RSSystem(1, 2, lambda k: mats[k])
        results = dict(RS.rs_approximants(system, 50))
        for k in (1, 7, 20, 50):
            product = np.eye(3, dtype=complex)
            for i in range(1, k + 1):
                product = mats[i] @ product
            want = RS.f_projection(product, 1, 2)
            assert np.max(np.abs(results[k] - want)) < 1e-9 * max(
                1.0, np.max(np.abs(want))
            )

    def test_dense_orbit_spreads(self):
        # The unperturbed 4/3 system produces approximants whose real parts
        # wander over a wide range instead of settling.
        terms = {k: (-1.0, 4.0 / 3.0) for k in range(1, 2001)}
        system = RS.RSSystem(1, 1, classical_theta(terms))
        reals = [
            float(sk[0, 0].real)
            for _, sk in RS.rs_approximants(system, 2000)
            if sk is not None and abs(sk[0, 0]) < 50.0
        ]
        assert max(reals) - min(reals) > 10.0


class TestAsymptotics:
    def test_constant_theta_gives_identity_cocycle(self):
        theta = np.array([[0.0, 1.0], [-1.0, 4.0 / 3.0]], dtype=complex)
        system = RS.RSSystem(1, 1, lambda k: theta, theta, lambda n: 0.0)
        asym = RS.rs_asymptotics(system, 1e-12)
        assert np.max(np.abs(asym.f_matrix - np.eye(2))) < 1e-12
        power = asym.theta_power(7)
        assert np.max(np.abs(power - np.linalg.matrix_power(theta, 7))) < 1e-10

    def test_elliptic_scalar_instance(self):
        theta = np.array([[0.0, 1.0], [-1.0, 4.0 / 3.0]], dtype=complex)
        system = RS.RSSystem(
            1,
            1,
            lambda k: np.array(
                [[0.0, 1.0], [-1.0 + 0.2**k * 1j, 4.0 / 3.0 + 0.3**k]], dtype=complex
            ),
            theta,
            lambda n: 0.2 ** (n + 1) / 0.8 + 0.3 ** (n + 1) / 0.7,
        )
        asym = RS.rs_asymptotics(system, 1e-12)
        worst = 0.0
        for k, sk in RS.rs_approximants(system, 1000):
            if k >= 500 and sk is not None:
                predicted = asym.predictor(k)
                worst = max(worst, float(np.max(np.abs(sk - predicted))))
        assert worst < 1e-6

    def test_finite_order_residue_limits(self):
        perm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
        rng = np.random.default_rng(12)
        e = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        system = RS.RSSystem(
            1,
            2,
            lambda k: perm + 0.4**k * e,
            perm,
            lambda n: float(np.max(np.abs(e))) * 3 * 0.4 ** (n + 1) / 0.6,
        )
        asym = RS.rs_asymptotics(system, 1e-12)
        last = {}
        for k, sk in RS.rs_approximants(system, 400):
            if sk is not None and k > 360:
                last[k % 3] = sk
        for j, sk in last.items():
            target = RS.f_projection(
                np.linalg.matrix_power(perm, j) @ asym.f_matrix, 1, 2
            )
            assert np.max(np.abs(sk - target)) < 1e-8

    def test_theta_limit_decomposed_once_per_system(self, monkeypatch):
        # The system keeps the basis it validated theta_limit with; only
        # cocycle_limit decomposes its M again.
        calls = []
        unit_eigenbasis = MP.unit_eigenbasis
        monkeypatch.setattr(MP, "unit_eigenbasis", lambda m: calls.append(m) or unit_eigenbasis(m))
        theta = np.array([[0.0, 1.0], [-1.0, 4.0 / 3.0]], dtype=complex)
        system = RS.RSSystem(
            1, 1, lambda k: theta + np.array([[0.0, 0.0], [0.2**k, 0.0]]), theta, lambda n: 0.2 ** (n + 1) / 0.8
        )
        asym = RS.rs_asymptotics(system, 1e-12)
        assert len(calls) == 2
        RS.rs_asymptotics(system, 1e-12)
        assert len(calls) == 3
        mu, s, s_inv = unit_eigenbasis(theta)
        assert np.array_equal(asym.theta_power(7), s @ np.diag(mu**7) @ s_inv)

    def test_list_factors_give_the_array_bits(self):
        # rs_asymptotics hands theta_k to the cocycle as it comes; the cocycle converts it.
        theta = [[0.0, 1.0], [-1.0, 4.0 / 3.0]]
        rows = lambda k: [[0.0, 1.0], [-1.0 + 0.2**k * 1j, 4.0 / 3.0 + 0.3**k]]
        tail = lambda n: 0.2 ** (n + 1) / 0.8 + 0.3 ** (n + 1) / 0.7
        got = [
            RS.rs_asymptotics(RS.RSSystem(1, 1, factor, theta, tail), 1e-12)
            for factor in (rows, lambda k: np.array(rows(k), dtype=complex))
        ]
        assert got[0].n_terms == got[1].n_terms
        assert got[0].f_matrix.tobytes() == got[1].f_matrix.tobytes()

    @pytest.mark.parametrize("r, s", [(0, 1), (1, 0), (-1, 2)])
    def test_block_sizes_must_be_positive(self, r, s):
        with pytest.raises(ValueError, match="r and s must be positive"):
            RS.RSSystem(r, s, lambda k: np.eye(2, dtype=complex))

    def test_limit_shape_checked(self):
        with pytest.raises(ValueError, match="theta_limit has the wrong shape"):
            RS.RSSystem(1, 1, lambda k: np.eye(2, dtype=complex), np.eye(3, dtype=complex))

    def test_factor_shape_checked_at_its_index(self):
        system = RS.RSSystem(1, 1, lambda k: np.eye(3 if k == 4 else 2, dtype=complex))
        with pytest.raises(ValueError, match=r"theta\(4\) has shape \(3, 3\), expected \(2, 2\)"):
            list(RS.rs_approximants(system, 10))

    def test_missing_limit_rejected(self):
        system = RS.RSSystem(1, 1, lambda k: np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            RS.rs_asymptotics(system)

    def test_non_unit_spectrum_rejected(self):
        with pytest.raises(ValueError):
            RS.RSSystem(
                1, 1, lambda k: np.eye(2, dtype=complex),
                np.diag([2.0, 1.0]).astype(complex),
            )

    def test_system_is_frozen(self):
        theta = np.array([[0.0, 1.0], [-1.0, 4.0 / 3.0]])
        system = RS.RSSystem(1, 1, lambda k: theta, theta.tolist())
        assert system.theta_limit.dtype == complex  # normalized by the constructor
        with pytest.raises(dataclasses.FrozenInstanceError):
            system.theta_limit = 2 * np.eye(2)
        assert np.array_equal(system.theta_limit, theta)
