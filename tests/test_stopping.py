"""The shared stopping rule.

Unit tests of ``cf.Monitor``, and the stop index of every routine that
stops through it, pinned to the indices its earlier hand-written stopping
loop gave.  Where a routine also takes a tail bound, it is pinned stopping
on that bound, on the window once the bound is removed, and on a zero
bound, which shows the first step or block allowed to stop on it.
"""

import math

import numpy as np
import pytest

from cflimits import bauermuir, cf, limitset, matprod, recur
from cflimits.limitset import EllipticCFSpec, UnitModulusNumber, geometric_spec

GOLDEN = cf.ContinuedFraction(1.0, lambda n: (1.0, 1.0))


@pytest.fixture
def reasons(monkeypatch):
    """Every stop reason a Monitor returns while the test runs, in order."""
    seen = []
    update = cf.Monitor.update

    def spy(self, delta, tail_bound=None):
        reason = update(self, delta, tail_bound)
        if reason is not None:
            seen.append(reason)
        return reason

    monkeypatch.setattr(cf.Monitor, "update", spy)
    return seen


def without_tail(spec):
    return EllipticCFSpec(spec.alpha, spec.beta, spec.p, spec.q)


def unperturbed(spec):
    """The same unit-circle pair with p = q = 0, whose tail bound is 0 throughout."""
    return geometric_spec(spec.alpha, spec.beta)


ZERO_TAIL = lambda n: 0.0


@pytest.fixture(scope="module")
def sixth_root_spec():
    # The README's root-of-unity example.
    return geometric_spec(
        UnitModulusNumber.root_of_unity(1, 6),
        UnitModulusNumber.root_of_unity(5, 6),
        p_coeff=1.0, p_ratio=1 / 7, q_coeff=1.0, q_ratio=1 / 5,
    )


def rotation(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]], dtype=complex)


E = np.array([[0.3, -0.2], [0.1, 0.4]], dtype=complex)
E_TAIL = cf.geometric_tail(float(np.max(np.abs(E))), 0.5)


class TestMonitor:
    def test_large_step_resets_count(self):
        monitor = cf.Monitor(1e-3, 3)
        assert monitor.update(1e-4) is None
        assert monitor.update(1e-4) is None
        assert monitor.update(1.0) is None
        assert monitor.stable == 0
        assert monitor.update(1e-4) is None
        assert monitor.update(1e-4) is None
        assert monitor.update(1e-4) == "window"

    def test_window_stop_after_exactly_window_small_steps(self):
        monitor = cf.Monitor(1e-3, 4)
        assert [monitor.update(1e-5) for _ in range(4)] == [None, None, None, "window"]
        assert monitor.last_delta == 1e-5

    def test_step_equal_to_tol_is_not_small(self):
        monitor = cf.Monitor(1e-3, 1)
        assert monitor.update(1e-3) is None
        assert monitor.update(math.inf) is None

    def test_tail_bound_stop_on_first_sample_under_tol(self):
        monitor = cf.Monitor(1e-3, 4)
        assert monitor.update(1.0, 1e-2) is None
        assert monitor.update(1.0, 1e-3) is None
        assert monitor.update(1.0, 9e-4) == "tail-bound"

    def test_window_is_reported_before_tail_bound(self):
        monitor = cf.Monitor(1e-3, 1)
        assert monitor.update(1e-5, 1e-5) == "window"

    @pytest.mark.parametrize("tol", [0.0, -1e-10])
    def test_rejects_non_positive_tol(self, tol):
        with pytest.raises(ValueError):
            cf.Monitor(tol, 4)


class TestSharedPrimitives:
    def test_geometric_tail(self):
        tail = cf.geometric_tail(3.0, 0.5)
        assert tail(0) == 3.0
        assert tail(4) == 3.0 * 0.5**5 / 0.5
        assert cf.geometric_tail(3.0, 0.0)(0) == 0.0

    def test_renorm_exponent(self):
        assert cf.renorm_exponent(1.0, 1e150) == 0
        assert cf.renorm_exponent(0.0, 1e150) == 0
        for mag in (1e200, 1e-200):
            k = cf.renorm_exponent(mag, 1e150)
            assert 0.5 <= math.ldexp(mag, -k) < 1.0


class TestPinnedStops:
    def test_evaluate(self, reasons):
        assert cf.evaluate(GOLDEN, 1e-12, 500).n == 45
        assert reasons == ["window"]

    def test_bauer_muir_evaluate(self, worked_spec, reasons):
        assert bauermuir.bm_at_infinity(worked_spec).evaluate(1e-12).n == 39
        assert reasons == ["window"]

    def test_modified_value(self, worked_spec, reasons):
        assert cf.modified_value(GOLDEN, lambda n: 0.0, 1e-12, 500).n == 45
        fraction = limitset.build_cf(worked_spec)
        w = lambda n: -worked_spec.beta.value
        assert cf.modified_value(fraction, w, 1e-10, 100_000).n == 35
        assert reasons == ["window", "window"]

    def test_limit_along_residue(self, reasons):
        fraction = cf.ContinuedFraction(0.0, lambda n: (1.0, 2.0**-n))
        assert cf.limit_along_residue(fraction, 0, 2, 1e-11, 4000).n == 52
        assert cf.limit_along_residue(fraction, 1, 2, 1e-11, 4000).n == 51
        assert reasons == ["window", "window"]

    @pytest.mark.parametrize(
        "variant, n, reason",
        [(None, 21, "tail-bound"), (without_tail, 35, "window"), (unperturbed, 1, "tail-bound")],
    )
    def test_compute_h_direct(self, worked_spec, reasons, variant, n, reason):
        spec = worked_spec if variant is None else variant(worked_spec)
        assert limitset.compute_h_direct(spec).n_terms == n
        assert reasons == [reason]

    @pytest.mark.parametrize(
        "variant, n, reason",
        [(None, 23, "tail-bound"), (without_tail, 47, "window"), (unperturbed, 11, "tail-bound")],
    )
    def test_residue_limits(self, sixth_root_spec, reasons, variant, n, reason):
        spec = sixth_root_spec if variant is None else variant(sixth_root_spec)
        assert limitset.residue_limits(spec).n_terms == n
        assert reasons == [reason]

    @pytest.mark.parametrize("tail, n", [(True, 23), (False, 53)])
    def test_det_product(self, worked_spec, tail, n):
        seen = []

        def q(k):
            seen.append(k)
            return worked_spec.q(k)

        bound = worked_spec.tail_bound if tail else None
        spec = EllipticCFSpec(worked_spec.alpha, worked_spec.beta, worked_spec.p, q, bound)
        limitset.det_product(spec, 1e-12)
        assert max(seen) == n

    @pytest.mark.parametrize(
        "side, tail, n, reason",
        [
            ("left", E_TAIL, 35, "tail-bound"),
            ("right", E_TAIL, 35, "tail-bound"),
            ("left", None, 48, "window"),
            ("left", ZERO_TAIL, 1, "tail-bound"),
        ],
    )
    def test_cocycle_limit(self, reasons, side, tail, n, reason):
        m = rotation(0.7)
        pair = matprod.MatrixSequencePair(2, lambda i: m + 0.5**i * E, lambda i: m, tail, side=side)
        assert matprod.cocycle_limit(pair).n_terms == n
        assert reasons == [reason]

    @pytest.mark.parametrize(
        "tail, blocks, reason", [(E_TAIL, 9, "tail-bound"), (None, 13, "window"), (ZERO_TAIL, 2, "tail-bound")]
    )
    def test_residue_matrix_limits(self, reasons, tail, blocks, reason):
        m = np.array([[0, -1], [1, 0]], dtype=complex)
        result = matprod.residue_matrix_limits(lambda i: m + 0.5**i * E, m, 4, tail_bound=tail)
        assert result.n_blocks == blocks
        assert reasons == [reason]

    @pytest.mark.parametrize(
        "tail, blocks, reason",
        [(cf.geometric_tail(0.5, 0.4), 6, "tail-bound"), (None, 9, "window"), (ZERO_TAIL, 3, "tail-bound")],
    )
    def test_residue_limits_recurrence(self, reasons, tail, blocks, reason):
        # x_{n+2} = x_{n+1} - x_n perturbed by 0.5 * 0.4^n; roots exp(+-i pi/3).
        rows = []

        def coefficients(n):
            rows.append(n)
            return (-1.0 + 0.5 * 0.4**n, 1.0)

        rec = recur.PoincareRecurrence.build(
            coefficients,
            (-1.0, 1.0),
            roots=(UnitModulusNumber.root_of_unity(1, 6), UnitModulusNumber.root_of_unity(-1, 6)),
            tail_bound=tail,
        )
        recur.residue_limits_recurrence(rec, [1.0, 0.5])
        # The block loop reads rows 0, 1, ... before the coefficient
        # extraction starts again from row 0; the last value of the last
        # block needs no row of its own.
        read = next(i for i in range(1, len(rows)) if rows[i] <= rows[i - 1])
        assert (read + 1) // 6 == blocks
        # The first stop is the block loop's; the cocycle run follows it.
        assert reasons[0] == reason
