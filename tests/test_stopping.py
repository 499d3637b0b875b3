"""The shared stopping rule.

Unit tests of ``cf.Monitor``, and the stop index of every routine that
stops through it, pinned to the indices its earlier hand-written stopping
loop gave, and of ``residue_matrix_limits``, which stops on its tail bound
alone.  Where a routine also takes a tail bound, it is pinned stopping
on that bound, on the window once the bound is removed, and on a zero
bound, which shows the first step or block allowed to stop on it.
"""

import math

import numpy as np
import pytest

from cflimits import bauermuir, cf, limitset, matprod, qseries, recur
from cflimits.errors import BudgetExceededError, NoConvergenceError, SeriesNotConvergedError
from cflimits.limitset import EllipticCFSpec, UnitModulusNumber, geometric_spec
from cflimits.sphere import INFINITY, chordal_distance

GOLDEN = cf.ContinuedFraction(1.0, lambda n: (1.0, 1.0))


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

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_rejects_non_positive_tol(self, tol):
        with pytest.raises(ValueError):
            cf.Monitor(tol, 4)

    def test_step_measures_distance_from_the_previous_term(self):
        # Raw points: finite complex values, None for the point at infinity.
        one, near = 1.0 + 0j, 1.0005 + 0j
        monitor = cf.Monitor(1e-3, 2)
        assert monitor.step(one) is None
        assert monitor.last_delta == math.inf
        assert monitor.step(near) is None
        assert monitor.last_delta == chordal_distance(near, one) < 1e-3
        assert monitor.step(one) == "window"
        assert monitor.last_term is one and monitor.last_delta == chordal_distance(one, near)
        assert monitor.step(None) is None
        assert monitor.last_delta == chordal_distance(INFINITY, one) == 2.0 / math.hypot(1.0, 1.0)

    def test_first_step_at_infinity_has_no_previous_term(self):
        monitor = cf.Monitor(1e-3, 1)
        assert monitor.step(None) is None
        assert monitor.last_delta == math.inf and monitor.last_term is None
        assert monitor.step(None) == "window"
        assert monitor.last_delta == 0.0

    def test_exhausted_carries_last_delta(self):
        monitor = cf.Monitor(1e-3, 4)
        monitor.update(0.25)
        err = monitor.exhausted("out of budget", BudgetExceededError)
        assert isinstance(err, BudgetExceededError) and str(err) == "out of budget"
        assert err.last_delta == 0.25
        assert type(cf.Monitor(1e-3, 4).exhausted("none")) is NoConvergenceError


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
        [(None, 16, "tail-bound"), (without_tail, 31, "window"), (unperturbed, 1, "tail-bound")],
    )
    def test_residue_limits(self, sixth_root_spec, reasons, variant, n, reason):
        # The residue limits are read off h, so this is compute_h_direct's stop.
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

    @pytest.mark.parametrize("tail, blocks", [(E_TAIL, 9), (ZERO_TAIL, 1)])
    def test_residue_matrix_limits(self, reasons, tail, blocks):
        # wedderburn_product over the periods stops on the tail bound alone,
        # with no Monitor; a zero bound stops after the first period.
        m = np.array([[0, -1], [1, 0]], dtype=complex)
        result = matprod.residue_matrix_limits(lambda i: m + 0.5**i * E, m, 4, tail_bound=tail)
        assert result.n_blocks == blocks
        assert reasons == []

    @pytest.mark.parametrize(
        "tail, n, reason",
        [(cf.geometric_tail(0.5, 0.4), 27, "tail-bound"), (None, 40, "window"), (ZERO_TAIL, 1, "tail-bound")],
    )
    def test_residue_limits_recurrence(self, monkeypatch, reasons, tail, n, reason):
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
        cocycle_limit = matprod.cocycle_limit
        read_before = []

        def spy(pair, tol):
            read_before.append(len(rows))
            return cocycle_limit(pair, tol)

        monkeypatch.setattr(matprod, "cocycle_limit", spy)
        recur.residue_limits_recurrence(rec, [1.0, 0.5])
        # The cocycle run is the only loop: no row is read before it starts.
        assert read_before == [0]
        assert rows[: n + 1] == list(range(n + 1))
        assert reasons == [reason]


@pytest.fixture
def deltas(monkeypatch):
    """Every step size a Monitor is given while the test runs, in order."""
    seen = []
    update = cf.Monitor.update

    def spy(self, delta, tail_bound=None):
        seen.append(delta)
        return update(self, delta, tail_bound)

    monkeypatch.setattr(cf.Monitor, "update", spy)
    return seen


def _spinning_recurrence():
    # x_{n+1} = -x_n with limit row (1,): root 1 has order 1, so every block
    # is one value, and consecutive blocks differ by 2 forever.
    return recur.PoincareRecurrence.build(
        lambda n: (-1.0,), (1.0,), roots=(UnitModulusNumber.root_of_unity(0, 1),)
    )


# Non-converging inputs with the smallest budget each loop allows: a step
# count where it is a parameter, else the default budget at the smallest
# period (residue_matrix_limits: order 1 with a rotation that never
# settles) or of the loop the routine runs (residue_limits: compute_h_direct
# on alpha = 1, beta = -1 with a_n = -1, where P_n, Q_n cycle with period 4
# and the limit sequences flip by 2; residue_limits_recurrence:
# cocycle_limit on x_{n+1} = -x_n).  The last field is the last step where
# it is known in closed form: |q_n| = 0.5, and 2 for a sequence flipping
# between +-1.  residue_matrix_limits runs wedderburn_product, which stops
# on its tail bound alone: it gives no Monitor a step, and its error
# carries no last step.
BUDGET_CASES = {
    "compute_h_direct": (
        lambda spec: limitset.compute_h_direct(spec, 1e-10, 5),
        NoConvergenceError, "limit sequences not stable after 5 terms", 5, None,
    ),
    "det_product": (
        lambda spec: limitset.det_product(
            EllipticCFSpec(spec.alpha, spec.beta, spec.p, lambda n: 0.5), 1e-12, 7
        ),
        NoConvergenceError, "determinant product not stable after 7 factors", 7, 0.5,
    ),
    "residue_limits": (
        lambda spec: limitset.residue_limits(EllipticCFSpec(
            UnitModulusNumber.root_of_unity(0, 1), UnitModulusNumber.root_of_unity(1, 2),
            lambda n: 0.0, lambda n: -2.0,
        )),
        NoConvergenceError, "limit sequences not stable after 100000 terms", 100_000, 2.0,
    ),
    "cocycle_limit": (
        lambda spec: matprod.cocycle_limit(
            matprod.MatrixSequencePair(2, lambda i: rotation(1.0), lambda i: rotation(0.5)), 1e-10, 6
        ),
        BudgetExceededError, "cocycle not stable after 6 factors", 6, None,
    ),
    "residue_matrix_limits": (
        lambda spec: matprod.residue_matrix_limits(lambda n: rotation(0.5), np.eye(2), 1, tail_bound=lambda n: 1.0),
        BudgetExceededError, "product tail above tolerance after 50000 factors", 0, None,
    ),
    "residue_limits_recurrence": (
        lambda spec: recur.residue_limits_recurrence(_spinning_recurrence(), [1.0]),
        BudgetExceededError, "cocycle not stable after 200000 factors", 200_000, 2.0,
    ),
}


class TestBudgetErrors:
    @pytest.mark.parametrize("name", sorted(BUDGET_CASES))
    def test_budget_error_carries_last_step(self, worked_spec, deltas, name):
        run, error, message, steps, known = BUDGET_CASES[name]
        with pytest.raises(error) as info:
            run(worked_spec)
        assert type(info.value) is error and str(info.value) == message
        assert len(deltas) == steps
        if not steps:
            assert info.value.last_delta is None
            return
        assert math.isfinite(info.value.last_delta)
        assert info.value.last_delta == deltas[-1]
        if known is not None:
            assert info.value.last_delta == known

    def test_rogers_ramanujan_not_converged(self):
        # max_n = 4 gives the even class n = 0, 2, 4 and the odd class n = 1, 3.
        with pytest.raises(SeriesNotConvergedError) as info:
            qseries.rogers_ramanujan_two_limits(2.0, max_n=4)
        assert str(info.value) == "even approximants not stable after 4 terms"
        stream = cf.convergents(cf.ContinuedFraction(1.0, lambda n: (2.0**n, 1.0)))
        values = []
        for _ in range(4):
            stream.step()
            values.append(stream.value())
        assert info.value.last_delta == chordal_distance(values[3], values[1])
