"""Convergent companion fractions that select single points of a limit set.

Each transform rebuilds the divergent elliptic-type fraction into a new
fraction that genuinely converges, to the modified limit at infinity, at
zero, or at an arbitrary power of lambda = alpha/beta.  A coupling L_n or
inner denominator E_n that vanishes truncates the companion fraction only
where the spec bounds the perturbation left, ``spec.tail_bound(n - 1)``, by
``ROUNDOFF`` (the unperturbed case, or p_n and q_n lost in the unit-size
terms); anywhere else, and always without a tail bound, the transform does
not exist and DegenerateTermError(n) is raised.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import cf as _cf
from . import qseries as _qs
from .errors import (
    DegenerateTermError,
    QEqualsAlphaBetaError,
    RootOfUnityLambdaError,
    SeriesNotConvergedError,
)
from .limitset import EllipticCFSpec, UnitModulusNumber, _tail_value, build_cf
from .sphere import ExtendedComplex, chordal_distance

#: Term n reads indices n - 2 .. n only: terms formed in order form each once.
TERM_CACHE = 4

#: Perturbations summing to at most this cannot show in terms of unit size.
ROUNDOFF = 2.0**-52


@dataclass(frozen=True)
class BMTransformResult:
    """A companion fraction plus the modification it realises."""

    cf: _cf.ContinuedFraction
    target: str  # "infinity" | "zero" | "lambda-power"

    def evaluate(self, tol: float = 1e-12, max_n: int = 100_000) -> _cf.EvalResult:
        return _cf.evaluate(self.cf, tol, max_n)


def bm_at_infinity(spec: EllipticCFSpec) -> BMTransformResult:
    """Convergent fraction whose value is the modified limit at infinity.

    Starting from -beta, the first term is (q_1 + beta p_1)/(alpha + p_1)
    and the general term couples consecutive perturbations; when all
    q_n + beta p_n vanish (the unperturbed case) the fraction terminates
    and the value is -beta itself.
    """
    return BMTransformResult(_bm_cf(spec, spec.alpha, spec.beta), "infinity")


def bm_at_zero(spec: EllipticCFSpec) -> BMTransformResult:
    """Mirror image of ``bm_at_infinity`` (alpha and beta exchanged)."""
    return BMTransformResult(_bm_cf(spec, spec.beta, spec.alpha), "zero")


def _bm_cf(spec: EllipticCFSpec, alpha: UnitModulusNumber, beta: UnitModulusNumber) -> _cf.ContinuedFraction:
    # Classical transform with constant modifier -beta: the couplings are
    # L_n = q_n + beta p_n, the transformed terms a'_n = a_{n-1} L_n / L_{n-1}
    # and b'_n = alpha + p_n + beta L_n / L_{n-1}, cleared of denominators by
    # the equivalence scaling c_n = L_{n-1} (so the n-th numerator carries
    # L_n L_{n-2}, with L_0 = 1).  q_n = alpha beta raises as in ``build_cf``.
    av, bv = alpha.value, beta.value
    ab = (alpha * beta).value
    p, q = spec.p, spec.q

    @functools.lru_cache(maxsize=TERM_CACHE)
    def perturbation(n: int) -> tuple[complex, complex, complex]:
        """(q_n, p_n, L_n), each formed once; L_0 = 1."""
        if n == 0:
            return 0j, 0j, 1.0 + 0.0j
        qn, pn = complex(q(n)), complex(p(n))
        if qn == ab:
            raise QEqualsAlphaBetaError(n)
        l_n = qn + bv * pn
        if l_n == 0:
            _check_truncation(spec, n)
        return qn, pn, l_n

    def terms(n: int) -> tuple[complex, complex]:
        _, p_n, l_n = perturbation(n)
        if n == 1:
            return l_n, av + p_n
        q_back, _, l_back = perturbation(n - 1)
        return (q_back - ab) * l_n * perturbation(n - 2)[2], (av + p_n) * l_back + bv * l_n

    return _cf.ContinuedFraction(-bv, terms)


def _check_truncation(spec: EllipticCFSpec, n: int) -> None:
    """Let a coupling vanishing at term n truncate only where a tail bound shows nothing is left."""
    if spec.tail_bound is None or not spec.tail_bound(n - 1) <= ROUNDOFF:
        raise DegenerateTermError(n)


def bm_at_lambda_power(spec: EllipticCFSpec, k: int) -> BMTransformResult:
    """Convergent fraction whose value is the modified limit at lambda^(k+1).

    Keeps the original terms up to depth k' - 1 with k' = max(3, k + 3),
    folds the tail value into depth k', patches depth k' + 1 with the
    compound numerator, and from depth k' + 2 on uses coupled terms whose
    inner quotients share the denominator

        E_n = -alpha beta + q_n - w_{n-1} (alpha + beta + p_n + w_n),

    where w_n is the tail value shifted by k.  Requires lambda not to be a
    root of unity (the shifted tail values must stay finite); E_n = 0 is
    handled as the module says, and q_n = alpha beta raises as in ``build_cf``.
    """
    lam = spec.lam
    if lam.is_exact_root:
        raise RootOfUnityLambdaError("alpha/beta is a root of unity")
    bv = spec.beta.value
    original = functools.lru_cache(maxsize=TERM_CACHE)(build_cf(spec).terms)
    kp = max(3, k + 3)

    @functools.lru_cache(maxsize=TERM_CACHE)
    def w(j: int) -> complex:
        value = _tail_value(lam, bv, j - k)
        if value.is_infinity:
            raise RootOfUnityLambdaError(f"tail value at shifted index {j - k} is infinite")
        return value.z

    @functools.lru_cache(maxsize=TERM_CACHE)
    def e(n: int) -> tuple[complex, complex]:
        """(E_n, alpha + beta + p_n + w_n), both built from the original (a_n, b_n)."""
        a, b = original(n)
        den = b + w(n)
        e_n = a - w(n - 1) * den
        if e_n == 0:
            _check_truncation(spec, n)
        return e_n, den

    def terms(n: int) -> tuple[complex, complex]:
        if n < kp:
            return original(n)
        if n == kp:
            a, b = original(n)
            return a, b + w(n)
        if n == kp + 1:
            return e(n)
        e_n, den = e(n)
        inner = e_n / e(n - 1)[0]  # E_{n-1} = 0 raised or truncated at term n - 1
        return original(n - 1)[0] * inner, den - w(n - 2) * inner

    return BMTransformResult(_cf.ContinuedFraction(0.0, terms), "lambda-power")


def rbm_identity(
    q: complex,
    alpha: UnitModulusNumber,
    beta: UnitModulusNumber,
    tol: float = 1e-12,
    max_n: int = 50_000,
) -> tuple[ExtendedComplex, ExtendedComplex, float]:
    """Both sides of the convergent q-fraction / q-series identity.

    The left side is the fraction -beta + beta q/(alpha + q) followed by
    terms -alpha beta q / (q^n + alpha + beta q); the right side is -beta
    times a ratio of two q-series (evaluated independently through the
    two-variable series P).  Returns (lhs, rhs, chordal residual).
    """
    params = _qs.QParams(q, min(tol, 1e-14))  # checks |q| < 1 and tol before any term
    q = params.q
    lam = alpha / beta
    if lam.is_exact_root:
        raise RootOfUnityLambdaError("alpha/beta is a root of unity")
    av, bv = alpha.value, beta.value
    ab = (alpha * beta).value

    def terms(n: int) -> tuple[complex, complex]:
        if n == 1:
            return bv * q, av + q
        return -ab * q, q**n + av + bv * q

    fraction = _cf.ContinuedFraction(-bv, terms)
    lhs = _cf.evaluate(fraction, tol, max_n).limit(
        SeriesNotConvergedError, f"transformed fraction not stable after {max_n} terms"
    )

    numerator = _qs.pxy(q / av, bv / av, params)
    denominator = _qs.pxy(1.0 / av, bv / av, params)
    rhs = ExtendedComplex(-bv * numerator / denominator)
    return lhs, rhs, chordal_distance(lhs, rhs)
