"""q-Pochhammer products, the two-variable series P(x, y), and the
Ramanujan-style limit identities they control.

All series and products assume |q| < 1 and truncate when a conservative
geometric tail bound falls below the requested tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cf as _cf
from .errors import PoleInDenominatorError, SeriesNotConvergedError
from .limitset import UnitModulusNumber
from .sphere import (
    INFINITY,
    ExtendedComplex,
    MobiusMap,
    chordal_distance,
)


@dataclass(frozen=True)
class QParams:
    """Base q and the truncation tol of the q-series; the one check of |q| < 1 for them."""

    q: complex
    tol: float = 1e-14

    def __post_init__(self):
        object.__setattr__(self, "q", complex(self.q))
        if not abs(self.q) < 1.0:
            raise ValueError(f"|q| must be < 1, got {abs(self.q)}")
        _cf.checked_tol(self.tol)


def qpochhammer(a: complex, q: complex, n: int | None = None, tol: float = 1e-15) -> complex:
    """(a; q)_n = prod_{k<n} (1 - a q^k); n = None means the infinite product.

    The infinite product needs |q| < 1 and stops once the remaining factors
    are within ``tol`` of 1 (bounded through exp of the geometric tail).
    """
    monitor = _cf.Monitor(tol, None)
    a = complex(a)
    q = complex(q)
    if n is not None and n < 0:
        raise ValueError("n must be nonnegative")
    # sum_{j>=k} |a q^j| for the factors still to come; ValueError unless |q| < 1.
    tail = None if n is not None else _cf.geometric_tail(a, abs(q))
    product = power = 1.0 + 0.0j
    for k in range(100_000 if tail else n):
        if tail and monitor.update(None, 2.0 * tail(k - 1)):
            return product
        product *= 1.0 - a * power
        power *= q
    if tail:
        raise monitor.exhausted("q-product did not meet its tail bound", SeriesNotConvergedError)
    return product


def pxy(x: complex, y: complex, params: QParams) -> complex:
    """P(x, y) = sum x^n q^(n(n+1)/2) / ((q; q)_n (y q; q)_n).

    Terms drop superexponentially; truncation stops when the current term
    and its geometric continuation bound are below tolerance.  A factor
    1 - y q^n equal to zero raises PoleInDenominatorError.
    """
    monitor = _cf.Monitor(params.tol, None)
    x = complex(x)
    y = complex(y)
    q = params.q
    total = 1.0 + 0.0j  # n = 0 term
    term = 1.0 + 0.0j
    qn = 1.0 + 0.0j
    r = abs(q)
    for n in range(1, 100_001):
        qn *= q
        d1 = 1.0 - qn
        d2 = 1.0 - y * qn
        if d2 == 0:
            raise PoleInDenominatorError(f"1 - y q^{n} vanishes")
        term *= x * qn / (d1 * d2)
        total += term
        # Ratio of consecutive terms is eventually ~ |x| r^(n+1); once it is
        # under 1/2 the remaining tail is below |term| / (1 - ratio) < 2 |term|.
        ratio = abs(x) * r ** (n + 1) / max((1.0 - r ** (n + 1)) * abs(1.0 - y * qn * q), 1e-300)
        if ratio < 0.5 and monitor.update(None, 4.0 * (abs(term) / (1.0 - ratio))):
            return total
    raise monitor.exhausted("series P(x, y) did not meet its tail bound", SeriesNotConvergedError)


def ramanujan_limit_map(
    q: complex,
    alpha: UnitModulusNumber,
    beta: UnitModulusNumber,
    tol: float = 1e-14,
) -> MobiusMap:
    """The Moebius map carrying lambda-powers to the limits of the fraction
    K(-alpha beta / (alpha + beta + q^n)).

    Its coefficients are ratios of four P(x, y) values; the n-th approximant
    of the fraction is asymptotic to the image of lambda^(n+1), so the limit
    set is the image of the group generated by lambda.
    """
    params = QParams(q, tol)
    av, bv = alpha.value, beta.value
    p1 = pxy(q / av, bv / av, params)
    p2 = pxy(q / bv, av / bv, params)
    p3 = pxy(1.0 / av, bv / av, params)
    p4 = pxy(1.0 / bv, av / bv, params)
    return MobiusMap(-bv * p1, av * p2, p3, -p4)


def verify_ramanujan_claim(
    q: complex,
    a: complex,
    residue: int,
    tol: float = 1e-12,
    max_n: int = 20_000,
    representative: int | None = None,
) -> tuple[ExtendedComplex, ExtendedComplex, float]:
    """Both sides of the three-limit identity for 1/1 - 1/(1+q) - 1/(1+q^2) - ...

    The left side is the limit of the displayed fraction, whose closing
    denominator carries the shift ``a``, along indices n = residue (mod 3).
    The right side is the closed form built from cube roots of unity and
    two infinite q-products, evaluated at ``representative`` (by default the
    smallest admissible index >= 3 of the class; the value depends on the
    index only through its class, which callers may check by varying it).
    Returns (lhs, rhs, chordal residual).
    """
    q = QParams(q, tol).q
    a = complex(a)
    j = residue % 3
    if representative is not None and representative % 3 != j:
        raise ValueError("representative must lie in the requested residue class")

    # The fraction has b0 = 0, first term 1/1, then -1/(1 + q^(k-1)).
    def terms(k: int) -> tuple[complex, complex]:
        if k == 1:
            return 1.0, 1.0
        return -1.0, 1.0 + q ** (k - 1)

    fraction = _cf.ContinuedFraction(0.0, terms)
    # The display truncated at 1 + q^n + a has n + 1 fraction terms, so the
    # class n = j (mod 3) corresponds to stream index j + 1 (mod 3).
    lhs = _cf.limit_along_residue(fraction, (j + 1) % 3, 3, tol, max_n, w=lambda _: a).limit(
        SeriesNotConvergedError, f"fraction limit along residue {j} not stable after {max_n} terms"
    )

    omega = UnitModulusNumber.root_of_unity(1, 3)
    wv = omega.value
    num_omega = 1.0 - a * omega.power_value(2)
    den_omega = 1.0 - a * wv
    n = representative if representative is not None else j + 3
    scale = (
        -omega.power_value(2)
        * qpochhammer(q * q, q**3, tol=tol)
        / qpochhammer(q, q**3, tol=tol)
    )
    if den_omega == 0:  # Omega is infinite: (Omega - w^(n+1)) / (Omega - w^(n-1)) tends to 1
        return lhs, ExtendedComplex(scale), chordal_distance(lhs, ExtendedComplex(scale))
    big_omega = (
        num_omega
        / den_omega
        * qpochhammer(omega.power_value(2) * q, q, tol=tol)
        / qpochhammer(wv * q, q, tol=tol)
    )
    ratio_num = big_omega - omega.power_value(n + 1)
    ratio_den = big_omega - omega.power_value(n - 1)
    if ratio_den == 0:
        rhs = INFINITY if ratio_num != 0 else ExtendedComplex(0.0)
    else:
        rhs = ExtendedComplex(scale * ratio_num / ratio_den)
    return lhs, rhs, chordal_distance(lhs, rhs)


def rogers_ramanujan_two_limits(
    q: complex,
    tol: float = 1e-12,
    max_n: int = 5_000,
) -> tuple[ExtendedComplex, ExtendedComplex]:
    """Even- and odd-index limits of 1 + q/1 + q^2/1 + ... for |q| > 1.

    For |q| > 1 the even and odd approximants converge separately (the
    equivalence-transformed fraction has absolutely summable denominators).
    Inputs with |q| < 1 are rejected: the fraction then converges outright
    and this routine has nothing to split.
    """
    q = complex(q)
    if not abs(q) > 1.0:
        raise ValueError("|q| must be > 1")
    fraction = _cf.ContinuedFraction(1.0, lambda n: (q**n, 1.0))
    # Both classes are read off one stream: max(n_even, n_odd) terms are formed.
    classes = _cf._subsequence_limits(fraction, ((0, 2, None), (1, 2, None)), tol, _cf.RESIDUE_WINDOW, max_n)
    return tuple(
        result.limit(SeriesNotConvergedError, f"{name} approximants not stable after {max_n} terms")
        for result, name in zip(classes, ("even", "odd"))
    )
