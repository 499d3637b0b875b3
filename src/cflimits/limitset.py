"""Limit sets of limit-periodic continued fractions of elliptic type.

The central object is the continued fraction

    K ( (-alpha*beta + q_n) / (alpha + beta + p_n) ),

where alpha != beta lie on the unit circle and the perturbations p_n, q_n
are absolutely summable.  Its approximants f_n do not converge; instead
f_n is asymptotic to h(lambda^(n+1)) for a Moebius map h and
lambda = alpha/beta, so the limit set is the image under h of the group of
m-th roots of unity (the whole circle when lambda is not a root of unity).

This module computes h from the convergent recurrence directly and from
three convergent modified fractions (two readings of the same sequences, so
the independent check is a 40-digit reference), the determinant product
identifying det(h), the circle/line geometry with its concentration points,
and the residue-class limits and rank when alpha and beta are roots of unity.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import cf as _cf
from .errors import (
    EqualAlphaBetaError,
    NoConvergenceError,
    NotEllipticError,
    QEqualsAlphaBetaError,
)
from .sphere import (
    INFINITY,
    CircleOrLine,
    ExtendedComplex,
    Line,
    MobiusMap,
    chordal,
    chordal_distance,
    mobius_through,
    point,
    quotient,
    sqrt_with_positive_branch,
)

TAU = 2.0 * math.pi


@dataclass(frozen=True)
class UnitModulusNumber:
    """A point on the unit circle with an exactly-tracked rational part.

    The angle is 2*pi*turns + residual, with ``turns`` an exact fraction of
    a revolution and ``residual`` a floating remainder in radians.  A root
    of unity has residual 0; a generic numeric angle has turns 0.  Products
    and quotients combine the two parts separately, so the quotient of two
    angles sharing the same irrational residual is recognised as an exact
    root of unity.
    """

    turns: Fraction
    residual: float = 0.0

    def __post_init__(self):
        if not isinstance(self.turns, Fraction):
            object.__setattr__(self, "turns", Fraction(self.turns))
        object.__setattr__(self, "turns", self.turns % 1)
        if not math.isfinite(self.residual):
            raise ValueError("non-finite residual angle")

    @classmethod
    def root_of_unity(cls, num: int, den: int) -> "UnitModulusNumber":
        """exp(2*pi*i*num/den), stored in lowest terms."""
        if den == 0:
            raise ZeroDivisionError("root of unity with zero order")
        return cls(Fraction(num, den))

    @classmethod
    def from_angle(cls, theta: float) -> "UnitModulusNumber":
        """exp(i*theta) with a purely numeric angle."""
        return cls(Fraction(0), float(theta))

    @property
    def is_exact_root(self) -> bool:
        return self.residual == 0.0

    @functools.cached_property
    def value(self) -> complex:
        """The point itself, computed once per instance."""
        return cmath.rect(1.0, TAU * float(self.turns) + self.residual)

    def power(self, n: int) -> "UnitModulusNumber":
        return UnitModulusNumber(self.turns * n, math.remainder(self.residual * n, TAU))

    def power_value(self, n: int) -> complex:
        """``self.power(n).value`` bit for bit, in integer turn arithmetic.

        float(Fraction) is the correctly rounded quotient of numerator and
        denominator, so the reduced turns (num * n) % den / den round to the
        same double whatever representation of the fraction is divided.
        """
        num, den = self.turns.numerator, self.turns.denominator
        turns = (num * n) % den / den
        return cmath.rect(1.0, TAU * turns + math.remainder(self.residual * n, TAU))

    def __mul__(self, other: "UnitModulusNumber") -> "UnitModulusNumber":
        return UnitModulusNumber(self.turns + other.turns, self.residual + other.residual)

    def __truediv__(self, other: "UnitModulusNumber") -> "UnitModulusNumber":
        return UnitModulusNumber(self.turns - other.turns, self.residual - other.residual)

    def order(self) -> int | None:
        """Least m with self**m == 1, or None when no such m is tracked."""
        return self.turns.denominator if self.is_exact_root else None


def power_cycles(roots: Sequence[UnitModulusNumber], m: int) -> list[list[complex]]:
    """[u.power_value(n) for n < m] bit for bit for each root u, all read off one table.

    Each u must be an exact root of order dividing m: u = T[k] for T[j] = rect(1, TAU (j/m)),
    and u^n = T[k n mod m], as (num n mod den)/den and (k n mod m)/m are one rational.
    """
    if not all(u.is_exact_root and m % u.order() == 0 for u in roots):
        raise ValueError(f"need exact roots of unity of order dividing {m}, got {roots}")
    table = [cmath.rect(1.0, TAU * (j / m)) for j in range(m)]
    steps = [u.turns.numerator * (m // u.turns.denominator) for u in roots]
    return [[table[k * n % m] for n in range(m)] for k in steps]


@dataclass(frozen=True)
class LambdaOrder:
    """Order of alpha/beta in the circle group; None encodes infinite.

    ``suspicious`` flags a numeric angle within 1e-12 of a rational number
    of revolutions with denominator <= 1000: the order is reported infinite
    but the data smells like an unrecognised root of unity.
    """

    m: int | None
    suspicious: bool = False


def order_of_lambda(alpha: UnitModulusNumber, beta: UnitModulusNumber) -> LambdaOrder:
    if alpha.value == beta.value:
        raise EqualAlphaBetaError("alpha and beta coincide")
    lam = alpha / beta
    if lam.is_exact_root:
        return LambdaOrder(lam.order())
    t = (float(lam.turns) + lam.residual / TAU) % 1.0
    approx = Fraction(t).limit_denominator(1000)
    return LambdaOrder(None, suspicious=abs(t - float(approx)) < 1e-12)


@dataclass(frozen=True)
class EllipticCFSpec:
    """Data of the perturbed fraction: unit-circle pair and summable tails.

    ``p`` and ``q`` are pure generators of the perturbations for n >= 1;
    ``tail_bound(N)``, when supplied, must bound sum_{n>N} (|p_n| + |q_n|)
    and be nonincreasing with limit 0.  q_n == alpha*beta is rejected
    lazily, when the offending term is generated.
    """

    alpha: UnitModulusNumber
    beta: UnitModulusNumber
    p: Callable[[int], complex]
    q: Callable[[int], complex]
    tail_bound: Callable[[int], float] | None = None

    def __post_init__(self):
        if self.alpha.value == self.beta.value:
            raise EqualAlphaBetaError("alpha and beta coincide")

    @functools.cached_property
    def lam(self) -> UnitModulusNumber:
        """lambda = alpha/beta, computed once per instance."""
        return self.alpha / self.beta

    def lambda_order(self) -> LambdaOrder:
        return order_of_lambda(self.alpha, self.beta)


def geometric_spec(
    alpha: UnitModulusNumber,
    beta: UnitModulusNumber,
    p_coeff: complex = 0.0,
    p_ratio: float = 0.0,
    q_coeff: complex = 0.0,
    q_ratio: float = 0.0,
) -> EllipticCFSpec:
    """Spec with p_n = cp * rp**n and q_n = cq * rq**n and an exact tail bound."""
    (p, p_tail), (q, q_tail) = _cf.geometric_sequence(p_coeff, p_ratio), _cf.geometric_sequence(q_coeff, q_ratio)
    return EllipticCFSpec(alpha, beta, p, q, lambda n: p_tail(n) + q_tail(n))


def build_cf(spec: EllipticCFSpec) -> _cf.ContinuedFraction:
    """The fraction K((-alpha*beta + q_n)/(alpha + beta + p_n)), b0 = 0; q_n = alpha*beta raises."""
    ab = (spec.alpha * spec.beta).value
    absum = spec.alpha.value + spec.beta.value

    def terms(n: int) -> tuple[complex, complex]:
        qn = complex(spec.q(n))
        if qn == ab:
            raise QEqualsAlphaBetaError(n)
        return -ab + qn, absum + complex(spec.p(n))

    return _cf.ContinuedFraction(0.0, terms)


def tail_omega(alpha: UnitModulusNumber, beta: UnitModulusNumber, n: int) -> ExtendedComplex:
    """The tail value -(alpha^n - beta^n)/(alpha^(n-1) - beta^(n-1)) in the sphere.

    Evaluated as -beta * (lambda^n - 1)/(lambda^(n-1) - 1) so that exact
    root-of-unity data produces exact zeros: the value is 0 when lambda^n = 1
    and infinity when lambda^(n-1) = 1 (both cannot happen since alpha != beta).
    """
    if alpha.value == beta.value:
        raise EqualAlphaBetaError("alpha and beta coincide")
    return _tail_value(alpha / beta, beta.value, n)


def _tail_value(lam: UnitModulusNumber, bv: complex, n: int) -> ExtendedComplex:
    """``tail_omega(alpha, beta, n)`` from lam = alpha/beta != 1 and bv = beta.value at hand."""
    num = lam.power_value(n) - 1.0
    den = lam.power_value(n - 1) - 1.0
    if num == 0:
        return ExtendedComplex(0.0)
    if den == 0:
        return INFINITY
    return ExtendedComplex(-bv * num / den)


@dataclass(frozen=True)
class DirectH:
    """Moebius limits extracted straight from the convergent recurrence."""

    h: MobiusMap
    det_product: complex
    n_terms: int
    last_delta: float


def compute_h_direct(
    spec: EllipticCFSpec,
    tol: float = 1e-10,
    max_n: int = 100_000,
) -> DirectH:
    """The map h, limit of the four renormalization-corrected sequences

        a_n = alpha^-n (P_n - beta P_{n-1}),   b_n = -beta^-n (P_n - alpha P_{n-1}),
        c_n = alpha^-n (Q_n - beta Q_{n-1}),   d_n = -beta^-n (Q_n - alpha Q_{n-1})

    of the spec's convergents.  As P_n = (alpha + beta + p_n) P_{n-1} + (-alpha beta + q_n) P_{n-2},
    a_n - a_{n-1} = alpha^-n (p_n P_{n-1} + q_n P_{n-2}), b_n - b_{n-1} is that times -beta^-n,
    and c_n, d_n follow with Q for P.  So, with |alpha| = |beta| = 1, the step is
    max(|p_n P_{n-1} + q_n P_{n-2}|, |p_n Q_{n-1} + q_n Q_{n-2}|), read off the stream's pairs
    before the step; the four are formed once, at the stop.  Stops when the step is under
    ``tol`` over ``STABILITY_WINDOW`` consecutive steps, or when 2 * max_{k<=n}(|P_k|, |Q_k|)
    * tail_bound(n) is: each coefficient has at most tail_bound(n) * sup_{k>=n} |P_k| (or
    |Q_k|) left to move, and twice the running magnitude bound estimates that supremum.
    ``Monitor.futile``: while 2 * tail_bound(max_n) >= tol a nonincreasing bound cannot fire; read once.
    Also accumulates (beta - alpha) * prod(1 - q_n/(alpha beta)), which the
    determinant of h must equal.
    """
    alpha, beta = spec.alpha, spec.beta
    a_val, b_val = alpha.value, beta.value
    ab, absum = (alpha * beta).value, a_val + b_val
    p, q, tail_bound = spec.p, spec.q, spec.tail_bound
    stream = _cf.convergents(build_cf(spec))

    monitor = _cf.Monitor(tol, _cf.STABILITY_WINDOW)
    mag_bound = scale = 1.0
    if tail_bound is not None and monitor.futile(2.0 * mag_bound * tail_bound(max_n)):
        tail_bound = None
    product = 1.0 + 0.0j
    delta, tail, exponent = math.inf, None, 0
    for n in range(1, max_n + 1):
        q_n = complex(q(n))
        if q_n == ab:
            raise QEqualsAlphaBetaError(n)
        p_n = complex(p(n))
        if n > 1:
            delta = scale * max(abs(p_n * stream.num + q_n * stream.num_prev),
                                abs(p_n * stream.den + q_n * stream.den_prev))
        stream.step((-ab + q_n, absum + p_n))
        product *= 1.0 - q_n / ab
        if stream.exponent != exponent:
            exponent, scale = stream.exponent, math.ldexp(1.0, stream.exponent)
        if tail_bound is not None:
            mag_bound = max(mag_bound, stream.num_abs * scale, stream.den_abs * scale)
            tail = 2.0 * mag_bound * tail_bound(n)
        if monitor.update(delta, tail):
            break
    else:
        raise monitor.exhausted(f"limit sequences not stable after {max_n} terms")
    pn, pm, qn, qm = stream.unscaled()
    ainv, binv = alpha.power_value(-n), -beta.power_value(-n)
    h = MobiusMap(ainv * (pn - b_val * pm), binv * (pn - a_val * pm),
                  ainv * (qn - b_val * qm), binv * (qn - a_val * qm))
    return DirectH(h, (b_val - a_val) * product, n, monitor.last_delta)


def det_product(spec: EllipticCFSpec, tol: float = 1e-12, max_n: int = 100_000) -> complex:
    """(beta - alpha) * prod(1 - q_n/(alpha beta)) with tail-controlled truncation."""
    ab = (spec.alpha * spec.beta).value
    product = 1.0 + 0.0j
    monitor = _cf.Monitor(tol * 1e-3, 32)
    for n in range(1, max_n + 1):
        qn = complex(spec.q(n))
        if qn == ab:
            raise QEqualsAlphaBetaError(n)
        product *= 1.0 - qn / ab
        if spec.tail_bound is not None and spec.tail_bound(n) < tol:
            break
        if monitor.update(abs(qn)):
            break
    else:
        raise monitor.exhausted(f"determinant product not stable after {max_n} factors")
    return (spec.beta.value - spec.alpha.value) * product


@dataclass(frozen=True)
class ModifiedH:
    """Moebius map assembled from three convergent modified fractions."""

    h: MobiusMap
    at_infinity: ExtendedComplex
    at_zero: ExtendedComplex
    at_one: ExtendedComplex
    s: complex
    det_product: complex


def compute_h_via_modifications(
    spec: EllipticCFSpec,
    tol: float = 1e-10,
    max_n: int = 100_000,
) -> ModifiedH:
    """h from its values at infinity, 0 and 1, each a modified-fraction limit.

    h(infinity) uses the constant tail perturbation -beta (the closing
    denominator becomes alpha + p_n), h(0) uses -alpha, and h(1) uses the
    tail values w(n) = tail_omega(n+1).  The three targets are sent to
    infinity, 0, 1 by the assembled map, which is then scaled so that its
    determinant matches (beta - alpha) * prod(1 - q_n/(alpha beta)); the
    square-root branch with nonnegative real part (ties: nonnegative
    imaginary part) is taken.
    """
    lam, bv = spec.lam, spec.beta.value
    at_infinity, at_zero = ExtendedComplex(-bv), ExtendedComplex(-spec.alpha.value)
    modifiers = (lambda n: at_infinity, lambda n: at_zero, lambda n: _tail_value(lam, bv, n + 1))
    results = _cf.modified_values(build_cf(spec), modifiers, tol, max_n)
    limits = []
    for label, result in zip(("infinity", "zero", "one"), results):
        value = result.limit(
            NoConvergenceError, f"modified fraction at {label} not stable after {max_n} terms"
        )
        # A modified fraction tending to infinity stabilises (chordally) on
        # huge floats; snap those onto the sphere's point at infinity so the
        # three-point assembly picks the right branch.
        if not value.is_infinity and chordal_distance(value, INFINITY) < 1e3 * tol:
            value = INFINITY
        limits.append(value)
    A, B, C = limits
    base = mobius_through(A, B, C)
    dp = det_product(spec, min(tol, 1e-12), max_n)
    s = sqrt_with_positive_branch(dp / base.det)
    return ModifiedH(base.scaled(s), A, B, C, s, dp)


def asymptotic_predictor(spec: EllipticCFSpec, h: MobiusMap, n: int) -> ExtendedComplex:
    """h(lambda^(n+1)), the point the n-th approximant is asymptotic to."""
    return h.apply(spec.lam.power_value(n + 1))


@dataclass(frozen=True)
class Concentration:
    """Highest/lowest approximant concentration on an infinite limit set."""

    kind: str  # "points" | "uniform" | "not-applicable"
    highest: ExtendedComplex | None = None
    lowest: ExtendedComplex | None = None


def concentration_points(h: MobiusMap, m: int | None, geometry: CircleOrLine) -> Concentration:
    """Concentration extremes of h(T) for infinite order; else not-applicable.

    ``geometry`` is h.image_of_unit_circle().  With c or d zero every point is approached
    equally often.  When |c| = |d| the limit set is a line whose densest point is the
    average of h(infinity) and h(0), the sparsest being infinity itself.
    """
    if m is not None:
        return Concentration("not-applicable")
    a, b, c, d = h.a, h.b, h.c, h.d
    scale = max(abs(a), abs(b), abs(c), abs(d))
    if abs(c) < 1e-14 * scale or abs(d) < 1e-14 * scale:
        return Concentration("uniform")
    ac, bd = a / c, b / d
    if isinstance(geometry, Line):
        return Concentration("points", ExtendedComplex((ac + bd) / 2.0), INFINITY)
    highest = (ac * abs(c) + bd * abs(d)) / (abs(c) + abs(d))
    lowest = (-ac * abs(c) + bd * abs(d)) / (-abs(c) + abs(d))
    return Concentration("points", ExtendedComplex(highest), ExtendedComplex(lowest))


@dataclass(frozen=True)
class ResidueLimitsResult:
    """Limits of numerator/denominator convergents along residue classes.

    ``A[i]`` and ``B[i]`` are the limits of P and Q along n = i (mod m);
    ``values[i]`` their quotient on the sphere.  ``rank`` counts the
    distinct quotients: it is the order of lambda = alpha/beta.
    The diagnostics record how far h sits from the determinant identity
    along consecutive residues, and the values from rank-periodicity (exactly 0 at rank m).
    """

    m: int
    rank: int
    A: tuple[complex, ...]
    B: tuple[complex, ...]
    values: tuple[ExtendedComplex, ...]
    det_product: complex
    n_terms: int
    det_identity_residual: float
    periodicity_residual: float

    @property
    def distinct_values(self) -> tuple[ExtendedComplex, ...]:
        """The rank distinct limits, one period ``values[:rank]``; see ``periodicity_residual``."""
        return self.values[:self.rank]


def residue_limits(spec: EllipticCFSpec, tol: float = 1e-11) -> ResidueLimitsResult:
    """A_i = lim P_{mk+i}, B_i = lim Q_{mk+i} for root-of-unity data, read off h.

    Requires alpha and beta to be exact roots of unity; m is the least
    common order.  P_{n-1} = (alpha^n a_n + beta^n b_n)/(alpha - beta) for
    the limit sequences of ``compute_h_direct`` and alpha^m = beta^m = 1, so
    A_i = (alpha^(i+1) a + beta^(i+1) b)/(alpha - beta), and B_i likewise
    from c, d.  An error e in each entry of h moves them by at most
    2e/|alpha - beta|, hence h is computed to tol |alpha - beta|/2.  On these
    A, B the determinant identity A_i B_(i-1) - A_(i-1) B_i =
    -(alpha beta)^i prod(1 - q_n/(alpha beta)) reduces to det h =
    det_product; the residual is their gap over |alpha - beta|.
    """
    return _h_with_residues(spec, spec.lambda_order().m, tol, 100_000)[1]


def _h_with_residues(spec: EllipticCFSpec, rank: int, tol: float,
                     max_n: int) -> tuple[DirectH, ResidueLimitsResult]:
    """h to tol |alpha - beta|/2 within ``max_n`` terms, and ``residue_limits`` read off it."""
    alpha, beta = spec.alpha, spec.beta
    m = math.lcm(alpha.turns.denominator, beta.turns.denominator)
    xs, ys = (c[1:] + c[:1] for c in power_cycles((alpha, beta), m))  # alpha^(i+1), beta^(i+1)
    gap = alpha.value - beta.value
    direct = compute_h_direct(spec, tol * abs(gap) / 2.0, max_n)
    h = direct.h
    ha, hb, hc, hd = h.a, h.b, h.c, h.d
    A = tuple([(x * ha + y * hb) / gap for x, y in zip(xs, ys)])
    B = tuple([(x * hc + y * hd) / gap for x, y in zip(xs, ys)])
    raw = list(map(quotient, A, B))
    period_res = 0.0 if rank == m else max(chordal(raw[j], raw[(j + rank) % m]) for j in range(m))

    return direct, ResidueLimitsResult(
        m=m,
        rank=rank,
        A=A,
        B=B,
        values=tuple(map(point, raw)),
        det_product=direct.det_product,
        n_terms=direct.n_terms,
        det_identity_residual=abs(h.det - direct.det_product) / abs(gap),
        periodicity_residual=period_res,
    )


def normalize_elliptic(
    a_seq: Callable[[int], complex],
    b_seq: Callable[[int], complex],
    a: complex,
    b: complex,
    tail_bound: Callable[[int], float] | None = None,
) -> tuple[float, EllipticCFSpec]:
    """Reduce K((a + da_n)/(b + db_n)) of elliptic type to unit-circle form.

    Elliptic means the two characteristic values (b +- sqrt(b^2 + 4a))/2
    share a modulus d without coinciding.  Returns (d, spec) where the
    original fraction's value is d times the value of the spec's fraction:
    denominator perturbations scale by 1/d and numerator perturbations by
    1/d^2.  A supplied tail bound on sum(|a_n - a| + |b_n - b|) is rescaled
    accordingly.
    """
    a = complex(a)
    b = complex(b)
    s = cmath.sqrt(b * b + 4.0 * a)
    plus, minus = b + s, b - s
    if s == 0 or abs(abs(plus) - abs(minus)) > 1e-12 * (abs(plus) + abs(minus)):
        raise NotEllipticError(
            f"characteristic values have moduli {abs(plus)/2:.6g} and {abs(minus)/2:.6g}"
        )
    d = abs(plus) / 2.0
    alpha = UnitModulusNumber.from_angle(cmath.phase(plus))
    beta = UnitModulusNumber.from_angle(cmath.phase(minus))

    new_tail = None
    if tail_bound is not None:
        factor = max(1.0 / d, 1.0 / (d * d))
        new_tail = lambda n: factor * tail_bound(n)

    spec = EllipticCFSpec(
        alpha,
        beta,
        p=lambda n: (complex(b_seq(n)) - b) / d,
        q=lambda n: (complex(a_seq(n)) - a) / (d * d),
        tail_bound=new_tail,
    )
    return d, spec


def q_cf_rank(
    f_coeffs: Sequence[complex],
    g_coeffs: Sequence[complex],
    omega1: UnitModulusNumber,
    omega2: UnitModulusNumber,
    q: complex,
    tol: float = 1e-11,
) -> ResidueLimitsResult:
    """Residue limits of K((-w1 w2 + g(q^n))/(w1 + w2 + f(q^n))).

    ``f_coeffs``/``g_coeffs`` list polynomial coefficients from the constant
    term up; the constant terms must be zero so the perturbations decay
    geometrically.  Requires |q| < 1 and g(q^n) != w1 w2 for all n (checked
    lazily).
    """
    (f, f_tail), (g, g_tail) = _cf.poly_qn_sequence(f_coeffs, q), _cf.poly_qn_sequence(g_coeffs, q)
    spec = EllipticCFSpec(omega1, omega2, f, g, lambda n: f_tail(n) + g_tail(n))
    return residue_limits(spec, tol)


@dataclass(frozen=True)
class LimitSetReport:
    """Everything known about the limit set of one elliptic-type fraction; ``m`` is its rank."""

    h: MobiusMap
    h_raw: MobiusMap
    m: int | None
    geometry: CircleOrLine
    concentration: Concentration
    det_product: complex
    limit_points: tuple[ExtendedComplex, ...] | None
    residue: ResidueLimitsResult | None
    suspicious_order: bool
    n_terms: int


def limit_set_report(
    spec: EllipticCFSpec,
    tol: float = 1e-10,
    max_n: int = 200_000,
) -> LimitSetReport:
    """Assemble the full report: map, geometry, concentration, residues.

    On exact roots of unity the one h run is the residue limits' own, at
    ``min(tol, 1e-11)``, and every part of the report is read off it.
    """
    order = spec.lambda_order()
    if spec.alpha.is_exact_root and spec.beta.is_exact_root:
        direct, residue = _h_with_residues(spec, order.m, min(tol, 1e-11), max_n)
    else:
        direct, residue = compute_h_direct(spec, tol, max_n), None
    h_raw, geometry = direct.h, direct.h.image_of_unit_circle()
    limit_points = None if order.m is None else tuple(
        map(h_raw.apply, power_cycles((spec.lam,), order.m)[0]))

    return LimitSetReport(
        h=h_raw.normalized(),
        h_raw=h_raw,
        m=order.m,
        geometry=geometry,
        concentration=concentration_points(h_raw, order.m, geometry),
        det_product=direct.det_product,
        limit_points=limit_points,
        residue=residue,
        suspicious_order=order.suspicious,
        n_terms=direct.n_terms,
    )
