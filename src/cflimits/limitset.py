"""Limit sets of limit-periodic continued fractions of elliptic type.

The central object is the continued fraction

    K ( (-alpha*beta + q_n) / (alpha + beta + p_n) ),

where alpha != beta lie on the unit circle and the perturbations p_n, q_n
are absolutely summable.  Its approximants f_n do not converge; instead
f_n is asymptotic to h(lambda^(n+1)) for a Moebius map h and
lambda = alpha/beta, so the limit set is the image under h of the group of
m-th roots of unity (the whole circle when lambda is not a root of unity).

This module computes h two independent ways (from the convergent
recurrence directly, and from three convergent modified fractions), the
determinant product identifying det(h), the circle/line geometry with its
concentration points, and the residue-class limits and rank when alpha and
beta are themselves roots of unity.
"""

from __future__ import annotations

import cmath
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
    MobiusMap,
    chordal_distance,
    mobius_through,
    projective,
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

    @property
    def value(self) -> complex:
        return cmath.rect(1.0, TAU * float(self.turns) + self.residual)

    def angle(self) -> float:
        return TAU * float(self.turns) + self.residual

    def power(self, n: int) -> "UnitModulusNumber":
        return UnitModulusNumber(self.turns * n, math.remainder(self.residual * n, TAU))

    def inverse(self) -> "UnitModulusNumber":
        return UnitModulusNumber(-self.turns, -self.residual)

    def __mul__(self, other: "UnitModulusNumber") -> "UnitModulusNumber":
        return UnitModulusNumber(self.turns + other.turns, self.residual + other.residual)

    def __truediv__(self, other: "UnitModulusNumber") -> "UnitModulusNumber":
        return UnitModulusNumber(self.turns - other.turns, self.residual - other.residual)

    def is_one(self) -> bool:
        return self.turns == 0 and self.residual == 0.0

    def order(self) -> int | None:
        """Least m with self**m == 1, or None when no such m is tracked."""
        if not self.is_exact_root:
            return None
        return self.turns.denominator if self.turns != 0 else 1


@dataclass(frozen=True)
class LambdaOrder:
    """Order of alpha/beta in the circle group; None encodes infinite.

    ``suspicious`` flags a numeric angle within 1e-12 of a rational number
    of revolutions with denominator <= 1000: the order is reported infinite
    but the data smells like an unrecognised root of unity.
    """

    m: int | None
    suspicious: bool = False

    @property
    def finite(self) -> bool:
        return self.m is not None


def order_of_lambda(alpha: UnitModulusNumber, beta: UnitModulusNumber) -> LambdaOrder:
    lam = alpha / beta
    if lam.is_one() or alpha.value == beta.value:
        raise EqualAlphaBetaError("alpha and beta coincide")
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
        if (
            self.alpha.turns == self.beta.turns
            and self.alpha.residual == self.beta.residual
        ) or self.alpha.value == self.beta.value:
            raise EqualAlphaBetaError("alpha and beta coincide")

    @property
    def lam(self) -> UnitModulusNumber:
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
    for ratio in (p_ratio, q_ratio):
        if not 0.0 <= ratio < 1.0:
            raise ValueError("geometric ratios must lie in [0, 1)")

    p_tail = _cf.geometric_tail(abs(p_coeff), p_ratio)
    q_tail = _cf.geometric_tail(abs(q_coeff), q_ratio)
    return EllipticCFSpec(
        alpha,
        beta,
        lambda n: p_coeff * p_ratio**n,
        lambda n: q_coeff * q_ratio**n,
        lambda n: p_tail(n) + q_tail(n),
    )


def build_cf(spec: EllipticCFSpec) -> _cf.ContinuedFraction:
    """The fraction K((-alpha*beta + q_n)/(alpha + beta + p_n)), b0 = 0."""
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
    lam = alpha / beta
    if lam.is_one():
        raise EqualAlphaBetaError("alpha and beta coincide")
    num = lam.power(n).value - 1.0
    den = lam.power(n - 1).value - 1.0
    if num == 0:
        return ExtendedComplex(0.0)
    if den == 0:
        return INFINITY
    return ExtendedComplex(-beta.value * num / den)


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
    """The map h from the four renormalization-corrected limit sequences.

    Advances the convergents P_n, Q_n of the spec's fraction and tracks

        a_n = alpha^-n (P_n - beta P_{n-1}),   b_n = -beta^-n (P_n - alpha P_{n-1}),
        c_n = alpha^-n (Q_n - beta Q_{n-1}),   d_n = -beta^-n (Q_n - alpha Q_{n-1}),

    with the stream's power-of-two exponent undone.  Stops when all four are
    stable within ``tol`` over ``STABILITY_WINDOW`` consecutive steps, or
    when the spec's tail bound times the running magnitude bound drops
    under ``tol``.
    Also accumulates (beta - alpha) * prod(1 - q_n/(alpha beta)), which the
    determinant of h must equal.
    """
    alpha, beta = spec.alpha, spec.beta
    a_val, b_val = alpha.value, beta.value
    stream = _cf.convergents(build_cf(spec))
    ab = (alpha * beta).value

    monitor = _cf.Monitor(tol, _cf.STABILITY_WINDOW)
    prev = None
    delta = math.inf
    mag_bound = 1.0
    product = 1.0 + 0.0j
    for _ in range(max_n):
        stream.step()
        n = stream.n
        product *= 1.0 - complex(spec.q(n)) / ab
        scale = math.ldexp(1.0, stream.exponent) if stream.exponent else 1.0
        pn, pm = stream.num * scale, stream.num_prev * scale
        qn, qm = stream.den * scale, stream.den_prev * scale
        ainv = alpha.power(-n).value
        binv = beta.power(-n).value
        quad = (
            ainv * (pn - b_val * pm),
            -binv * (pn - a_val * pm),
            ainv * (qn - b_val * qm),
            -binv * (qn - a_val * qm),
        )
        mag_bound = max(mag_bound, abs(pn), abs(qn))
        if prev is not None:
            delta = max(abs(x - y) for x, y in zip(quad, prev))
        prev = quad
        tail = None if spec.tail_bound is None else 2.0 * mag_bound * spec.tail_bound(n)
        if monitor.update(delta, tail):
            break
    else:
        raise NoConvergenceError(
            f"limit sequences not stable after {max_n} terms", last_delta=delta
        )
    det_product = (b_val - a_val) * product
    return DirectH(MobiusMap(*quad), det_product, stream.n, delta)


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
        raise NoConvergenceError(f"determinant product not stable after {max_n} factors")
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
    alpha, beta = spec.alpha, spec.beta
    fraction = build_cf(spec)
    limits = []
    for label, w in (
        ("infinity", lambda n: -beta.value),
        ("zero", lambda n: -alpha.value),
        ("one", lambda n: tail_omega(alpha, beta, n + 1)),
    ):
        result = _cf.modified_value(fraction, w, tol, max_n)
        if not result.converged:
            raise NoConvergenceError(
                f"modified fraction at {label} not stable after {max_n} terms",
                last_delta=result.last_delta,
            )
        value = result.value
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
    return h.apply(spec.lam.power(n + 1).value)


@dataclass(frozen=True)
class Concentration:
    """Highest/lowest approximant concentration on an infinite limit set."""

    kind: str  # "points" | "uniform" | "not-applicable"
    highest: ExtendedComplex | None = None
    lowest: ExtendedComplex | None = None


def concentration_points(h: MobiusMap, m: int | None) -> Concentration:
    """Concentration extremes of h(T) for infinite order; else not-applicable.

    With c or d zero every point is approached equally often.  When
    |c| = |d| the limit set is a line whose densest point is the average of
    h(infinity) and h(0), the sparsest being infinity itself.
    """
    if m is not None:
        return Concentration("not-applicable")
    a, b, c, d = h.a, h.b, h.c, h.d
    scale = max(abs(a), abs(b), abs(c), abs(d))
    if abs(c) < 1e-14 * scale or abs(d) < 1e-14 * scale:
        return Concentration("uniform")
    ac, bd = a / c, b / d
    if abs(abs(c) - abs(d)) < 1e-10 * (abs(c) + abs(d)):
        return Concentration("points", ExtendedComplex((ac + bd) / 2.0), INFINITY)
    highest = (ac * abs(c) + bd * abs(d)) / (abs(c) + abs(d))
    lowest = (-ac * abs(c) + bd * abs(d)) / (-abs(c) + abs(d))
    return Concentration("points", ExtendedComplex(highest), ExtendedComplex(lowest))


@dataclass(frozen=True)
class ResidueLimitsResult:
    """Limits of numerator/denominator convergents along residue classes.

    ``A[i]`` and ``B[i]`` are the limits of P and Q along n = i (mod m);
    ``values[i]`` their quotient on the sphere.  ``rank`` counts the
    distinct quotients, m / gcd(b - a, m) in terms of the root exponents.
    The diagnostics record how far the measured limits sit from the
    two-term closed forms, from the determinant identity along consecutive
    residues, and from exact rank-periodicity.
    """

    m: int
    rank: int
    A: tuple[complex, ...]
    B: tuple[complex, ...]
    values: tuple[ExtendedComplex, ...]
    distinct_values: tuple[ExtendedComplex, ...]
    product: complex
    det_product: complex
    n_terms: int
    closed_form_residual: float
    det_identity_residual: float
    periodicity_residual: float


def residue_limits(
    spec: EllipticCFSpec,
    tol: float = 1e-11,
    max_blocks: int = 20_000,
    distinct_tol: float = 1e-6,
) -> ResidueLimitsResult:
    """Measure A_i = lim P_{mk+i}, B_i = lim Q_{mk+i} for root-of-unity data.

    Requires alpha and beta to be exact roots of unity; m is the least
    common order.  Convergence is declared when whole blocks of 2m values
    are stable across ``BLOCK_WINDOW`` consecutive periods (or the tail bound
    certifies it).  The closed forms reconstructing A_i from (A_0, A_1),
    the determinant identity, and the rank periodicity are all evaluated
    and reported as residuals.
    """
    alpha, beta = spec.alpha, spec.beta
    if not (alpha.is_exact_root and beta.is_exact_root):
        raise ValueError("residue limits require alpha and beta to be exact roots of unity")
    m = math.lcm(alpha.order(), beta.order())
    a_exp = int(alpha.turns * m) % m
    b_exp = int(beta.turns * m) % m
    rank = m // math.gcd(abs(b_exp - a_exp), m)

    ab = (alpha * beta).value
    stream = _cf.convergents(build_cf(spec))
    product = 1.0 + 0.0j

    def snapshot() -> tuple[complex, complex]:
        scale = math.ldexp(1.0, stream.exponent) if stream.exponent else 1.0
        return stream.num * scale, stream.den * scale

    block: list[tuple[complex, complex]] = [snapshot()]  # index 0 holds P_0, Q_0
    prev_block: list[tuple[complex, complex]] | None = None
    monitor = _cf.Monitor(tol, _cf.BLOCK_WINDOW)
    delta = math.inf
    mag_bound = 1.0
    for k in range(max_blocks):
        while len(block) < m:
            stream.step()
            product *= 1.0 - complex(spec.q(stream.n)) / ab
            block.append(snapshot())
        mag_bound = max(mag_bound, max(abs(v) for pq in block for v in pq))
        if prev_block is not None:
            delta = max(
                max(abs(x - u), abs(y - v))
                for (x, y), (u, v) in zip(block, prev_block)
            )
        prev_block = block
        tail = None
        if spec.tail_bound is not None and k >= 1:
            # the first block entry P_{mk} carries the largest tail error
            tail = 2.0 * mag_bound * spec.tail_bound(stream.n - m + 1)
        if monitor.update(delta, tail):
            break
        block = []
    else:
        raise NoConvergenceError(
            f"residue blocks not stable after {max_blocks} periods", last_delta=delta
        )

    A = tuple(pq[0] for pq in prev_block)
    B = tuple(pq[1] for pq in prev_block)
    values = tuple(projective(A[i], B[i]) for i in range(m))

    av, bv = alpha.value, beta.value
    closed = 0.0
    for i in range(m):
        ai = ((A[1] - bv * A[0]) * av**i + (av * A[0] - A[1]) * bv**i) / (av - bv)
        bi = ((B[1] - bv * B[0]) * av**i + (av * B[0] - B[1]) * bv**i) / (av - bv)
        closed = max(closed, abs(ai - A[i]), abs(bi - B[i]))

    det_res = 0.0
    for i in range(1, m):
        lhs = A[i] * B[i - 1] - A[i - 1] * B[i]
        rhs = -((alpha * beta).power(i).value) * product
        det_res = max(det_res, abs(lhs - rhs))

    period_res = 0.0
    for j in range(m):
        period_res = max(period_res, chordal_distance(values[j], values[(j + rank) % m]))

    distinct: list[ExtendedComplex] = []
    for v in values:
        if all(chordal_distance(v, u) > distinct_tol for u in distinct):
            distinct.append(v)

    return ResidueLimitsResult(
        m=m,
        rank=rank,
        A=A,
        B=B,
        values=values,
        distinct_values=tuple(distinct),
        product=product,
        det_product=(bv - av) * product,
        n_terms=stream.n,
        closed_form_residual=closed,
        det_identity_residual=det_res,
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
    q = complex(q)
    if not abs(q) < 1.0:
        raise ValueError("|q| must be < 1")
    for coeffs in (f_coeffs, g_coeffs):
        if len(coeffs) and coeffs[0] != 0:
            raise ValueError("polynomials must have zero constant term")

    def poly(coeffs):
        return lambda n: sum(c * q ** (n * j) for j, c in enumerate(coeffs) if j > 0)

    weight = sum(abs(c) for c in list(f_coeffs)[1:]) + sum(abs(c) for c in list(g_coeffs)[1:])
    spec = EllipticCFSpec(
        omega1,
        omega2,
        p=poly(f_coeffs),
        q=poly(g_coeffs),
        tail_bound=_cf.geometric_tail(weight, abs(q)),
    )
    return residue_limits(spec, tol)


@dataclass(frozen=True)
class LimitSetReport:
    """Everything known about the limit set of one elliptic-type fraction."""

    h: MobiusMap
    h_raw: MobiusMap
    m: int | None
    rank: int | None
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
    """Assemble the full report: map, geometry, concentration, residues."""
    order = spec.lambda_order()
    direct = compute_h_direct(spec, tol, max_n)
    h_raw = direct.h
    geometry = h_raw.image_of_unit_circle()
    concentration = concentration_points(h_raw, order.m)

    limit_points = None
    residue = None
    rank: int | None = None
    if order.finite:
        lam = spec.lam
        limit_points = tuple(
            h_raw.apply(lam.power(j).value) for j in range(order.m)
        )
        rank = order.m
        if spec.alpha.is_exact_root and spec.beta.is_exact_root:
            residue = residue_limits(spec, min(tol, 1e-11))
            rank = residue.rank

    return LimitSetReport(
        h=h_raw.normalized(),
        h_raw=h_raw,
        m=order.m,
        rank=rank,
        geometry=geometry,
        concentration=concentration,
        det_product=direct.det_product,
        limit_points=limit_points,
        residue=residue,
        suspicious_order=order.suspicious,
        n_terms=direct.n_terms,
    )
