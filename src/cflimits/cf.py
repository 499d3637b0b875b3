"""Generic continued fraction evaluation on the Riemann sphere.

Convergents are kept as projective pairs (P_n, Q_n) advanced by the
three-term recurrence

    P_n = b_n P_{n-1} + a_n P_{n-2},    Q_n = b_n Q_{n-1} + a_n Q_{n-2},

seeded with P_{-1} = 1, Q_{-1} = 0, P_0 = b0, Q_0 = 1, so the approximant
f_n = P_n/Q_n includes the terms through (a_n, b_n).  Whenever the largest
component leaves [1/threshold, threshold] both pairs are rescaled by a power
of two (exact in binary floating point) and the exponent is recorded; the
value P_n/Q_n is untouched by this, and ``ConvergentStream.unscaled`` is the
one place that undoes the exponent.

Convergence in the extended plane is judged in the chordal metric: a mere
pair of close consecutive approximants is easily faked by a slowly
rotating unit eigenvalue ratio, so instead we require a stability window
of consecutive small steps.  That criterion is a heuristic, not a proof.
``Monitor`` is the one place that counts such windows for every limit
sequence of the package and the only stopping state; ``checked_tol`` is
the one check of a tolerance, ``renorm_exponent`` the one power-of-two
renormalizer, ``geometric_tail`` the one geometric tail (it checks 0 <= ratio < 1), and
``geometric_sequence`` and ``poly_qn_sequence`` each perturbation model's home, a ``TailedSequence``.
``evaluate``, ``modified_value(s)`` and ``limit_along_residue`` all run
through ``_subsequence_limits``, the one loop over approximant
subsequences, which keeps one ``Monitor`` per subsequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InvalidFactorError, NoConvergenceError, ZeroPartialNumeratorError, ZeroScaleError
from .sphere import ExtendedComplex, as_extended, chordal, point, projective, quotient

TermGenerator = Callable[[int], tuple[complex, complex]]
#: (n -> x_n, N -> a bound on sum_{n>N} |x_n|); its constructors check their range before any term.
TailedSequence = tuple[Callable[[int], complex], Callable[[int], float]]
#: n -> w(n), the value that replaces the tail of the n-th approximant.
Modifier = Callable[[int], complex | ExtendedComplex]

#: Renormalization trigger for convergent pairs.
RENORM_THRESHOLD = 1e150
_RENORM_FLOOR = 1.0 / RENORM_THRESHOLD

#: Stability windows: whole sequences and residue classes.
STABILITY_WINDOW = 16
RESIDUE_WINDOW = 8


class Monitor:
    """The stopping rule shared by every limit sequence of the package.

    ``update`` takes the latest step size of the sequence (``math.inf``
    while there is no previous term) and, where the caller has one, a
    bound on the remaining distance to the limit.  It returns "window"
    once ``window`` consecutive steps are under ``tol``, "tail-bound" when
    the bound is, and None otherwise.  A window stop is a heuristic: it is
    taken even while a supplied tail bound still exceeds ``tol``.  ``step``
    measures a raw point (None is infinity) by its chordal distance from the last one.
    """

    __slots__ = ("tol", "window", "stable", "last_delta", "last_term")

    def __init__(self, tol: float, window: int):
        self.tol = checked_tol(tol)
        self.window = window
        self.stable = 0
        self.last_delta: float | None = None
        self.last_term = None

    def update(self, delta: float, tail_bound: float | None = None) -> str | None:
        self.last_delta = delta
        self.stable = self.stable + 1 if delta < self.tol else 0
        if self.stable >= self.window:
            return "window"
        if tail_bound is not None and tail_bound < self.tol:
            return "tail-bound"
        return None

    def step(self, term: complex | None) -> str | None:
        delta = math.inf if self.last_delta is None else chordal(term, self.last_term)
        self.last_term = term
        return self.update(delta)

    def exhausted(self, message: str, error=NoConvergenceError) -> NoConvergenceError:
        """The budget error to raise, carrying the last step size."""
        return error(message, last_delta=self.last_delta)


def checked_tol(tol: float) -> float:
    """``tol`` when it is positive and finite; ValueError before any work otherwise."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    return tol


def renorm_exponent(mag: float, threshold: float) -> int:
    """k with mag * 2**-k in [1/2, 1) once mag leaves [1/threshold, threshold], else 0.

    Scaling by a power of two is exact, so renormalized pairs keep their
    quotients bit for bit.
    """
    if mag > threshold or (0.0 < mag < 1.0 / threshold):
        return math.frexp(mag)[1]
    return 0


def geometric_tail(coeff: complex, ratio: float) -> Callable[[int], float]:
    """n -> sum_{k>n} |coeff| * ratio**k; ValueError unless 0 <= ratio < 1, before coeff is read."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"ratio must lie in [0, 1), got {ratio!r}")
    weight = abs(coeff)
    return lambda n: weight * ratio ** (n + 1) / (1.0 - ratio)


def geometric_sequence(coeff: complex, ratio: float) -> TailedSequence:
    """n -> coeff * ratio**n and its tail bound; ValueError unless 0 <= ratio < 1."""
    return (lambda n: coeff * ratio**n), geometric_tail(coeff, ratio)


def poly_qn_sequence(coeffs: Sequence[complex], q: complex) -> TailedSequence:
    """n -> sum_{j>0} c_j q**(n*j) and its tail bound; ValueError unless |q| < 1 and c_0 = 0."""
    coeffs, q = tuple(coeffs), complex(q)
    if not abs(q) < 1.0:
        raise ValueError(f"|q| must be < 1, got {abs(q)!r}")
    if coeffs and coeffs[0] != 0:
        raise ValueError(f"the constant term must be zero, got {coeffs[0]!r}")
    poly = lambda n: sum(c * q ** (n * j) for j, c in enumerate(coeffs) if j > 0)
    return poly, geometric_tail(sum(abs(c) for c in coeffs[1:]), abs(q))


@dataclass(frozen=True)
class ContinuedFraction:
    """b0 + K(a_n / b_n) with terms supplied by a pure generator.

    ``terms(n)`` must return the pair (a_n, b_n) for n >= 1 and must be a
    pure function of n.  A zero partial numerator truncates the fraction:
    ``ConvergentStream.step`` raises ZeroPartialNumeratorError there, and
    the limit loop ends unmodified approximants at their exact value.
    """

    b0: complex
    terms: TermGenerator

    def term(self, n: int) -> tuple[complex, complex]:
        a, b = self.terms(n)
        return complex(a), complex(b)


class ConvergentStream:
    """Iterates the convergent recurrence of a continued fraction.

    Attributes ``num``/``den`` hold the current stored pair, ``num_abs``/``den_abs``
    their magnitudes and ``num_prev``/``den_prev`` the previous pair.  The true convergents are
    the stored values times 2**exponent; ``unscaled`` returns them.  A step
    advances and, when needed, rescales these values and nothing else.
    """

    __slots__ = ("cf", "n", "num_prev", "den_prev", "num", "den", "num_abs", "den_abs", "exponent")

    def __init__(self, cf: ContinuedFraction):
        self.cf = cf
        self.n = 0
        self.num_prev, self.den_prev = 1.0 + 0.0j, 0.0 + 0.0j
        self.num, self.den = complex(cf.b0), 1.0 + 0.0j
        self.num_abs, self.den_abs = abs(self.num), 1.0
        self.exponent = 0

    def step(self, term: tuple[complex, complex] | None = None) -> None:
        """Advance by one term: ``term`` is (a_n, b_n) as ``cf.term(n)`` gives it, if at hand.

        The pairs are rescaled once their largest magnitude leaves
        [1/RENORM_THRESHOLD, RENORM_THRESHOLD]; InvalidFactorError at n when it is not finite.
        """
        n = self.n + 1
        a, b = self.cf.term(n) if term is None else term
        if a == 0:
            raise ZeroPartialNumeratorError(n)
        num, den = self.num, self.den
        self.num_prev, self.num = num, b * num + a * self.num_prev
        self.den_prev, self.den = den, b * den + a * self.den_prev
        self.n = n
        mag = max(num_abs := abs(self.num), den_abs := abs(self.den), self.num_abs, self.den_abs)
        self.num_abs, self.den_abs = num_abs, den_abs
        if not _RENORM_FLOOR <= mag <= RENORM_THRESHOLD or den_abs != den_abs:  # max skips a NaN |Q_n|
            if not mag < math.inf or den_abs != den_abs:  # NaN or infinity
                raise InvalidFactorError(f"convergent P_{n}/Q_{n} is not finite", n)
            k = renorm_exponent(mag, RENORM_THRESHOLD)  # 0 for a zero magnitude
            if k:
                s = math.ldexp(1.0, -k)
                self.num *= s
                self.den *= s
                self.num_prev *= s
                self.den_prev *= s
                self.num_abs, self.den_abs = abs(self.num), abs(self.den)
                self.exponent += k

    def unscaled(self) -> tuple[complex, complex, complex, complex]:
        """(P_n, P_{n-1}, Q_n, Q_{n-1}) with the power-of-two exponent undone."""
        scale = math.ldexp(1.0, self.exponent) if self.exponent else 1.0
        return self.num * scale, self.num_prev * scale, self.den * scale, self.den_prev * scale

    def value(self) -> ExtendedComplex:
        """P_n / Q_n on the sphere; invariant under renormalization."""
        return projective(self.num, self.den)


def convergents(cf: ContinuedFraction) -> ConvergentStream:
    return ConvergentStream(cf)


@dataclass(frozen=True)
class EvalResult:
    """Outcome of an approximant iteration.

    ``value`` is the limit when ``converged`` is true, otherwise None.
    """

    converged: bool
    value: ExtendedComplex | None
    n: int
    last_delta: float | None

    def limit(self, error: type[NoConvergenceError], message: str) -> ExtendedComplex:
        """The value, or ``error(message)`` carrying the last step when not converged."""
        if not self.converged:
            raise error(message, last_delta=self.last_delta)
        return self.value


def evaluate(cf: ContinuedFraction, tol: float, max_n: int) -> EvalResult:
    """Iterate approximants until chordally stable over ``STABILITY_WINDOW`` steps.

    A zero partial numerator truncates the fraction: the current approximant
    is then returned as its exact value.
    """
    return _subsequence_limits(cf, ((0, 1, None),), tol, STABILITY_WINDOW, max_n)[0]


def modified_value(cf: ContinuedFraction, w: Modifier, tol: float, max_n: int) -> EvalResult:
    """Limit of approximants with the tail denominator perturbed by w(n).

    The n-th approximant replaces b_n by b_n + w(n), evaluated through the
    identity (P_n + w P_{n-1}) / (Q_n + w Q_{n-1}).  With w identically 0
    this reproduces ``evaluate`` exactly.
    """
    return modified_values(cf, (w,), tol, max_n)[0]


def modified_values(
    cf: ContinuedFraction, modifiers: Sequence[Modifier], tol: float, max_n: int
) -> list[EvalResult]:
    """``modified_value`` for each modifier, all read off one convergent stream."""
    return _subsequence_limits(cf, [(1, 1, w) for w in modifiers], tol, STABILITY_WINDOW, max_n)


def limit_along_residue(
    cf: ContinuedFraction, residue: int, modulus: int, tol: float, max_n: int, w: Modifier | None = None
) -> EvalResult:
    """Limit of (optionally modified) approximants along n = residue (mod m)."""
    if modulus < 1:
        raise ValueError(f"modulus must be at least 1, got {modulus!r}")
    return _subsequence_limits(cf, ((residue % modulus, modulus, w),), tol, RESIDUE_WINDOW, max_n)[0]


def _subsequence_limits(
    cf: ContinuedFraction,
    subsequences: Sequence[tuple[int, int, Modifier | None]],
    tol: float,
    window: int,
    max_n: int,
) -> list[EvalResult]:
    """The chordal limit of each approximant subsequence, all read off one convergent stream.

    A subsequence (first, stride, w) takes the approximants at n = first,
    first + stride, ..., modified by w(n) unless w is None, and stops once
    its own ``Monitor`` does; the stream stops when all have, or after
    ``max_n`` terms.  Each gets the n, value and last step of a run of its
    own, and an error in forming term n is raised at n.  The modified approximant
    is (P_n + w P_{n-1}) / (Q_n + w Q_{n-1}), P_{n-1}/Q_{n-1} for w infinite.  A zero partial
    numerator a_n ends each unsettled unmodified subsequence at the exact
    value f_{n-1} and raises for a modified one (its tail no longer exists).
    """
    stream = convergents(cf)
    monitors = [Monitor(tol, window) for _ in subsequences]
    sampled = [0] * len(subsequences)
    results: list[EvalResult | None] = [None] * len(subsequences)
    pending = [(i, first, stride, w, monitors[i]) for i, (first, stride, w) in enumerate(subsequences)]
    while True:
        n = stream.n
        settled = False
        for i, first, stride, w, monitor in pending:
            if n >= first and (n - first) % stride == 0:
                if w is None:
                    z = quotient(stream.num, stream.den)
                elif (omega := as_extended(w(n))).is_infinity:
                    z = quotient(stream.num_prev, stream.den_prev)
                else:
                    z = quotient(stream.num + omega.z * stream.num_prev, stream.den + omega.z * stream.den_prev)
                sampled[i] = n
                if monitor.step(z):
                    results[i] = EvalResult(True, point(z), n, monitor.last_delta)
                    settled = True
        if settled:
            pending = [entry for entry in pending if results[entry[0]] is None]
        if not pending or n >= max_n:
            break
        try:
            stream.step()
        except ZeroPartialNumeratorError:
            if any(entry[3] is not None for entry in pending):
                raise
            for i, *_, monitor in pending:
                results[i] = EvalResult(True, stream.value(), n, monitor.last_delta)
            break
    return [r or EvalResult(False, None, sampled[i], monitors[i].last_delta) for i, r in enumerate(results)]


def equivalence_transform(cf: ContinuedFraction, scale: Callable[[int], complex]) -> ContinuedFraction:
    """Rescale terms by c_n without changing any approximant.

    The new fraction has a'_n = c_n c_{n-1} a_n and b'_n = c_n b_n with
    c_0 = 1.  Every approximant (not only the limit) is preserved.
    """

    def c(n: int) -> complex:
        if n == 0:
            return 1.0 + 0.0j
        value = complex(scale(n))
        if value == 0:
            raise ZeroScaleError(n)
        return value

    def terms(n: int) -> tuple[complex, complex]:
        a, b = cf.term(n)
        return c(n) * c(n - 1) * a, c(n) * b

    return ContinuedFraction(cf.b0, terms)
