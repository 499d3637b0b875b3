"""Generic continued fraction evaluation on the Riemann sphere.

Convergents are kept as projective pairs (P_n, Q_n) advanced by the
three-term recurrence

    P_n = b_n P_{n-1} + a_n P_{n-2},    Q_n = b_n Q_{n-1} + a_n Q_{n-2},

seeded with P_{-1} = 1, Q_{-1} = 0, P_0 = b0, Q_0 = 1, so the approximant
f_n = P_n/Q_n includes the terms through (a_n, b_n).  Whenever a component
grows past a threshold both pairs are rescaled by a power of two (exact in
binary floating point) and the exponent is recorded; the value P_n/Q_n is
untouched by this.

Convergence in the extended plane is judged in the chordal metric: a mere
pair of close consecutive approximants is easily faked by a slowly
rotating unit eigenvalue ratio, so instead we require a stability window
of consecutive small steps.  That criterion is a heuristic, not a proof.
``Monitor`` is the one place that counts such windows for every limit
sequence of the package, ``renorm_exponent`` the one power-of-two
renormalizer, and ``geometric_tail`` the one geometric tail bound.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .errors import ZeroPartialNumeratorError, ZeroScaleError
from .sphere import ExtendedComplex, as_extended, chordal_distance, projective

TermGenerator = Callable[[int], tuple[complex, complex]]

#: Default renormalization trigger for convergent pairs.
RENORM_THRESHOLD = 1e150

#: Stability windows: whole sequences, residue classes, and period blocks.
STABILITY_WINDOW = 16
RESIDUE_WINDOW = 8
BLOCK_WINDOW = 4


class Monitor:
    """The stopping rule shared by every limit sequence of the package.

    ``update`` takes the latest step size of the sequence (``math.inf``
    while there is no previous term) and, where the caller has one, a
    bound on the remaining distance to the limit.  It returns "window"
    once ``window`` consecutive steps are under ``tol``, "tail-bound" when
    the bound is, and None otherwise.  A window stop is a heuristic: it is
    taken even while a supplied tail bound still exceeds ``tol``.
    """

    __slots__ = ("tol", "window", "stable", "last_delta")

    def __init__(self, tol: float, window: int):
        if tol <= 0:
            raise ValueError("tol must be positive")
        self.tol = tol
        self.window = window
        self.stable = 0
        self.last_delta: float | None = None

    def update(self, delta: float, tail_bound: float | None = None) -> str | None:
        self.last_delta = delta
        self.stable = self.stable + 1 if delta < self.tol else 0
        if self.stable >= self.window:
            return "window"
        if tail_bound is not None and tail_bound < self.tol:
            return "tail-bound"
        return None


def renorm_exponent(mag: float, threshold: float) -> int:
    """k with mag * 2**-k in [1/2, 1) once mag leaves [1/threshold, threshold], else 0.

    Scaling by a power of two is exact, so renormalized pairs keep their
    quotients bit for bit.
    """
    if mag > threshold or (0.0 < mag < 1.0 / threshold):
        return math.frexp(mag)[1]
    return 0


def geometric_tail(weight: float, ratio: float) -> Callable[[int], float]:
    """n -> sum_{k>n} weight * ratio**k for 0 <= ratio < 1 (and n >= 0)."""
    return lambda n: weight * ratio ** (n + 1) / (1.0 - ratio)


@dataclass(frozen=True)
class ContinuedFraction:
    """b0 + K(a_n / b_n) with terms supplied by a pure generator.

    ``terms(n)`` must return the pair (a_n, b_n) for n >= 1 and must be a
    pure function of n.  A zero partial numerator is rejected during
    iteration (it would truncate the fraction).
    """

    b0: complex
    terms: TermGenerator

    def term(self, n: int) -> tuple[complex, complex]:
        a, b = self.terms(n)
        return complex(a), complex(b)


class ConvergentStream:
    """Iterates the convergent recurrence of a continued fraction.

    Attributes ``num``/``den`` hold the current stored pair and
    ``num_prev``/``den_prev`` the previous one; true convergents are the
    stored values times 2**exponent.  A running product of the partial
    numerators is carried along (with its own power-of-two exponent) so the
    determinant identity

        P_n Q_{n-1} - P_{n-1} Q_n = (-1)^(n-1) * prod_{k<=n} a_k

    is checkable at every step.
    """

    def __init__(self, cf: ContinuedFraction, renorm_threshold: float = RENORM_THRESHOLD):
        self.cf = cf
        self.renorm_threshold = float(renorm_threshold)
        self.n = 0
        self.num_prev, self.den_prev = 1.0 + 0.0j, 0.0 + 0.0j
        self.num, self.den = complex(cf.b0), 1.0 + 0.0j
        self.exponent = 0
        self._a_prod = 1.0 + 0.0j
        self._a_prod_exp = 0

    def step(self) -> None:
        n = self.n + 1
        a, b = self.cf.term(n)
        if a == 0:
            raise ZeroPartialNumeratorError(n)
        self.num_prev, self.num = self.num, b * self.num + a * self.num_prev
        self.den_prev, self.den = self.den, b * self.den + a * self.den_prev
        self.n = n
        self._a_prod *= a
        self._renormalize()

    def _renormalize(self) -> None:
        mag = max(abs(self.num), abs(self.den), abs(self.num_prev), abs(self.den_prev))
        k = renorm_exponent(mag, self.renorm_threshold)
        if k:
            s = math.ldexp(1.0, -k)
            self.num *= s
            self.den *= s
            self.num_prev *= s
            self.den_prev *= s
            self.exponent += k
        k = renorm_exponent(abs(self._a_prod), self.renorm_threshold)
        if k:
            self._a_prod *= math.ldexp(1.0, -k)
            self._a_prod_exp += k

    def value(self) -> ExtendedComplex:
        """P_n / Q_n on the sphere; invariant under renormalization."""
        return projective(self.num, self.den)

    def modified(self, omega) -> ExtendedComplex:
        """(P_n + w P_{n-1}) / (Q_n + w Q_{n-1}); w may be infinity."""
        omega = as_extended(omega)
        if omega.is_infinity:
            return projective(self.num_prev, self.den_prev)
        w = omega.z
        return projective(self.num + w * self.num_prev, self.den + w * self.den_prev)

    def determinant_residual(self) -> float:
        """Deviation from the determinant identity, condition-aware.

        Returns |P_n Q_{n-1} - P_{n-1} Q_n - (-1)^(n-1) prod a_k| divided by
        the largest magnitude entering the cancellation, at the stored
        scale.  When convergents stay O(1) (the elliptic-type regime) this
        is the plain relative error; for exponentially growing convergents
        it measures drift relative to what double precision can resolve.
        """
        lhs = self.num * self.den_prev
        rhs = self.num_prev * self.den
        det = lhs - rhs
        target = self._a_prod if self.n % 2 == 1 else -self._a_prod
        # Align the product onto the stored scale of the convergent pairs.
        shift = self._a_prod_exp - 2 * self.exponent
        try:
            aligned = complex(
                math.ldexp(target.real, shift), math.ldexp(target.imag, shift)
            )
        except OverflowError:
            aligned = complex(math.inf, 0.0)
        if not (math.isfinite(aligned.real) and math.isfinite(aligned.imag)):
            # The product dwarfs the representable determinant: compare in
            # the product's scale instead.
            det_aligned = complex(
                math.ldexp(det.real, -shift), math.ldexp(det.imag, -shift)
            )
            return abs(det_aligned - target) / abs(target)
        scale = max(abs(lhs), abs(rhs), abs(aligned))
        if scale == 0.0:
            return math.inf
        return abs(det - aligned) / scale


def convergents(cf: ContinuedFraction, renorm_threshold: float = RENORM_THRESHOLD) -> ConvergentStream:
    return ConvergentStream(cf, renorm_threshold)


@dataclass(frozen=True)
class EvalResult:
    """Outcome of an approximant iteration.

    ``value`` is the limit when ``converged`` is true, otherwise None.
    ``history`` keeps the last few approximants for diagnostics.
    """

    converged: bool
    value: ExtendedComplex | None
    n: int
    last_delta: float | None
    history: tuple[ExtendedComplex, ...] = field(default=())


def _settle(
    samples: Iterator[tuple[int, ExtendedComplex | None]], tol: float, window: int
) -> EvalResult:
    """Run (n, approximant) samples through a Monitor of their chordal steps.

    A ``None`` approximant means the fraction terminated, so the previous
    sample is its exact value.
    """
    monitor = Monitor(tol, window)
    history: deque[ExtendedComplex] = deque(maxlen=window)
    n, prev = 0, None
    for k, value in samples:
        if value is None:
            return EvalResult(True, prev, n, monitor.last_delta, tuple(history))
        n = k
        history.append(value)
        if prev is not None and monitor.update(chordal_distance(value, prev)):
            return EvalResult(True, value, n, monitor.last_delta, tuple(history))
        prev = value
    return EvalResult(False, None, n, monitor.last_delta, tuple(history))


def evaluate(
    cf: ContinuedFraction,
    tol: float,
    max_n: int,
    on_zero_numerator: str = "raise",
) -> EvalResult:
    """Iterate approximants until chordally stable over ``STABILITY_WINDOW`` steps.

    ``on_zero_numerator`` may be "raise" (default, the generic contract) or
    "terminate": a zero partial numerator then truncates the fraction and
    the current approximant is returned as its exact value.
    """

    def samples():
        stream = ConvergentStream(cf)
        yield 0, stream.value()
        for _ in range(max_n):
            try:
                stream.step()
            except ZeroPartialNumeratorError:
                if on_zero_numerator != "terminate":
                    raise
                yield stream.n, None  # ends _settle
            yield stream.n, stream.value()

    return _settle(samples(), tol, STABILITY_WINDOW)


def modified_value(
    cf: ContinuedFraction,
    w: Callable[[int], complex | ExtendedComplex],
    tol: float,
    max_n: int,
    window: int = STABILITY_WINDOW,
) -> EvalResult:
    """Limit of approximants with the tail denominator perturbed by w(n).

    The n-th approximant replaces b_n by b_n + w(n), evaluated through the
    identity (P_n + w P_{n-1}) / (Q_n + w Q_{n-1}).  With w identically 0
    this reproduces ``evaluate`` exactly.
    """

    def samples():
        stream = ConvergentStream(cf)
        for _ in range(max_n):
            stream.step()
            yield stream.n, stream.modified(w(stream.n))

    return _settle(samples(), tol, window)


def limit_along_residue(
    cf: ContinuedFraction,
    residue: int,
    modulus: int,
    tol: float,
    max_n: int,
    w: Callable[[int], complex | ExtendedComplex] | None = None,
) -> EvalResult:
    """Limit of (optionally modified) approximants along n = residue (mod m)."""

    def samples():
        stream = ConvergentStream(cf)
        current = stream.value if w is None else (lambda: stream.modified(w(stream.n)))
        if residue % modulus == 0:
            yield 0, current()
        for _ in range(max_n):
            stream.step()
            if stream.n % modulus == residue % modulus:
                yield stream.n, current()

    return _settle(samples(), tol, RESIDUE_WINDOW)


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
