"""Poincare-type recurrences with distinct unit-circle characteristic roots.

A solution of x_{n+p} = sum_r a_{n,r} x_{n+r} whose coefficient rows
converge absolutely to limits with distinct unit-modulus characteristic
roots is asymptotic to sum_i c_i alpha_i^n.  The coefficients c_i are
extracted through the matrix-product cocycle of the associated transfer
matrices, then pinned down by a Vandermonde solve (which fixes the
eigenvector normalization once and for all).

The transfer convention is the row-vector one: with u_n = (x_n, ...,
x_{n+p-1}), u_{n+1} = u_n T_n where T_n carries ones on the subdiagonal
and the coefficient row in its last column.  Products then accumulate on
the right, matching the matrix-product module's "left" orientation.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from ._numpy import np
from . import matprod as _mp
from .cf import RENORM_THRESHOLD, renorm_exponent
from .errors import RootsNotDistinctError, RootsNotUnitModulusError
from .limitset import UnitModulusNumber, power_cycles

CoefficientRow = Callable[[int], Sequence[complex]]


def characteristic_roots(limits: Sequence[complex]) -> np.ndarray:
    """All p roots of t^p - a_{p-1} t^(p-1) - ... - a_0, with multiplicity."""
    limits = [complex(v) for v in limits]
    p = len(limits)
    if p < 1:
        raise ValueError("need at least one coefficient")
    poly = np.empty(p + 1, dtype=complex)
    poly[0] = 1.0
    poly[1:] = [-limits[p - 1 - i] for i in range(p)]
    return np.roots(poly)


@dataclass(frozen=True)
class PoincareRecurrence:
    """Recurrence data: order, coefficient rows, limits, roots, tail bound.

    ``coefficients(n)`` returns (a_{n,0}, ..., a_{n,p-1}) for n >= 0.
    ``tail_bound(N)``, when given, bounds sum_{n>N} sum_r |a_r - a_{n,r}| and is nonincreasing.
    Roots must be pairwise distinct points of the unit circle; they are
    solved from the limit coefficients unless supplied.
    """

    order: int
    coefficients: CoefficientRow
    limits: tuple[complex, ...]
    roots: tuple[UnitModulusNumber, ...]
    tail_bound: Callable[[int], float] | None = None

    @classmethod
    def build(
        cls,
        coefficients: CoefficientRow,
        limits: Sequence[complex],
        roots: Sequence[UnitModulusNumber] | None = None,
        tail_bound: Callable[[int], float] | None = None,
    ) -> "PoincareRecurrence":
        limits = tuple(complex(v) for v in limits)
        p = len(limits)
        if roots is None:
            solved = characteristic_roots(limits)
            for r in solved:
                if abs(abs(r) - 1.0) > 1e-8:
                    raise RootsNotUnitModulusError(f"root {r} has modulus {abs(r)}")
            roots = tuple(UnitModulusNumber.from_angle(cmath.phase(r)) for r in solved)
        else:
            roots = tuple(roots)
            if len(roots) != p:
                raise ValueError("expected one root per coefficient")
            for r in roots:
                value = r.value
                residual = value**p - sum(
                    limits[i] * value**i for i in range(p)
                )
                if abs(residual) > 1e-10 * max(1.0, max(abs(v) for v in limits)):
                    raise ValueError(f"supplied root {value} misses the characteristic polynomial")
        values = [r.value for r in roots]
        for i in range(p):
            for j in range(i + 1, p):
                # A double root splits by ~sqrt(eps) under the solver, so the
                # separation threshold must sit well above that.
                if abs(values[i] - values[j]) < 1e-6:
                    raise RootsNotDistinctError(f"roots {values[i]} and {values[j]} coincide")
        return cls(p, coefficients, limits, roots, tail_bound)

    def root_values(self) -> list[complex]:
        return [r.value for r in self.roots]

    def transfer(self, n: int) -> np.ndarray:
        return _transfer_matrix(self.coefficients(n), self.order)

    def limit_transfer(self) -> np.ndarray:
        return _transfer_matrix(self.limits, self.order)

    def iterate(self, initial: Sequence[complex], count: int) -> np.ndarray:
        """x_0 .. x_{count-1} by direct iteration (values assumed bounded)."""
        if len(initial) != self.order:
            raise ValueError(f"need {self.order} initial values")
        values = np.empty(count, complex)
        exponents = np.empty(count, int)
        for n, (x, exponent) in enumerate(itertools.islice(_solution(self.coefficients, initial), count)):
            values[n], exponents[n] = x, exponent
        values.real, values.imag = np.ldexp(values.real, exponents), np.ldexp(values.imag, exponents)
        return values


def _solution(coefficients: CoefficientRow, initial: Sequence[complex]) -> Iterator[tuple[complex, int]]:
    """(x_n 2**-e_n, e_n) for n = 0, 1, ... of x_{n+p} = sum_r a_{n,r} x_{n+r}.

    Row n is read once x_n is out.  The state is rescaled exactly, by a power of two, whenever
    its largest entry leaves [1/RENORM_THRESHOLD, RENORM_THRESHOLD], as convergents are, so
    solutions neither overflow nor underflow; e_n is the exponent so far.
    """
    state = [complex(v) for v in initial]
    p = len(state)
    exponent = 0
    for n in itertools.count():
        yield state[0], exponent
        row = coefficients(n)
        state = state[1:] + [sum(complex(row[r]) * state[r] for r in range(p))]
        k = renorm_exponent(max(map(abs, state)), RENORM_THRESHOLD)
        if k:
            s = math.ldexp(1.0, -k)
            state = [complex(v.real * s, v.imag * s) for v in state]  # keeps signed zeros
            exponent += k


def _transfer_matrix(row: Sequence[complex], p: int) -> np.ndarray:
    t = np.zeros((p, p), dtype=complex)
    for i in range(p - 1):
        t[i + 1, i] = 1.0
    t[:, p - 1] = [complex(v) for v in row]
    return t


@dataclass(frozen=True)
class AsymptoticCoefficients:
    """c_i with x_n ~ sum c_i alpha_i^n, plus the measured residual."""

    c: tuple[complex, ...]
    f: np.ndarray
    n_terms: int
    residual: float
    residual_interval: tuple[int, int]


def asymptotic_coefficients(
    rec: PoincareRecurrence,
    initial: Sequence[complex],
    tol: float = 1e-10,
) -> AsymptoticCoefficients:
    """Extract the c_i from the transfer-matrix cocycle.

    With u_n = u_0 T_0 ... T_{n-1} ~ u_0 F M^n, the surrogate sequence
    y_k = (u_0 F M^k)[0] obeys the limit recurrence exactly, so solving the
    p x p Vandermonde system against its first p values yields the c_i.
    The reported residual is sup |x_n - sum c_i alpha_i^n| over an interval
    [N, 2N] past the cocycle's stopping index, measured by direct iteration.
    """
    p = rec.order
    if len(initial) != p:
        raise ValueError(f"need {p} initial values")
    m = rec.limit_transfer()
    pair = _mp.MatrixSequencePair(
        dim=p,
        d_seq=lambda i: rec.transfer(i - 1),
        m_seq=lambda i: m,
        tail_bound=(None if rec.tail_bound is None else (lambda n: rec.tail_bound(max(0, n - 1)))),
        side="left",
    )
    cocycle = _mp.cocycle_limit(pair, tol)
    u0 = np.asarray([complex(v) for v in initial], dtype=complex)
    y = u0 @ cocycle.f
    surrogate = np.empty(p, dtype=complex)
    for k in range(p):
        surrogate[k] = y[0]
        y = y @ m
    roots = rec.root_values()
    vander = np.array([[r**k for r in roots] for k in range(p)], dtype=complex)
    c = np.linalg.solve(vander, surrogate)

    n0 = max(cocycle.n_terms, 64)
    n1 = 2 * n0
    xs = rec.iterate(initial, n1 + 1)
    residual = 0.0
    for n in range(n0, n1 + 1):
        approx = sum(c[i] * rec.roots[i].power_value(n) for i in range(p))
        residual = max(residual, abs(xs[n] - approx))
    return AsymptoticCoefficients(tuple(c), cocycle.f, cocycle.n_terms, residual, (n0, n1))


@dataclass(frozen=True)
class RecurrenceResidues:
    """Residue-class limits l_j of x_n for root-of-unity spectra."""

    m: int
    l: tuple[complex, ...]
    c: tuple[complex, ...]
    limit_recurrence_residual: float


def residue_limits_recurrence(
    rec: PoincareRecurrence,
    initial: Sequence[complex],
    tol: float = 1e-10,
) -> RecurrenceResidues:
    """l_j = lim x_{nm+j} when every root is an exact root of unity.

    m is the least common order.  Since x_n ~ sum c_i alpha_i^n and every
    alpha_i^m = 1, the class limits are l_j = sum c_i alpha_i^j, read off
    the coefficients of ``asymptotic_coefficients``.  They are checked
    against the limit recurrence l_{n+p} = sum a_r l_{n+r} (periodic
    extension).
    """
    m = math.lcm(*(r.turns.denominator for r in rec.roots))
    cycles = power_cycles(rec.roots, m)  # raises unless every root is exact
    p = rec.order

    coeffs = asymptotic_coefficients(rec, initial, tol)
    l = tuple(sum(coeffs.c[i] * cycles[i][j] for i in range(p)) for j in range(m))
    rec_res = max(
        abs(sum(rec.limits[r] * l[(n + r) % m] for r in range(p)) - l[(n + p) % m]) for n in range(m)
    )
    return RecurrenceResidues(m, l, coeffs.c, rec_res)


def perron_limsup_diagnostic(
    coefficients: CoefficientRow,
    initial: Sequence[complex],
    n_max: int,
) -> float:
    """max over n in (n_max/2, n_max] of |x_n|^(1/n).

    For unit-modulus spectra this approaches 1.  Takes the raw coefficient
    rows (not a validated recurrence) so off-spectrum inputs can be probed;
    the iteration rescales its state by powers of two, so growing solutions
    do not overflow.
    """
    best = 0.0
    ln2 = math.log(2.0)
    for n, (x, exponent) in enumerate(itertools.islice(_solution(coefficients, initial), n_max + 1)):
        if n >= n_max // 2 and n >= 1 and abs(x) > 0.0:
            best = max(best, math.exp((math.log(abs(x)) + exponent * ln2) / n))
    return best
