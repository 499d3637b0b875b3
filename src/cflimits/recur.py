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
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import matprod as _mp
from .cf import BLOCK_WINDOW, Monitor, renorm_exponent
from .errors import (
    BudgetExceededError,
    RootsNotDistinctError,
    RootsNotUnitModulusError,
)
from .limitset import UnitModulusNumber

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
    ``tail_bound(N)``, when given, bounds sum_{n>N} sum_r |a_r - a_{n,r}|.
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
        p = self.order
        if len(initial) != p:
            raise ValueError(f"need {p} initial values")
        out = np.empty(count, dtype=complex)
        out[: min(p, count)] = [complex(v) for v in initial[: min(p, count)]]
        for n in range(count - p):
            row = self.coefficients(n)
            out[n + p] = sum(complex(row[r]) * out[n + r] for r in range(p))
        return out


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
    max_terms: int = 200_000,
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
    cocycle = _mp.cocycle_limit(pair, tol, max_terms)
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
        approx = sum(c[i] * rec.roots[i].power(n).value for i in range(p))
        residual = max(residual, abs(xs[n] - approx))
    return AsymptoticCoefficients(tuple(c), cocycle.f, cocycle.n_terms, residual, (n0, n1))


@dataclass(frozen=True)
class RecurrenceResidues:
    """Residue-class limits l_j of x_n for root-of-unity spectra."""

    m: int
    l: tuple[complex, ...]
    c: tuple[complex, ...]
    limit_recurrence_residual: float
    representation_residual: float


def residue_limits_recurrence(
    rec: PoincareRecurrence,
    initial: Sequence[complex],
    tol: float = 1e-10,
    max_blocks: int = 50_000,
) -> RecurrenceResidues:
    """l_j = lim x_{nm+j} when every root is an exact root of unity.

    m is the least common order.  The measured limits are checked against
    the limit recurrence l_{n+p} = sum a_r l_{n+r} (periodic extension) and
    against the representation l_n = sum c_i alpha_i^n.
    """
    orders = [r.order() for r in rec.roots]
    if any(o is None for o in orders):
        raise ValueError("residue limits need exact root-of-unity spectra")
    m = math.lcm(*orders)
    p = rec.order

    def x_stream():
        state = [complex(v) for v in initial]
        n = 0
        while True:
            yield state[0]
            row = rec.coefficients(n)
            state = state[1:] + [sum(complex(row[r]) * state[r] for r in range(p))]
            n += 1

    values = x_stream()
    prev: list[complex] | None = None
    delta = math.inf
    monitor = Monitor(tol, BLOCK_WINDOW)
    block: list[complex] = []
    for k in range(max_blocks):
        block = [next(values) for _ in range(m)]
        if prev is not None:
            delta = max(abs(x - y) for x, y in zip(block, prev))
        prev = block
        tail = None
        if rec.tail_bound is not None and k >= 2:
            tail = 2.0 * max(1.0, max(abs(v) for v in block)) * rec.tail_bound(k * m)
        if monitor.update(delta, tail):
            break
    else:
        raise BudgetExceededError(f"residue blocks not stable after {max_blocks} periods")
    l = tuple(block)

    coeffs = asymptotic_coefficients(rec, initial, tol)
    rec_res = 0.0
    for n in range(m):
        predicted = sum(rec.limits[r] * l[(n + r) % m] for r in range(p))
        rec_res = max(rec_res, abs(predicted - l[(n + p) % m]))
    rep_res = 0.0
    for n in range(m):
        rep = sum(coeffs.c[i] * rec.roots[i].power(n).value for i in range(p))
        rep_res = max(rep_res, abs(rep - l[n]))
    return RecurrenceResidues(m, l, coeffs.c, rec_res, rep_res)


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
    p = len(initial)
    state = [complex(v) for v in initial]
    exponent = 0
    best = 0.0
    lo = n_max // 2
    ln2 = math.log(2.0)
    for n in range(n_max + 1):
        if n >= lo and n >= 1:
            mag = abs(state[0])
            if mag > 0.0:
                best = max(best, math.exp((math.log(mag) + exponent * ln2) / n))
        row = coefficients(n)
        nxt = sum(complex(row[r]) * state[r] for r in range(p))
        state = state[1:] + [nxt]
        k = renorm_exponent(max(abs(v) for v in state), 1e100)
        if k:
            s = math.ldexp(1.0, -k)
            state = [v * s for v in state]
            exponent += k
    return best
