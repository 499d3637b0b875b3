"""(r, s)-matrix continued fractions.

An (r, s)-system iterates n x n matrices theta_k (n = r + s); its k-th
approximant is the s x r matrix f(theta_k ... theta_2 theta_1), where
f(D) = B^-1 A with B the trailing s x s block of D and A the block of the
first r columns of the last s rows.  Note the reversed product order: new
factors multiply on the left.

The classical scalar case is (1, 1) with theta_k = [[0, 1], [a_k, b_k]];
the product's bottom row then performs exactly the three-term convergent
recurrence, so approximants coincide bit-for-bit with the classical ones.
The accumulated product is kept in plain Python complex arithmetic (and
rescaled by powers of two) to preserve that exactness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

from ._numpy import np
from . import matprod as _mp
from .cf import RENORM_THRESHOLD, renorm_exponent
from .errors import SingularBError

Matrix = list[list[complex]]


@dataclass(frozen=True)
class RSSystem:
    """theta-sequence with block split r + s = n and optional limit matrix.

    ``theta(k)`` must be a pure generator of n x n matrices for k >= 1.
    When ``theta_limit`` is given it must be diagonalizable with all
    eigenvalues on the unit circle (``matprod.unit_eigenbasis`` raises
    UnboundedMProductsError, a ValueError, otherwise); ``tail_bound(N)``
    should bound sum_{k>N} ||theta_k - theta_limit|| and be nonincreasing.
    """

    r: int
    s: int
    theta: Callable[[int], np.ndarray]
    theta_limit: np.ndarray | None = None
    tail_bound: Callable[[int], float] | None = None

    def __post_init__(self):
        if self.r < 1 or self.s < 1:
            raise ValueError("r and s must be positive")
        if self.theta_limit is not None:
            object.__setattr__(self, "theta_limit", np.asarray(self.theta_limit, dtype=complex))
            if self.theta_limit.shape != (self.n, self.n):
                raise ValueError("theta_limit has the wrong shape")
            self.eigenbasis  # validates theta_limit

    @property
    def n(self) -> int:
        return self.r + self.s

    @functools.cached_property
    def eigenbasis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``matprod.unit_eigenbasis(theta_limit)``, (mu, S, S^-1), decomposed once."""
        return _mp.unit_eigenbasis(self.theta_limit)

    def factor(self, k: int) -> Matrix:
        m = np.asarray(self.theta(k), dtype=complex)
        if m.shape != (self.n, self.n):
            raise ValueError(f"theta({k}) has shape {m.shape}, expected {(self.n, self.n)}")
        return [[complex(m[i, j]) for j in range(self.n)] for i in range(self.n)]


def f_projection(d: np.ndarray, r: int, s: int) -> np.ndarray:
    """f(D) = B^-1 A for the trailing s x s block B and the s x r block A."""
    d = np.asarray(d, dtype=complex)
    if d.shape != (r + s, r + s):
        raise ValueError(f"matrix is {d.shape}, expected {(r + s, r + s)}")
    b = d[r:, r:]
    a = d[r:, :r]
    if s == 1:
        # Scalar division, bit-identical to the classical convergent quotient.
        pivot = complex(b[0, 0])
        if pivot == 0:
            raise SingularBError()
        return np.array([[complex(a[0, j]) / pivot for j in range(r)]])
    try:
        return np.linalg.solve(b, a)
    except np.linalg.LinAlgError as exc:
        raise SingularBError() from exc


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    # Plain Python complex arithmetic: for (1, 1) systems the bottom row is
    # then the identical floating-point recurrence the scalar stream runs.
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def rs_approximants(sys: RSSystem, k_max: int) -> Iterator[tuple[int, np.ndarray | None]]:
    """Yield (k, s_k) for k = 1..k_max; s_k is None where B is singular.

    The product theta_k ... theta_1 is accumulated incrementally and
    rescaled by exact powers of two when entries grow; f is scale-invariant
    so approximants are unaffected.
    """
    n = sys.n
    product: Matrix | None = None
    for k in range(1, k_max + 1):
        factor = sys.factor(k)
        product = factor if product is None else _matmul(factor, product)
        k_exp = renorm_exponent(max(abs(v) for row in product for v in row), RENORM_THRESHOLD)
        if k_exp:
            scale = math.ldexp(1.0, -k_exp)
            product = [[v * scale for v in row] for row in product]
        try:
            yield k, f_projection(np.asarray(product, dtype=complex), sys.r, sys.s)
        except SingularBError:
            yield k, None


@dataclass(frozen=True)
class RSAsymptotics:
    """Cocycle limit F with the asymptotic approximant surrogate."""

    f_matrix: np.ndarray
    n_terms: int

    r: int
    s: int
    _eigenbasis: tuple[np.ndarray, np.ndarray, np.ndarray]  # (mu, S, S^-1)

    def theta_power(self, k: int) -> np.ndarray:
        mu, s, s_inv = self._eigenbasis
        return s @ np.diag(mu**k) @ s_inv

    def predictor(self, k: int) -> np.ndarray:
        """f(theta^k F), asymptotic to the k-th approximant."""
        return f_projection(self.theta_power(k) @ self.f_matrix, self.r, self.s)


def rs_asymptotics(
    sys: RSSystem,
    tol: float = 1e-10,
) -> RSAsymptotics:
    """F = lim theta^-k theta_k ... theta_1 and the predictor k -> f(theta^k F).

    Requires the limit matrix; the product is the reversed-order cocycle,
    so the matrix-product machinery runs with "right" orientation.
    """
    if sys.theta_limit is None:
        raise ValueError("asymptotics need theta_limit")
    theta = sys.theta_limit
    pair = _mp.MatrixSequencePair(
        dim=sys.n,
        d_seq=sys.theta,
        m_seq=lambda i: theta,
        tail_bound=sys.tail_bound,
        side="right",
    )
    result = _mp.cocycle_limit(pair, tol)
    return RSAsymptotics(result.f, result.n_terms, sys.r, sys.s, _eigenbasis=sys.eigenbasis)
