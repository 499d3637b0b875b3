"""Infinite matrix products with controlled divergence.

Three regimes: absolutely summable factors I + A_i (the product converges
outright); factors drifting toward a single finite-order matrix M (partial
products converge along residue classes to M^j F or F M^j, F the first
regime's product over whole periods); and factors drifting toward a constant
comparison matrix M with bounded powers (the cocycle F = lim (prod D)(M^n)^-1
exists, computed in M's eigenbasis in blocks of steps, and prod D ~ F M^n).

Products come in two orientations.  "left" means D_1 D_2 ... D_n (new
factors attach on the right); the cocycle is then (prod D)(M^n)^-1, the
asymptotics prod D ~ F M^n, and residue limits are F M^j.  "right" means
D_n ... D_2 D_1; the cocycle is (M^n)^-1 (prod D), the asymptotics
prod D ~ M^n F, and residue limits are M^j F.  Norms are always the
maximum absolute entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable

from ._numpy import np
from .cf import STABILITY_WINDOW, Monitor, checked_tol
from .errors import (
    BudgetExceededError,
    InvalidFactorError,
    MNotFiniteOrderError,
    UnboundedMProductsError,
)

Side = str  # "left" | "right"

#: Steps per block of ``cocycle_limit``, doubling from the first to the last: a small
#: first block forms few unused factors; larger blocks were slower (more scan levels).
BLOCK_STEPS = (16, 64)


def entry_norm(a: np.ndarray) -> float:
    """Maximum absolute entry (0 for an empty array)."""
    return float(np.abs(a).max()) if a.size else 0.0


def _check_side(side: Side) -> None:
    if side not in ("left", "right"):
        raise ValueError(f'side must be "left" or "right", got {side!r}')


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of small matrices, as d broadcast products (``@`` calls BLAS per matrix)."""
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j : j + 1] * b[..., j : j + 1, :]
    return out


def unit_eigenbasis(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu, S, S^-1) with M = S diag(mu) S^-1; UnboundedMProductsError unless
    every |mu_k| is within 1e-8 of 1 and cond(S) <= 1e8, i.e. M^{+-n} bounded."""
    mu, s = np.linalg.eig(m)
    k = int(np.abs(np.abs(mu) - 1.0).argmax())
    if abs(abs(mu[k]) - 1.0) > 1e-8:
        raise UnboundedMProductsError(f"M has an eigenvalue of modulus {abs(mu[k]):.6g}, not 1")
    if np.linalg.cond(s) > 1e8:
        raise UnboundedMProductsError("M is not (numerically) diagonalizable")
    return mu, s, np.linalg.inv(s)


@dataclass(frozen=True)
class MatrixSequencePair:
    """Perturbed sequence D_i with a constant comparison matrix M.

    ``d_seq`` and ``m_seq`` must be pure in i (results are read after later calls);
    every ``m_seq(i)`` is M (``cocycle_limit`` raises InvalidFactorError at the
    first that differs), and M must pass ``unit_eigenbasis``.  ``tail_bound(N)``,
    when given, bounds sum_{i>N} ||D_i - M|| and is nonincreasing with limit 0.
    """

    dim: int
    d_seq: Callable[[int], np.ndarray]
    m_seq: Callable[[int], np.ndarray]
    tail_bound: Callable[[int], float] | None = None
    side: Side = "left"

    def __post_init__(self):
        _check_side(self.side)

    def m(self, i: int) -> np.ndarray:
        return self._square(self.m_seq(i))

    def _square(self, factor) -> np.ndarray:
        a = np.asarray(factor, dtype=complex)
        return a if a.shape == (self.dim, self.dim) else a.reshape(self.dim, self.dim)


def wedderburn_product(
    a_seq: Callable[[int], np.ndarray],
    tail_bound: Callable[[int], float],
    tol: float = 1e-12,
    max_terms: int = 100_000,
    side: Side = "left",
) -> np.ndarray:
    """prod (I + A_i) for absolutely summable A_i, to within ``tol``.

    The remaining factors multiply the partial product by something within
    exp(tail) - 1 of the identity (in the submultiplicative scaled norm),
    which yields the stopping bound; ``tol`` is checked before any A_i is
    formed.  A non-finite A_i, or partial product after it, raises
    InvalidFactorError at i.
    """
    _check_side(side)
    checked_tol(tol)
    first = np.asarray(a_seq(1), dtype=complex)
    if first.ndim != 2 or first.shape[0] != first.shape[1]:
        raise ValueError(f"the first factor must be a square matrix, got shape {first.shape}")
    d = first.shape[0]
    eye = np.eye(d, dtype=complex)
    product = eye.copy()
    for i in range(1, max_terms + 1):
        a_i = (first if i == 1 else np.asarray(a_seq(i), dtype=complex)).reshape(d, d)
        if not np.isfinite(a_i).all():
            raise InvalidFactorError(f"factor A_{i} is not finite", i)
        product = product @ (eye + a_i) if side == "left" else (eye + a_i) @ product
        norm = entry_norm(product)
        if not norm < math.inf:  # also NaN, which max(1.0, norm) would hide
            raise InvalidFactorError(f"partial product is not finite after A_{i}", i)
        if d * max(1.0, norm) * math.expm1(min(tail_bound(i), 709.0)) < tol:  # expm1(709.79) overflows
            return product
    raise BudgetExceededError(f"product tail above tolerance after {max_terms} factors")


@dataclass(frozen=True)
class CocycleResult:
    """Limit F of (prod D)(M^n)^-1 (orientation-adjusted) and diagnostics."""

    f: np.ndarray
    n_terms: int
    det_f: complex
    d_all_nonsingular: bool
    last_delta: float


def cocycle_limit(
    pair: MatrixSequencePair,
    tol: float = 1e-10,
    max_terms: int = 200_000,
) -> CocycleResult:
    """F = lim (prod D_i)(M^n)^-1, orientation per ``pair.side``.

    M = ``pair.m(1)`` = S diag(mu) S^-1 is decomposed once, before any D_i,
    and (M^n)^-1 = S diag(mu^-n) S^-1 comes from running products of mu^-1.
    In each block of steps (``BLOCK_STEPS``), its D_i read by one array conversion, a log2-level
    scan of stacked matmuls forms the partial products; F_n, the steps max|F_n - F_{n-1}|,
    the tail bounds and the det(D_i) flags are array operations, and the Monitor sees each
    step in order, as a step-by-step loop would.  The tail bound is d^2 (B g)^2 max(1, ||F_n||)
    tail_bound(n): B = max_ij sum_k |S_ik||S^-1_kj| times g, the largest |mu_k^{+-j}| up to the
    end of the block, bounds every entry of M^j and M^-j.  While d^2 B^2 tail_bound(max_terms)
    >= tol it cannot stop the loop (tail_bound is nonincreasing): it is read once.  A non-finite
    D_i, or an M_i other than M, raises InvalidFactorError at i unless the loop stopped before it.
    """
    d = pair.dim
    mul = _matmul if pair.side == "left" else (lambda a, b: _matmul(b, a))  # P_n = mul(P_{n-1}, D_n)
    m = pair.m(1)
    mu, s, s_inv = unit_eigenbasis(m)
    bound = float((np.abs(s) @ np.abs(s_inv)).max())
    monitor = Monitor(tol, STABILITY_WINDOW)
    product = np.eye(d, dtype=complex)
    f_prev = np.full((d, d), math.inf, dtype=complex)  # so the first step is inf
    w, growth, nonsingular, tail_bound = np.ones(d, dtype=complex), 1.0, True, pair.tail_bound  # w = mu^-n
    if tail_bound is not None and d * d * (bound * growth) ** 2 * tail_bound(max_terms) >= tol:
        tail_bound = None
    start, size = 1, BLOCK_STEPS[0]
    while start <= max_terms:
        steps = range(start, start + min(size, max_terms - start + 1))
        factors = [pair.d_seq(i) for i in steps]
        try:  # one conversion for the block; factor by factor, for the error, if it fails
            block = np.array(factors, dtype=complex).reshape(len(steps), d, d)
        except ValueError:  # ragged, or a factor without d^2 entries
            block = np.array([pair._square(factor) for factor in factors])
        others = [(i, mi) for i in steps if (mi := pair.m_seq(i)) is not m]
        stop_at, message = steps.stop, None  # the first step the loop may not take
        if others:
            differs = (np.array([pair._square(mi) for _, mi in others]) != m).any(axis=(1, 2))
            if differs.any():
                stop_at = others[int(differs.argmax())][0]
                message = f"M_{stop_at} differs from M_1; cocycle_limit needs a constant comparison matrix"
        finite = np.isfinite(block).all(axis=(1, 2))
        if not finite[: stop_at - start].all():
            stop_at = start + int(finite.argmin())
            message = f"factor D_{stop_at} is not finite"
        block = block[: stop_at - start]
        if not len(block):
            raise InvalidFactorError(message, stop_at)
        singular = np.abs(np.linalg.det(block)) < 1e-12 * np.maximum(np.abs(block).max(axis=(1, 2)), 1.0) ** d
        block[0] = mul(product, block[0])
        shift = 1
        while shift < len(block):
            block[shift:] = mul(block[:-shift], block[shift:])
            shift *= 2
        ws = w * np.cumprod(np.broadcast_to(1.0 / mu, (len(block), d)), axis=0)
        f = mul(block, _matmul(s * ws[:, None, :], s_inv))  # F_n = mul(P_n, S diag(mu^-n) S^-1)
        deltas = np.abs(f - np.concatenate((f_prev[None], f[:-1]))).max(axis=(1, 2)).tolist()
        tails = [None] * len(block)
        if tail_bound is not None:
            mags = np.abs(ws)
            growth = max(growth, float(np.maximum(mags, 1.0 / mags).max()))
            t = [tail_bound(i) for i in range(start, stop_at)]
            tails = (d * d * (bound * growth) ** 2 * np.maximum(np.abs(f).max(axis=(1, 2)), 1.0) * t).tolist()
        for k, (delta, tail) in enumerate(zip(deltas, tails)):
            if monitor.update(delta, tail):
                nonsingular = nonsingular and not singular[: k + 1].any()
                return CocycleResult(f[k].copy(), start + k, complex(np.linalg.det(f[k])), nonsingular, delta)
        if message:
            raise InvalidFactorError(message, stop_at)
        nonsingular = nonsingular and not singular.any()
        product, f_prev, w = block[-1], f[-1], ws[-1]
        start, size = stop_at, min(2 * size, BLOCK_STEPS[-1])
    raise monitor.exhausted(f"cocycle not stable after {max_terms} factors", BudgetExceededError)


@dataclass(frozen=True)
class ResidueMatrixResult:
    """Period limit F, the residue-class limits F M^j (or M^j F) and the periods used."""

    f: np.ndarray
    residue_limits: tuple[np.ndarray, ...]
    n_blocks: int


def residue_matrix_limits(
    d_seq: Callable[[int], np.ndarray],
    m: np.ndarray,
    order: int,
    tol: float = 1e-10,
    side: Side = "left",
    *,
    tail_bound: Callable[[int], float],
) -> ResidueMatrixResult:
    """F = lim of whole-period partial products when D_n -> M with M^order = I.

    Along residue class j the partial products converge to F M^j for left
    products (trailing factors drift to M) and to M^j F for right products.
    F is the ``wedderburn_product`` of the period products, with tail
    order * tail_bound(k order) after period k (``tail_bound(N)`` bounds
    sum_{n>N} ||D_n - M||); it stops on that bound only.  ``d_seq`` must be
    pure in n: a period whose product is not finite is read again, and the
    first non-finite D_n raises InvalidFactorError at n.
    """
    _check_side(side)
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    eye = np.eye(d, dtype=complex)
    if entry_norm(np.linalg.matrix_power(m, order) - eye) > 1e-12:
        raise MNotFiniteOrderError(f"M^{order} differs from the identity")

    blocks = 0

    def period(k: int) -> np.ndarray:  # B_k - I, B_k the product of D_{(k-1)order+1} .. D_{k order}
        nonlocal blocks
        blocks, first = k, (k - 1) * order + 1
        factors = [np.asarray(d_seq(n), dtype=complex).reshape(d, d) for n in range(first, first + order)]
        return reduce(np.matmul, factors if side == "left" else factors[::-1]) - eye

    try:
        f = wedderburn_product(period, lambda k: order * tail_bound(k * order), tol, 50_000, side)
    except InvalidFactorError as err:
        n = err.n * order
        for i in range(n - order + 1, n + 1):
            if not np.isfinite(np.asarray(d_seq(i), dtype=complex)).all():
                raise InvalidFactorError(f"factor D_{i} is not finite", i) from None
        raise InvalidFactorError(f"partial product is not finite after D_{n}", n) from None

    limits, power = [], eye
    for _ in range(order):
        limits.append(f @ power if side == "left" else power @ f)
        power = power @ m
    return ResidueMatrixResult(f, tuple(limits), blocks)


def product_predictor(pair: MatrixSequencePair, f: np.ndarray, n: int) -> np.ndarray:
    """The asymptotic surrogate F M^n (orientation-adjusted).

    Observables of the true products prod D_i approach the same observable
    of this surrogate, which is how limit sets transfer through continuous
    functions of the product.
    """
    power = np.linalg.matrix_power(pair.m(1), n)
    return f @ power if pair.side == "left" else power @ f
