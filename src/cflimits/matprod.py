"""Infinite matrix products with controlled divergence.

Three regimes: absolutely summable factors I + A_i (the product converges
outright); factors drifting toward a single finite-order matrix M (partial
products converge along blocks of the order, with residue limits M^j F or
F M^j); and factors drifting toward a bounded comparison sequence M_i (the
cocycle F = lim (prod D)(prod M)^-1 exists and prod D ~ F prod M).

Products come in two orientations.  "left" means D_1 D_2 ... D_n (new
factors attach on the right); the cocycle is then (prod D)(prod M)^-1, the
asymptotics prod D ~ F prod M, and residue limits are F M^j.  "right"
means D_n ... D_2 D_1; the cocycle is (prod M)^-1 (prod D), the asymptotics
prod D ~ (prod M) F, and residue limits are M^j F.  Norms are always the
maximum absolute entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cf import BLOCK_WINDOW, STABILITY_WINDOW, Monitor
from .errors import (
    BudgetExceededError,
    MNotFiniteOrderError,
    UnboundedMProductsError,
)

Side = str  # "left" | "right"

#: Steps between consistency checks of the incrementally inverted product.
INVERSE_CHECK_EVERY = 64


def entry_norm(a: np.ndarray) -> float:
    """Maximum absolute entry."""
    return float(np.max(np.abs(a))) if a.size else 0.0


@dataclass
class MatrixSequencePair:
    """Perturbed sequence D_i with comparison sequence M_i.

    ``tail_bound(N)``, when given, bounds sum_{i>N} ||D_i - M_i||.  Both
    prod(M) and prod(M)^-1 must stay bounded; that hypothesis cannot be
    checked globally, so partial products are monitored against
    ``norm_ceiling`` and violations raise UnboundedMProductsError.
    """

    dim: int
    d_seq: Callable[[int], np.ndarray]
    m_seq: Callable[[int], np.ndarray]
    tail_bound: Callable[[int], float] | None = None
    side: Side = "left"
    norm_ceiling: float = 1e6

    def d(self, i: int) -> np.ndarray:
        return np.asarray(self.d_seq(i), dtype=complex).reshape(self.dim, self.dim)

    def m(self, i: int) -> np.ndarray:
        return np.asarray(self.m_seq(i), dtype=complex).reshape(self.dim, self.dim)


def wedderburn_product(
    a_seq: Callable[[int], np.ndarray],
    tail_bound: Callable[[int], float],
    tol: float = 1e-12,
    max_terms: int = 100_000,
    dim: int | None = None,
    side: Side = "left",
) -> np.ndarray:
    """prod (I + A_i) for absolutely summable A_i, to within ``tol``.

    The remaining factors multiply the partial product by something within
    exp(tail) - 1 of the identity (in the submultiplicative scaled norm),
    which yields the stopping bound.
    """
    first = np.asarray(a_seq(1), dtype=complex)
    d = dim if dim is not None else first.shape[0]
    eye = np.eye(d, dtype=complex)
    product = eye.copy()
    for i in range(1, max_terms + 1):
        a_i = np.asarray(a_seq(i), dtype=complex).reshape(d, d)
        product = product @ (eye + a_i) if side == "left" else (eye + a_i) @ product
        bound = d * max(1.0, entry_norm(product)) * math.expm1(tail_bound(i))
        if bound < tol:
            return product
    raise BudgetExceededError(f"product tail above tolerance after {max_terms} factors")


@dataclass(frozen=True)
class CocycleResult:
    """Limit F of (prod D)(prod M)^-1 (orientation-adjusted) and diagnostics."""

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
    """F = lim (prod D_i)(prod M_i)^-1, orientation per ``pair.side``.

    The inverse partial product is maintained incrementally by one linear
    solve per step (never by re-inverting the whole product) and its
    consistency with the forward product is checked periodically.  det(F)
    is nonzero exactly when every D_i seen was nonsingular; a flag reports
    that.  Convergence is a stability window on F plus, when a tail bound
    is available, an explicit tail estimate.
    """
    d = pair.dim
    eye = np.eye(d, dtype=complex)
    prod_d = eye.copy()
    prod_m = eye.copy()
    prod_m_inv = eye.copy()
    prev_f: np.ndarray | None = None
    delta = math.inf
    monitor = Monitor(tol, STABILITY_WINDOW)
    nonsingular = True
    f = eye.copy()
    bound_m = 1.0

    for i in range(1, max_terms + 1):
        di = pair.d(i)
        mi = pair.m(i)
        if abs(np.linalg.det(di)) < 1e-12 * max(1.0, entry_norm(di)) ** d:
            nonsingular = False
        if pair.side == "left":
            prod_d = prod_d @ di
            prod_m = prod_m @ mi
            prod_m_inv = np.linalg.solve(mi, prod_m_inv)
            f = prod_d @ prod_m_inv
        else:
            prod_d = di @ prod_d
            prod_m = mi @ prod_m
            prod_m_inv = np.linalg.solve(mi.T, prod_m_inv.T).T
            f = prod_m_inv @ prod_d
        norm_m, norm_minv = entry_norm(prod_m), entry_norm(prod_m_inv)
        bound_m = max(bound_m, norm_m, norm_minv)
        if norm_m > pair.norm_ceiling or norm_minv > pair.norm_ceiling:
            raise UnboundedMProductsError(
                f"comparison product norm {max(norm_m, norm_minv):.3g} crossed the "
                f"ceiling {pair.norm_ceiling:.3g} at step {i}"
            )
        if i % INVERSE_CHECK_EVERY == 0:
            drift = entry_norm(prod_m @ prod_m_inv - eye)
            if drift > 1e-12:
                prod_m_inv = np.linalg.inv(prod_m)
                if entry_norm(prod_m @ prod_m_inv - eye) > 1e-10:
                    raise UnboundedMProductsError(
                        f"inverse product drift {drift:.3g} not recoverable at step {i}"
                    )
        if prev_f is not None:
            delta = entry_norm(f - prev_f)
        prev_f = f
        tail = None
        if pair.tail_bound is not None:
            tail = d * d * bound_m * bound_m * max(1.0, entry_norm(f)) * pair.tail_bound(i)
        if monitor.update(delta, tail):
            return CocycleResult(f, i, complex(np.linalg.det(f)), nonsingular, delta)
    raise BudgetExceededError(f"cocycle not stable after {max_terms} factors")


@dataclass(frozen=True)
class ResidueMatrixResult:
    """Block limit F and the residue-class limits M^j F (or F M^j)."""

    f: np.ndarray
    residue_limits: tuple[np.ndarray, ...]
    n_blocks: int
    last_delta: float


def residue_matrix_limits(
    d_seq: Callable[[int], np.ndarray],
    m: np.ndarray,
    order: int,
    tol: float = 1e-10,
    side: Side = "left",
    tail_bound: Callable[[int], float] | None = None,
    max_blocks: int = 50_000,
) -> ResidueMatrixResult:
    """F = lim of whole-period partial products when D_n -> M with M^order = I.

    Along residue class j the partial products converge to F M^j for left
    products (trailing factors drift to M) and to M^j F for right products.
    """
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    eye = np.eye(d, dtype=complex)
    if entry_norm(np.linalg.matrix_power(m, order) - eye) > 1e-12:
        raise MNotFiniteOrderError(f"M^{order} differs from the identity")

    product = eye.copy()
    prev_block: np.ndarray | None = None
    delta = math.inf
    monitor = Monitor(tol, BLOCK_WINDOW)
    n = 0
    for k in range(1, max_blocks + 1):
        for _ in range(order):
            n += 1
            dn = np.asarray(d_seq(n), dtype=complex).reshape(d, d)
            product = product @ dn if side == "left" else dn @ product
        if prev_block is not None:
            delta = entry_norm(product - prev_block)
        prev_block = product
        tail = None
        if tail_bound is not None and k >= 2:
            tail = d * max(1.0, entry_norm(product)) * order * tail_bound(n)
        if monitor.update(delta, tail):
            break
    else:
        raise BudgetExceededError(f"residue blocks not stable after {max_blocks} periods")

    f = prev_block
    powers = [eye.copy()]
    for _ in range(order - 1):
        powers.append(powers[-1] @ m)
    if side == "left":
        limits = tuple(f @ p for p in powers)
    else:
        limits = tuple(p @ f for p in powers)
    return ResidueMatrixResult(f, limits, k, delta)


def product_predictor(pair: MatrixSequencePair, f: np.ndarray, n: int) -> np.ndarray:
    """The asymptotic surrogate F * prod_{i<=n} M_i (orientation-adjusted).

    Observables of the true products prod D_i approach the same observable
    of this surrogate, which is how limit sets transfer through continuous
    functions of the product.
    """
    d = pair.dim
    product = np.eye(d, dtype=complex)
    for i in range(1, n + 1):
        mi = pair.m(i)
        product = product @ mi if pair.side == "left" else mi @ product
    return f @ product if pair.side == "left" else product @ f
