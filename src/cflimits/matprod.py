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
from typing import Callable

from ._numpy import np
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
    """Maximum absolute entry (0 for an empty array)."""
    return float(np.abs(a).max()) if a.size else 0.0


def _check_side(side: Side) -> None:
    if side not in ("left", "right"):
        raise ValueError(f'side must be "left" or "right", got {side!r}')


# np.linalg.solve / det minus the wrappers' per-call checks: the same LAPACK
# gufuncs, so the same bits, but a singular ``a`` gives NaN, not LinAlgError.
def _solve(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.linalg._umath_linalg.solve(a, b, signature="DD->D", out=out)


def _det(a: np.ndarray) -> complex:
    return np.linalg._umath_linalg.det(a, signature="D->D")


@dataclass(frozen=True)
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

    def __post_init__(self):
        _check_side(self.side)

    def d(self, i: int) -> np.ndarray:
        return self._square(self.d_seq(i))

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
    which yields the stopping bound.
    """
    _check_side(side)
    first = np.asarray(a_seq(1), dtype=complex)
    if first.ndim != 2 or first.shape[0] != first.shape[1]:
        raise ValueError(f"the first factor must be a square matrix, got shape {first.shape}")
    d = first.shape[0]
    eye = np.eye(d, dtype=complex)
    product = eye.copy()
    for i in range(1, max_terms + 1):
        a_i = (first if i == 1 else np.asarray(a_seq(i), dtype=complex)).reshape(d, d)
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
    is available, an explicit tail estimate.  The loop runs under
    ``np.errstate(invalid="ignore")``, callbacks included.  Each step makes one
    stacked product for prod D and prod M, and one reduction gives all its norms.
    """
    d = pair.dim
    eye = np.eye(d, dtype=complex)
    # Steps alternate between two slabs [D_i, M_i, prod D, prod M, prod M^-1, F, F - F_prev].
    slabs = np.zeros((2, 7, d, d), dtype=complex)
    slabs[0, 2:5] = eye
    views = [(s, s[0:2], s[2:4], s[2], s[3], s[4], s[5], s[6]) for s in slabs]
    prev_prods, prev_inv, prev_f = slabs[0, 2:4], slabs[0, 4], slabs[0, 5]
    absolute = np.empty((7, d, d))
    monitor = Monitor(tol, STABILITY_WINDOW)
    nonsingular = True
    bound_m = 1.0

    left = pair.side == "left"
    with np.errstate(invalid="ignore"):  # a singular M_i is caught below
        for i in range(1, max_terms + 1):
            slab, factors, prods, prod_d, prod_m, prod_m_inv, f, f_step = views[i % 2]
            di = pair.d(i)
            mi = pair.m(i)
            factors[0], factors[1] = di, mi
            if left:
                np.matmul(prev_prods, factors, out=prods)
                _solve(mi, prev_inv, out=prod_m_inv)
                np.matmul(prod_d, prod_m_inv, out=f)
            else:
                np.matmul(factors, prev_prods, out=prods)
                _solve(mi.T, prev_inv.T, out=prod_m_inv.T)
                np.matmul(prod_m_inv, prod_d, out=f)
            np.subtract(f, prev_f, out=f_step)
            np.absolute(slab, out=absolute)
            # Each row's maximum is exact, so these are entry_norm's bits (0 when d = 0).
            norm_d, _, _, norm_m, norm_minv, _, delta = np.maximum.reduce(absolute, (1, 2), initial=0.0).tolist()
            if nonsingular and abs(_det(di)) < 1e-12 * max(1.0, norm_d) ** d:
                nonsingular = False
            if norm_minv != norm_minv:  # NaN: LinAlgError for a singular M_i, else the same bits
                prod_m_inv[...] = np.linalg.solve(mi, prev_inv) if left else np.linalg.solve(mi.T, prev_inv.T).T
            bound_m = max(bound_m, norm_m, norm_minv)
            if norm_m > pair.norm_ceiling or norm_minv > pair.norm_ceiling:
                raise UnboundedMProductsError(
                    f"comparison product norm {max(norm_m, norm_minv):.3g} crossed the "
                    f"ceiling {pair.norm_ceiling:.3g} at step {i}"
                )
            if i % INVERSE_CHECK_EVERY == 0:
                drift = entry_norm(prod_m @ prod_m_inv - eye)
                if drift > 1e-12:
                    prod_m_inv[...] = np.linalg.inv(prod_m)
                    if entry_norm(prod_m @ prod_m_inv - eye) > 1e-10:
                        raise UnboundedMProductsError(
                            f"inverse product drift {drift:.3g} not recoverable at step {i}"
                        )
            tail = None
            if pair.tail_bound is not None:
                t = pair.tail_bound(i)
                # Rounding is monotone and max(1, ||F||) >= 1, so for t >= 0 the full
                # bound is never below this screen; only a screen under tol can stop.
                tail = d * d * bound_m * bound_m * t
                if tail < tol:
                    tail = d * d * bound_m * bound_m * max(1.0, entry_norm(f)) * t
            if monitor.update(math.inf if i == 1 else delta, tail):
                return CocycleResult(f.copy(), i, complex(np.linalg.det(f)), nonsingular, monitor.last_delta)
            prev_prods, prev_inv, prev_f = prods, prod_m_inv, f
    raise monitor.exhausted(f"cocycle not stable after {max_terms} factors", BudgetExceededError)


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
) -> ResidueMatrixResult:
    """F = lim of whole-period partial products when D_n -> M with M^order = I.

    Along residue class j the partial products converge to F M^j for left
    products (trailing factors drift to M) and to M^j F for right products.
    """
    _check_side(side)
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    eye = np.eye(d, dtype=complex)
    if entry_norm(np.linalg.matrix_power(m, order) - eye) > 1e-12:
        raise MNotFiniteOrderError(f"M^{order} differs from the identity")

    product = eye.copy()
    monitor = Monitor(tol, BLOCK_WINDOW, lambda block, prev: entry_norm(block - prev))
    n = 0
    for k in range(1, 50_001):
        for _ in range(order):
            n += 1
            dn = np.asarray(d_seq(n), dtype=complex).reshape(d, d)
            product = product @ dn if side == "left" else dn @ product
        tail = None
        if tail_bound is not None and k >= 2:
            tail = d * max(1.0, entry_norm(product)) * order * tail_bound(n)
        if monitor.step(product, tail):
            break
    else:
        raise monitor.exhausted("residue blocks not stable after 50000 periods", BudgetExceededError)

    f = product
    powers = [eye.copy()]
    for _ in range(order - 1):
        powers.append(powers[-1] @ m)
    if side == "left":
        limits = tuple(f @ p for p in powers)
    else:
        limits = tuple(p @ f for p in powers)
    return ResidueMatrixResult(f, limits, k, monitor.last_delta)


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
