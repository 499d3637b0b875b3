"""Independent reference answers for the benchmark problems.

Nothing here imports cflimits.  Two kinds of oracle are used:

* closed forms from classical theory: the equivalence transform
  c_n = 1 + e_n of the unperturbed elliptic fraction has direct map
  C * (-beta, alpha, 1, -1) with C = prod(1 + e_k), which is
  sinh(pi x)/(pi x) for e_k = x^2/k^2; commuting products
  D_i = M (I + E/i^2) have cocycle S diag(sinh(pi x_j)/(pi x_j)) S^-1;
  a finite-order fraction has rank m / gcd(b - a, m);
* everything else re-runs the raw recurrences in mpmath at 40 digits,
  far enough that the geometric perturbations are below 1e-36.

Inputs are the plain parameter records the generators produce, so the
reference never sees the objects the library built.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp, mpc, mpf

DPS = 40
#: Perturbations are iterated until they fall below this size.
NEGLIGIBLE = mpf(10) ** -36


def unit(turns: Fraction, residual: float) -> mpc:
    """exp(i (2 pi turns + residual)) at working precision."""
    return mp.expj(2 * mp.pi * mpf(turns.numerator) / turns.denominator + mpf(residual))


def mpcomplex(z: complex) -> mpc:
    return mpc(z.real, z.imag)


def terms_until_negligible(ratio: float, minimum: int = 8) -> int:
    """Smallest n with ratio**n below NEGLIGIBLE (at least ``minimum``)."""
    if ratio <= 0.0:
        return minimum
    return max(minimum, int(math.ceil(-36.0 / math.log10(ratio))) + 2)


# --------------------------------------------------------------------------
# small dense linear algebra on lists of mpc


def matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[mp.fsum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def matinv(a):
    inv = mp.matrix(a) ** -1
    return [[inv[i, j] for j in range(inv.cols)] for i in range(inv.rows)]


def identity(n):
    return [[mpc(1) if i == j else mpc(0) for j in range(n)] for i in range(n)]


def from_numpy(a):
    return [[mpcomplex(complex(v)) for v in row] for row in a]


# --------------------------------------------------------------------------
# elliptic continued fractions K((-alpha beta + q_n)/(alpha + beta + p_n))


def elliptic_recurrence(alpha: mpc, beta: mpc, p, q, n_max: int, keep: int = 0):
    """Direct map coefficients (a, b, c, d) and the first ``keep`` approximants.

    ``p(n)`` and ``q(n)`` return mpc perturbations.  The coefficients are the
    limits of alpha^-n (P_n - beta P_{n-1}) and its three siblings, read off
    at n = n_max.  Approximants are returned as mpc, or None for infinity.
    """
    with mp.workdps(DPS):
        ab, s = alpha * beta, alpha + beta
        p_prev, p_cur = mpc(1), mpc(0)
        q_prev, q_cur = mpc(0), mpc(1)
        approximants = []
        for n in range(1, n_max + 1):
            a_n, b_n = -ab + q(n), s + p(n)
            p_prev, p_cur = p_cur, b_n * p_cur + a_n * p_prev
            q_prev, q_cur = q_cur, b_n * q_cur + a_n * q_prev
            if n <= keep:
                approximants.append(None if q_cur == 0 else p_cur / q_cur)
        ainv = alpha ** -n_max
        binv = beta ** -n_max
        coeffs = (
            ainv * (p_cur - beta * p_prev),
            -binv * (p_cur - alpha * p_prev),
            ainv * (q_cur - beta * q_prev),
            -binv * (q_cur - alpha * q_prev),
        )
        return coeffs, approximants


def mobius(coeffs, z):
    """h(z) on the sphere; z and the result are mpc or None (infinity)."""
    a, b, c, d = coeffs
    if z is None:
        return None if c == 0 else a / c
    den = c * z + d
    return None if den == 0 else (a * z + b) / den


def residue_limits(alpha: mpc, beta: mpc, p, q, m: int, ratio: float):
    """(A_i, B_i) = lim (P_{mk+i}, Q_{mk+i}) for i < m, as mpc lists."""
    last = -(-terms_until_negligible(ratio) // m) * m
    with mp.workdps(DPS):
        ab, s = alpha * beta, alpha + beta
        p_prev, p_cur = mpc(1), mpc(0)
        q_prev, q_cur = mpc(0), mpc(1)
        A, B = [None] * m, [None] * m
        for n in range(1, last + m):
            a_n, b_n = -ab + q(n), s + p(n)
            p_prev, p_cur = p_cur, b_n * p_cur + a_n * p_prev
            q_prev, q_cur = q_cur, b_n * q_cur + a_n * q_prev
            if n >= last:
                A[n - last], B[n - last] = p_cur, q_cur
        return A, B


def finite_rank(a_exp: int, b_exp: int, m: int) -> int:
    return m // math.gcd(abs(b_exp - a_exp), m)


# --------------------------------------------------------------------------
# closed forms for the slowly decaying families


def sinhc(x: float) -> mpf:
    """prod_{k>=1} (1 + x^2/k^2) = sinh(pi x) / (pi x)."""
    with mp.workdps(DPS):
        return mp.sinh(mp.pi * x) / (mp.pi * x)


def geometric_product(r: float, coeff: float = 1.0) -> mpf:
    """prod_{k>=1} (1 + coeff r^k)."""
    with mp.workdps(DPS):
        total = mpf(1)
        for k in range(1, terms_until_negligible(r) + 1):
            total *= 1 + mpf(coeff) * mpf(r) ** k
        return total


def equivalence_h(alpha: mpc, beta: mpc, scale: mpf):
    """Direct map of the equivalence-transformed fraction, C (-beta, alpha, 1, -1)."""
    with mp.workdps(DPS):
        return (-beta * scale, alpha * scale, mpc(scale), mpc(-scale))


def commuting_cocycle(s_matrix, factors):
    """S diag(factors) S^-1 for a numpy S and mpf factors."""
    with mp.workdps(DPS):
        s = from_numpy(s_matrix)
        diag = [[mpc(factors[i]) if i == j else mpc(0) for j in range(len(factors))]
                for i in range(len(factors))]
        return matmul(matmul(s, diag), matinv(s))


# --------------------------------------------------------------------------
# matrix products and recurrences


def cocycle(d_seq, m_matrix, n_max: int, side: str):
    """The cocycle of mp-valued D_i against a constant numpy M, at n = n_max.

    "left" is (D_1 ... D_n) M^-n, "right" is M^-n (D_n ... D_1).
    """
    with mp.workdps(DPS):
        dim = len(m_matrix)
        m_inv = matinv(from_numpy(m_matrix))
        prod = identity(dim)
        power = identity(dim)
        for i in range(1, n_max + 1):
            prod = matmul(prod, d_seq(i)) if side == "left" else matmul(d_seq(i), prod)
            power = matmul(power, m_inv)
        return matmul(prod, power) if side == "left" else matmul(power, prod)


def block_product(d_seq, order: int, ratio: float, side: str):
    """Whole-period product of D_1 .. D_{order K}, with ratio^(order K) negligible."""
    blocks = -(-terms_until_negligible(ratio) // order) + 1
    with mp.workdps(DPS):
        prod = identity(len(d_seq(1)))
        for i in range(1, blocks * order + 1):
            prod = matmul(prod, d_seq(i)) if side == "left" else matmul(d_seq(i), prod)
        return prod


def rs_projection(d, r: int, s: int):
    """f(D) = B^-1 A for the trailing s x s block B and the s x r block A."""
    with mp.workdps(DPS):
        b = [row[r:] for row in d[r:]]
        a = [row[:r] for row in d[r:]]
        return matmul(matinv(b), a)


def rs_approximants(theta_seq, r: int, s: int, k_max: int):
    with mp.workdps(DPS):
        prod = None
        out = []
        for k in range(1, k_max + 1):
            factor = theta_seq(k)
            prod = factor if prod is None else matmul(factor, prod)
            out.append(rs_projection(prod, r, s))
        return out


def recurrence_values(coefficients, initial, count: int):
    """x_0 .. x_{count-1} of x_{n+p} = sum_r a_{n,r} x_{n+r} in mpc."""
    with mp.workdps(DPS):
        xs = [mpcomplex(complex(v)) for v in initial]
        p = len(xs)
        for n in range(count - p):
            row = coefficients(n)
            xs.append(mp.fsum(row[r] * xs[n + r] for r in range(p)))
        return xs


def recurrence_coefficients(limits, coefficients, initial, n_start: int):
    """c_i with x_n = sum c_i alpha_i^n for n >= n_start (tail negligible there).

    The alpha_i are the roots of the characteristic polynomial of the given
    (double) limit coefficients, solved at working precision.
    """
    with mp.workdps(DPS):
        p = len(limits)
        poly = [mpc(1)] + [-mpcomplex(complex(limits[p - 1 - i])) for i in range(p)]
        roots = mp.polyroots(poly, maxsteps=200, extraprec=2 * DPS)
        xs = recurrence_values(coefficients, initial, n_start + p)
        vander = mp.matrix([[root ** (n_start + k) for root in roots] for k in range(p)])
        rhs = mp.matrix([xs[n_start + k] for k in range(p)])
        c = mp.lu_solve(vander, rhs)
        return [roots[i] for i in range(p)], [c[i] for i in range(p)]
