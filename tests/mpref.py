"""Independent 40-digit references for the matrix-product, residue-limit and h tests.

Only mpmath is used: no cflimits routine and nothing from the benchmark.
Matrices come in as nested lists or numpy arrays of complex numbers and
leave as ``mp.matrix``; ``max_abs_error`` compares a float answer with one,
``max_abs_diff`` a float sequence with a list of mp numbers.
"""

from mpmath import mp

DPS = 40


def to_mp(a) -> mp.matrix:
    with mp.workdps(DPS):
        return mp.matrix([[mp.mpc(complex(v)) for v in row] for row in a])


def max_abs_error(answer, reference: mp.matrix) -> float:
    """Largest entrywise |answer - reference|, rounded to a float."""
    with mp.workdps(DPS):
        return float(max(
            abs(mp.mpc(complex(answer[i][j])) - reference[i, j])
            for i in range(reference.rows) for j in range(reference.cols)
        ))


def commuting_cocycle(s, xs, ratio: float) -> mp.matrix:
    """S diag(prod_{i>=1} (1 + x_j^2 ratio^i)) S^-1, the cocycle of D_i = M (I + ratio^i E)
    when M and E = S diag(x_j^2) S^-1 share the eigenvectors S."""
    with mp.workdps(DPS):
        factors = []
        for x in xs:
            product = mp.mpf(1)
            for i in range(1, negligible_index(ratio) + 1):
                product *= 1 + mp.mpf(x) ** 2 * mp.mpf(ratio) ** i
            factors.append(product)
        s_mp = to_mp(s)
        return s_mp * mp.diag(factors) * s_mp ** -1


def negligible_index(ratio: float) -> int:
    """An n with ratio^n below 10^-DPS."""
    with mp.workdps(DPS):
        return int(DPS * mp.log(10) / -mp.log(ratio)) + 8


def partial_product(d_seq, dim: int, n: int, side: str) -> mp.matrix:
    """D_1 ... D_n for side "left", D_n ... D_1 for "right"; ``d_seq(i)`` returns D_i
    as an ``mp.matrix``."""
    with mp.workdps(DPS):
        product = mp.eye(dim)
        for i in range(1, n + 1):
            product = product * d_seq(i) if side == "left" else d_seq(i) * product
        return product


def partial_cocycle(d_seq, m, n: int, side: str) -> mp.matrix:
    """(D_1 ... D_n)(M^n)^-1 for side "left", (M^n)^-1 (D_n ... D_1) for "right".

    ``d_seq(i)`` returns D_i as an ``mp.matrix``; with a geometric
    perturbation and n = ``negligible_index(ratio)`` this is the limit.
    """
    with mp.workdps(DPS):
        m_inv = to_mp(m) ** -1
        product = partial_product(d_seq, m_inv.rows, n, side)
        inverse = m_inv ** n
        return product * inverse if side == "left" else inverse * product


def period_limit(d_seq, dim: int, order: int, ratio: float, side: str) -> mp.matrix:
    """F = lim of the whole-period products, as ``partial_product`` through the
    first multiple of ``order`` past the index where perturbations of decay
    ``ratio`` are negligible."""
    return partial_product(d_seq, dim, _class_start(order, ratio), side)


def unit_root(turns) -> mp.mpc:
    """exp(2 pi i turns) for a rational number of turns (a ``Fraction``)."""
    with mp.workdps(DPS):
        return mp.expjpi(2 * mp.mpf(turns.numerator) / turns.denominator)


def unit_angle(theta: float) -> mp.mpc:
    """exp(i theta) for the exact binary value of a float angle."""
    with mp.workdps(DPS):
        return mp.expj(mp.mpf(theta))


def _class_start(m: int, ratio: float) -> int:
    """The least multiple of m from which perturbations of decay ``ratio`` are negligible."""
    return -(-negligible_index(ratio) // m) * m


def _convergents(alpha, beta, p, q, stop: int):
    """(n, P_{n-1}, P_n, Q_{n-1}, Q_n) for 1 <= n < stop, as mpc, at the caller's precision.

    P_n, Q_n are the convergents of K((-alpha beta + q_n)/(alpha + beta + p_n))
    with b_0 = 0, run straight through the three-term recurrence from
    (P_-1, P_0) = (1, 0) and (Q_-1, Q_0) = (0, 1); ``p(n)`` and ``q(n)``
    return mp numbers.
    """
    ab, s = alpha * beta, alpha + beta
    p_prev, p_cur, q_prev, q_cur = mp.mpc(1), mp.mpc(0), mp.mpc(0), mp.mpc(1)
    for n in range(1, stop):
        a_n, b_n = -ab + q(n), s + p(n)
        p_prev, p_cur = p_cur, b_n * p_cur + a_n * p_prev
        q_prev, q_cur = q_cur, b_n * q_cur + a_n * q_prev
        yield n, p_prev, p_cur, q_prev, q_cur


def residue_limits(alpha, beta, p, q, m: int, ratio: float) -> tuple[list, list]:
    """(A_i, B_i) = lim (P_{mk+i}, Q_{mk+i}) for i < m, as mpc lists.

    P_n, Q_n as in ``_convergents``; ``p(n)`` and ``q(n)`` decay at least
    like ``ratio``^n, and alpha and beta are m-th roots of unity, so one
    whole period past the negligible index holds the class limits.
    """
    start = _class_start(m, ratio)
    with mp.workdps(DPS):
        A, B = [], []
        for n, _, p_cur, _, q_cur in _convergents(alpha, beta, p, q, start + m):
            if n >= start:
                A.append(p_cur)
                B.append(q_cur)
        return A, B


def rotated_convergents(alpha, beta, p, q, ns) -> dict:
    """{n: [a_n, b_n, c_n, d_n]} as mpc for each n in ``ns``, where

        a_n = alpha^-n (P_n - beta P_{n-1}),   b_n = -beta^-n (P_n - alpha P_{n-1}),

    and c_n, d_n are the same with Q for P (P_n, Q_n as in ``_convergents``).
    With unit-circle alpha != beta and summable p, q these converge to the
    coefficients of the Moebius map h.
    """
    with mp.workdps(DPS):
        quads = {}
        for n, p_prev, p_cur, q_prev, q_cur in _convergents(alpha, beta, p, q, max(ns) + 1):
            if n in ns:
                ainv, binv = alpha ** -n, beta ** -n
                quads[n] = [ainv * (p_cur - beta * p_prev), -binv * (p_cur - alpha * p_prev),
                            ainv * (q_cur - beta * q_prev), -binv * (q_cur - alpha * q_prev)]
        return quads


def recurrence_residues(rows, initial, m: int, ratio: float) -> list:
    """l_j = lim x_{mk+j} for j < m, as mpc, of x_{n+p} = sum_r a_{n,r} x_{n+r}.

    ``rows(n)`` returns (a_{n,0}, ..., a_{n,p-1}) as mp numbers; the rows
    converge like ``ratio``^n to limits whose roots are m-th roots of unity.
    """
    start = _class_start(m, ratio)
    with mp.workdps(DPS):
        xs = [mp.mpc(complex(v)) for v in initial]
        order = len(xs)
        for n in range(start + m - order):
            row = rows(n)
            xs.append(mp.fsum(row[r] * xs[n + r] for r in range(order)))
        return xs[start:start + m]


def max_abs_diff(answer, reference) -> float:
    """Largest |answer_i - reference_i| over two sequences of numbers, as a float."""
    with mp.workdps(DPS):
        return float(max(abs(mp.mpc(complex(a)) - r) for a, r in zip(answer, reference, strict=True)))
