"""Independent 40-digit references for the matrix-product tests.

Only mpmath is used: no cflimits routine and nothing from the benchmark.
Matrices come in as nested lists or numpy arrays of complex numbers and
leave as ``mp.matrix``; ``max_abs_error`` compares a float answer with one.
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


def partial_cocycle(d_seq, m, n: int, side: str) -> mp.matrix:
    """(D_1 ... D_n)(M^n)^-1 for side "left", (M^n)^-1 (D_n ... D_1) for "right".

    ``d_seq(i)`` returns D_i as an ``mp.matrix``; with a geometric
    perturbation and n = ``negligible_index(ratio)`` this is the limit.
    """
    with mp.workdps(DPS):
        m_inv = to_mp(m) ** -1
        product = mp.eye(m_inv.rows)
        for i in range(1, n + 1):
            product = product * d_seq(i) if side == "left" else d_seq(i) * product
        inverse = m_inv ** n
        return product * inverse if side == "left" else inverse * product
