"""Seeded workload generators, the user-level solves they time, and checks.

A workload is a list of problems.  Each problem is a plain parameter record
(numbers, fractions and tuples only) made from the seed; the library sees
only the specs built from it inside ``solve``.  Every problem kind has three
parts:

* ``solve(params)`` calls the public cflimits API the way a user would and
  returns the answer; this is the timed region;
* ``oracle(params)`` computes the reference answer without cflimits
  (see oracle.py);
* ``check(answer, reference, params, verdict)`` compares the two.

Accuracy is reported as error / tol for the quantities whose stopping rule
the requested ``tol`` controls.  Every other output is compared against the
reference with a coarse sanity limit, and discrete outputs (orders, ranks,
numbers of distinct limits) must match exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
from mpmath import mp, mpc, mpf

import cflimits as cfl
import cflimits.cli  # noqa: F401  (cfl.cli.main is called in-process by the traced run)
import oracle

#: tol passed to every iterative solve unless a problem states its own.
TOL = 1e-10
#: tol passed to the Bauer-Muir companion evaluations (their default).
BM_TOL = 1e-12
#: Approximants compared with the asymptotic predictor per elliptic spec.
STREAM_TERMS = 48
#: Outputs not controlled by tol must still agree with the reference to this.
SANITY = 1e-3

WORKLOADS = ("fast-tail", "slow-tail", "finite-order", "cli")


class NoAnswer(Exception):
    """A solve returned without a finite answer."""


class Verdict:
    """Outcome of comparing one answer with its reference."""

    def __init__(self):
        self.err_over_tol = 0.0
        self.errors: list[str] = []

    def within_tol(self, label: str, err: float, tol: float) -> None:
        self.err_over_tol = max(self.err_over_tol, err / tol)
        self.sane(label, err)

    def sane(self, label: str, err: float, limit: float = SANITY) -> None:
        if not err <= limit:
            self.errors.append(f"{label}: error {err:.3g} above {limit:g}")

    def exact(self, label: str, got, want) -> None:
        if got != want:
            self.errors.append(f"{label}: got {got!r}, want {want!r}")


# --------------------------------------------------------------------------
# conversions between library values, references and plain records


def point(value) -> complex | None:
    """A library sphere point or complex as complex, or None for infinity."""
    if isinstance(value, cfl.ExtendedComplex):
        return None if value.is_infinity else value.z
    return complex(value)


def ref_point(value) -> complex | None:
    return None if value is None else complex(value)


def chordal(x: complex | None, y: complex | None) -> float:
    if x is None and y is None:
        return 0.0
    if x is None or y is None:
        return 2.0 / math.hypot(1.0, abs(y if x is None else x))
    return 2.0 * abs(x - y) / (math.hypot(1.0, abs(x)) * math.hypot(1.0, abs(y)))


def max_abs(got, want) -> float:
    """Largest entry difference of two equally shaped nestings of numbers."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray([[complex(v) for v in row] for row in want] if isinstance(want[0], (list, tuple))
                      else [complex(v) for v in want], dtype=complex)
    return float(np.max(np.abs(got - want)))


def projective_gap(got, want) -> float:
    """Coefficient distance of two Moebius maps after scaling by their largest entry."""
    got = np.asarray([complex(v) for v in got])
    want = np.asarray([complex(v) for v in want])
    got = got / got[np.argmax(np.abs(got))]
    want = want / want[np.argmax(np.abs(want))]
    return float(np.max(np.abs(got - want)))


def coefficients(h) -> tuple[complex, complex, complex, complex]:
    return (h.a, h.b, h.c, h.d)


def unit_number(u) -> cfl.UnitModulusNumber:
    num, den, residual = u
    return cfl.UnitModulusNumber(Fraction(num, den), residual)


def unit_ref(u) -> mpc:
    num, den, residual = u
    return oracle.unit(Fraction(num, den), residual)


def random_phase(rng: random.Random, modulus: float) -> tuple[float, float]:
    """(re, im) of modulus * exp(i t) with t uniform."""
    t = rng.uniform(-math.pi, math.pi)
    return (modulus * math.cos(t), modulus * math.sin(t))


def angle_gap_pair(rng: random.Random, min_gap: float) -> tuple[float, float]:
    a = rng.uniform(-math.pi, math.pi)
    b = a + rng.uniform(min_gap, 2.0 * math.pi - min_gap)
    return a, math.remainder(b, 2.0 * math.pi)


def unit_eigen_matrix(rng: random.Random, angles, spread: float = 0.4):
    """S diag(exp(i angles)) S^-1 with S = I + small random entries, and S."""
    dim = len(angles)
    s = np.eye(dim, dtype=complex)
    for i in range(dim):
        for j in range(dim):
            if i != j:
                s[i, j] = complex(*random_phase(rng, rng.uniform(0.0, spread)))
    m = s @ np.diag(np.exp(1j * np.asarray(angles))) @ np.linalg.inv(s)
    return m, s


def small_matrix(rng: random.Random, dim: int, size: float):
    return np.array([[complex(*random_phase(rng, rng.uniform(0.1, size))) for _ in range(dim)]
                     for _ in range(dim)])


def geometric_terms(coeff, ratio):
    """mpc perturbation n -> coeff * ratio**n for a (re, im) coefficient."""
    c = mpc(*coeff)
    r = mpf(ratio)
    return lambda n: c * r ** n


# --------------------------------------------------------------------------
# fast-tail: elliptic specs with geometric perturbations


def elliptic_spec(params) -> cfl.EllipticCFSpec:
    (cp_re, cp_im, rp), (cq_re, cq_im, rq) = params["p"], params["q"]
    return cfl.geometric_spec(
        unit_number(params["alpha"]), unit_number(params["beta"]),
        complex(cp_re, cp_im), rp, complex(cq_re, cq_im), rq,
    )


def _evaluate(transform) -> cfl.ExtendedComplex:
    result = transform.evaluate(tol=BM_TOL)
    if not result.converged:
        raise NoAnswer(f"companion fraction at {transform.target} did not converge")
    return result.value


def solve_elliptic(params):
    spec = elliptic_spec(params)
    report = cfl.limit_set_report(spec, tol=TOL)
    mods = cfl.compute_h_via_modifications(spec, tol=TOL)
    at_infinity = _evaluate(cfl.bm_at_infinity(spec))
    at_zero = _evaluate(cfl.bm_at_zero(spec))
    stream = cfl.convergents(cfl.build_cf(spec))
    approximants, predicted = [], []
    for _ in range(STREAM_TERMS):
        stream.step()
        approximants.append(point(stream.value()))
        predicted.append(point(cfl.asymptotic_predictor(spec, report.h_raw, stream.n)))
    return {
        "h": coefficients(report.h_raw),
        "m": report.m,
        "limit_points": None if report.limit_points is None else tuple(point(v) for v in report.limit_points),
        "n_terms": report.n_terms,
        "modified": (point(mods.at_infinity), point(mods.at_zero), point(mods.at_one)),
        "h_modified": coefficients(mods.h),
        "companions": (point(at_infinity), point(at_zero)),
        "approximants": tuple(approximants),
        "predicted": tuple(predicted),
    }


def lambda_order(params) -> int | None:
    alpha, beta = params["alpha"], params["beta"]
    if alpha[2] != beta[2]:
        return None
    turns = Fraction(alpha[0], alpha[1]) - Fraction(beta[0], beta[1])
    return (turns % 1).denominator


def oracle_elliptic(params):
    alpha, beta = unit_ref(params["alpha"]), unit_ref(params["beta"])
    (cp_re, cp_im, rp), (cq_re, cq_im, rq) = params["p"], params["q"]
    n_max = max(oracle.terms_until_negligible(max(rp, rq)), STREAM_TERMS)
    h, approximants = oracle.elliptic_recurrence(
        alpha, beta, geometric_terms((cp_re, cp_im), rp), geometric_terms((cq_re, cq_im), rq),
        n_max, keep=STREAM_TERMS,
    )
    m = lambda_order(params)
    with mp.workdps(oracle.DPS):
        lam = alpha / beta
        predicted = [oracle.mobius(h, lam ** (n + 1)) for n in range(1, STREAM_TERMS + 1)]
        limit_points = None if m is None else [oracle.mobius(h, lam ** j) for j in range(m)]
        modified = (oracle.mobius(h, None), oracle.mobius(h, mpc(0)), oracle.mobius(h, mpc(1)))
    return {"h": h, "m": m, "approximants": approximants, "predicted": predicted,
            "limit_points": limit_points, "modified": modified}


def check_elliptic(answer, ref, params, verdict: Verdict) -> None:
    verdict.within_tol("h", max_abs(answer["h"], ref["h"]), TOL)
    verdict.exact("order", answer["m"], ref["m"])
    for label, got, want in zip(("h(inf)", "h(0)", "h(1)"), answer["modified"], ref["modified"]):
        verdict.within_tol(f"modified {label}", chordal(got, ref_point(want)), TOL)
    for label, got, want in zip(("infinity", "zero"), answer["companions"], ref["modified"][:2]):
        verdict.within_tol(f"companion at {label}", chordal(got, ref_point(want)), BM_TOL)
    verdict.sane("h from modifications", projective_gap(answer["h_modified"], ref["h"]))
    verdict.sane("approximants", max(chordal(g, ref_point(w)) for g, w in zip(answer["approximants"], ref["approximants"])))
    verdict.sane("predictor", max(chordal(g, ref_point(w)) for g, w in zip(answer["predicted"], ref["predicted"])))
    if ref["limit_points"] is not None and answer["limit_points"] is not None:
        verdict.sane("limit points", max(chordal(g, ref_point(w)) for g, w in zip(answer["limit_points"], ref["limit_points"])))


def generate_elliptic(rng: random.Random, finite: bool, order: int):
    if finite:
        theta = rng.uniform(-math.pi, math.pi)
        j = rng.choice([k for k in range(1, order) if math.gcd(k, order) == 1])
        alpha, beta = (0, 1, theta), (j, order, theta)
    else:
        a, b = angle_gap_pair(rng, 0.4)
        alpha, beta = (0, 1, a), (0, 1, b)
    rp, rq = rng.uniform(0.05, 0.6), rng.uniform(0.05, 0.6)
    return {
        "alpha": alpha, "beta": beta,
        "p": random_phase(rng, rng.uniform(0.5, 1.5)) + (rp,),
        "q": random_phase(rng, rng.uniform(0.5, 1.5)) + (rq,),
    }


# rs-systems theta_k = theta + ratio^k E ------------------------------------


def rs_system(params) -> cfl.RSSystem:
    theta = np.asarray(params["theta"], dtype=complex)
    e = np.asarray(params["e"], dtype=complex)
    ratio = params["ratio"]
    weight = float(np.max(np.abs(e)))
    return cfl.RSSystem(
        params["r"], params["s"], lambda k: theta + ratio**k * e, theta_limit=theta,
        tail_bound=lambda n: weight * ratio ** (n + 1) / (1.0 - ratio),
    )


def solve_rs(params):
    system = rs_system(params)
    asym = cfl.rs_asymptotics(system, TOL)
    k_max = params["k_max"]
    approximants = {}
    for k, sk in cfl.rs_approximants(system, k_max):
        if sk is None:
            raise NoAnswer(f"singular trailing block at k={k}")
        if k > k_max - 5:
            approximants[k] = (sk, asym.predictor(k))
    return {"f": asym.f_matrix, "n_terms": asym.n_terms, "approximants": approximants}


def _theta_ref(params):
    theta, e, ratio = oracle.from_numpy(params["theta"]), oracle.from_numpy(params["e"]), mpf(params["ratio"])
    return lambda k: [[t + ratio ** k * x for t, x in zip(rt, re)] for rt, re in zip(theta, e)]


def oracle_rs(params):
    theta_seq = _theta_ref(params)
    n_max = oracle.terms_until_negligible(params["ratio"])
    f = oracle.cocycle(theta_seq, params["theta"], n_max, "right")
    approximants = oracle.rs_approximants(theta_seq, params["r"], params["s"], params["k_max"])
    return {"f": f, "approximants": approximants}


def check_rs(answer, ref, params, verdict: Verdict) -> None:
    verdict.within_tol("F", max_abs(answer["f"], ref["f"]), TOL)
    for k, (sk, predicted) in answer["approximants"].items():
        want = ref["approximants"][k - 1]
        verdict.sane(f"approximant {k}", max_abs(sk, want))
        verdict.sane(f"predictor {k}", max_abs(predicted, want))


def generate_rs(rng: random.Random, r: int, s: int):
    n = r + s
    if n == 2:
        a, b = angle_gap_pair(rng, 0.5)
        alpha, beta = complex(math.cos(a), math.sin(a)), complex(math.cos(b), math.sin(b))
        theta = np.array([[0.0, 1.0], [-alpha * beta, alpha + beta]], dtype=complex)
    else:
        base = rng.uniform(-math.pi, math.pi)
        angles = [base + k * 2.0 * math.pi / n + rng.uniform(-0.3, 0.3) for k in range(n)]
        theta, _ = unit_eigen_matrix(rng, angles, spread=0.3)
    e = small_matrix(rng, n, 0.5)
    return {"r": r, "s": s, "theta": theta.tolist(), "e": e.tolist(),
            "ratio": rng.uniform(0.1, 0.45), "k_max": 40}


# geometric Poincare recurrences -----------------------------------------


def _limits_from_roots(roots) -> list[complex]:
    """a_0 .. a_{p-1} with t^p - sum a_r t^r = prod (t - root)."""
    poly = np.poly(np.asarray(roots, dtype=complex))  # leading 1, descending
    p = len(roots)
    return [complex(-poly[p - r]) for r in range(p)]


def recurrence(params, roots=None) -> cfl.PoincareRecurrence:
    limits = [complex(*v) for v in params["limits"]]
    perts = [(complex(re, im), ratio) for re, im, ratio in params["perturbations"]]
    p = len(limits)
    weight = sum(abs(c) for c, _ in perts)
    top = max(ratio for _, ratio in perts)

    def rows(n):
        return [limits[r] + perts[r][0] * perts[r][1] ** n for r in range(p)]

    return cfl.PoincareRecurrence.build(
        rows, limits, roots=roots,
        tail_bound=lambda n: weight * top ** (n + 1) / (1.0 - top),
    )


def _rows_ref(params):
    limits = [mpc(*v) for v in params["limits"]]
    perts = [(mpc(re, im), mpf(ratio)) for re, im, ratio in params["perturbations"]]
    return lambda n: [limits[r] + perts[r][0] * perts[r][1] ** n for r in range(len(limits))]


def _transfer_ref(row):
    p = len(row)
    t = [[mpc(0)] * p for _ in range(p)]
    for i in range(p - 1):
        t[i + 1][i] = mpc(1)
    for i in range(p):
        t[i][p - 1] = row[i]
    return t


def solve_recurrence(params):
    rec = recurrence(params)
    result = cfl.asymptotic_coefficients(rec, [complex(*v) for v in params["initial"]], TOL)
    return {"f": result.f, "c": result.c, "roots": tuple(rec.root_values()),
            "n_terms": result.n_terms, "residual": result.residual}


def oracle_recurrence(params):
    rows = _rows_ref(params)
    top = max(ratio for _, _, ratio in params["perturbations"])
    n_max = oracle.terms_until_negligible(top)
    limit = np.asarray([[complex(v) for v in row] for row in _transfer_ref([mpc(*v) for v in params["limits"]])])
    f = oracle.cocycle(lambda i: _transfer_ref(rows(i - 1)), limit, n_max, "left")
    roots, c = oracle.recurrence_coefficients(
        [complex(*v) for v in params["limits"]], rows, [complex(*v) for v in params["initial"]], n_max)
    return {"f": f, "roots": roots, "c": c}


def _match_roots(got_roots, want_roots, want_c):
    """Reference coefficients reordered to the library's root order."""
    order = [min(range(len(want_roots)), key=lambda j: abs(complex(want_roots[j]) - r)) for r in got_roots]
    return [want_c[j] for j in order]


def check_recurrence(answer, ref, params, verdict: Verdict) -> None:
    verdict.within_tol("F", max_abs(answer["f"], ref["f"]), TOL)
    want_c = _match_roots(answer["roots"], ref["roots"], ref["c"])
    verdict.sane("c", max_abs(answer["c"], want_c))
    verdict.sane("residual", answer["residual"])


def generate_recurrence(rng: random.Random, p: int):
    base = rng.uniform(-math.pi, math.pi)
    angles = [base + k * 2.0 * math.pi / p + rng.uniform(-0.4, 0.4) for k in range(p)]
    roots = [complex(math.cos(a), math.sin(a)) for a in angles]
    return {
        "limits": [(v.real, v.imag) for v in _limits_from_roots(roots)],
        "perturbations": [random_phase(rng, rng.uniform(0.1, 0.5)) + (rng.uniform(0.05, 0.5),) for _ in range(p)],
        "initial": [random_phase(rng, 1.0) for _ in range(p)],
    }


def generate_fast_tail(seed: int):
    rng = random.Random(f"fast-tail:{seed}")
    problems = []
    for i in range(100):
        finite = i % 2 == 1
        order = 3 + (i // 2) % 38  # orders 3..40 across the finite-order half
        problems.append(("elliptic", generate_elliptic(rng, finite, order)))
    for r, s in ((1, 1), (1, 1), (2, 2), (2, 2)):
        problems.append(("rs", generate_rs(rng, r, s)))
    for p in (2, 3):
        problems.append(("recurrence", generate_recurrence(rng, p)))
    return problems


# --------------------------------------------------------------------------
# slow-tail: perturbations decaying like 1/k^2


def _decay(params):
    """e_n as a function of n, and a bound on sum_{n>N} e_{n-1} for N >= 1.

    ``{"x": x}`` gives e_n = x^2/n^2 (slow); ``{"ratio": r}`` gives e_n = r^n.
    """
    if "ratio" in params:
        r = params["ratio"]
        return (lambda n: r**n), (lambda n: r**n / (1.0 - r))
    x2 = params["x"] ** 2
    return (lambda n: x2 / (n * n)), (lambda n: 2.0 * x2 / max(n, 1))


def equivalence_spec(params) -> cfl.EllipticCFSpec:
    """c_n = 1 + e_n applied to K(-alpha beta/(alpha + beta)), with e_0 = 0.

    p_n = (alpha + beta) e_n and q_n = -alpha beta ((1 + e_n)(1 + e_{n-1}) - 1);
    with e_n <= 1 the tail of |p_n| + |q_n| is at most (|alpha + beta| + 3)
    times the tail of e_{n-1}.
    """
    alpha, beta = unit_number(params["alpha"]), unit_number(params["beta"])
    s = alpha.value + beta.value
    ab = (alpha * beta).value
    e, e_tail = _decay(params)

    def p(n):
        return s * e(n)

    def q(n):
        en = e(n)
        em = e(n - 1) if n > 1 else 0.0
        return -ab * (en + em + en * em)

    weight = abs(s) + 3.0
    return cfl.EllipticCFSpec(alpha, beta, p, q, lambda n: weight * e_tail(n))


def solve_equivalence(params):
    result = cfl.compute_h_direct(equivalence_spec(params), tol=TOL)
    return {"h": coefficients(result.h), "n_terms": result.n_terms}


def oracle_equivalence(params):
    scale = oracle.geometric_product(params["ratio"]) if "ratio" in params else oracle.sinhc(params["x"])
    return {"h": oracle.equivalence_h(unit_ref(params["alpha"]), unit_ref(params["beta"]), scale)}


def check_equivalence(answer, ref, params, verdict: Verdict) -> None:
    verdict.within_tol("h", max_abs(answer["h"], ref["h"]), TOL)


def commuting_pair(params) -> cfl.MatrixSequencePair:
    """D_i = M (I + e_i E) with M = S diag(exp(i angles)) S^-1 and E = S diag(xs^2) S^-1."""
    s = np.asarray(params["s"], dtype=complex)
    s_inv = np.linalg.inv(s)
    m = s @ np.diag(np.exp(1j * np.asarray(params["angles"]))) @ s_inv
    me = m @ (s @ np.diag(np.asarray(params["xs"]) ** 2) @ s_inv)
    weight = float(np.max(np.abs(me)))
    if "ratio" in params:
        r = params["ratio"]
        return cfl.MatrixSequencePair(
            2, lambda i: m + me * r**i, lambda i: m, lambda n: weight * r ** (n + 1) / (1.0 - r))
    return cfl.MatrixSequencePair(
        2, lambda i: m + me / (i * i), lambda i: m, lambda n: weight / max(n, 1))


def solve_commuting(params):
    result = cfl.cocycle_limit(commuting_pair(params), TOL)
    return {"f": result.f, "n_terms": result.n_terms}


def oracle_commuting(params):
    """S diag(prod_i (1 + x_j^2 e_i)) S^-1: sinh(pi x)/(pi x) for e_i = 1/i^2."""
    if "ratio" in params:
        factors = [oracle.geometric_product(params["ratio"], x * x) for x in params["xs"]]
    else:
        factors = [oracle.sinhc(x) for x in params["xs"]]
    return {"f": oracle.commuting_cocycle(np.asarray(params["s"], dtype=complex), factors)}


def check_commuting(answer, ref, params, verdict: Verdict) -> None:
    verdict.within_tol("F", max_abs(answer["f"], ref["f"]), TOL)


def generate_slow_tail(seed: int):
    """Six equivalence problems and four commuting products, x spread over 0.1-0.6.

    x is stratified (one draw near each grid point) so every seed covers the
    whole range, including the top of it where the window rule stops far
    from the limit or the 100k-term budget runs out.
    """
    rng = random.Random(f"slow-tail:{seed}")
    problems = []
    for j in range(6):
        x = min(0.6, max(0.1, 0.1 + 0.1 * j + rng.uniform(-0.005, 0.005)))
        a, b = angle_gap_pair(rng, 0.6)
        problems.append(("equivalence", {"alpha": (0, 1, a), "beta": (0, 1, b), "x": x}))
    for j in range(4):
        x = min(0.6, max(0.1, 0.1 + j * 0.5 / 3 + rng.uniform(-0.005, 0.005)))
        angles = angle_gap_pair(rng, 0.6)
        _, s = unit_eigen_matrix(rng, angles, spread=0.4)
        problems.append(("commuting", {"angles": list(angles), "s": s.tolist(),
                                       "xs": [x, x * rng.uniform(0.3, 0.9)]}))
    return problems


# --------------------------------------------------------------------------
# finite-order: root-of-unity data


def root_spec(params) -> cfl.EllipticCFSpec:
    m, a, b = params["m"], params["a"], params["b"]
    alpha = cfl.UnitModulusNumber.root_of_unity(a, m)
    beta = cfl.UnitModulusNumber.root_of_unity(b, m)
    (cp_re, cp_im, rp), (cq_re, cq_im, rq) = params["p"], params["q"]
    return cfl.geometric_spec(alpha, beta, complex(cp_re, cp_im), rp, complex(cq_re, cq_im), rq)


def _residue_answer(result):
    return {"A": result.A, "B": result.B, "rank": result.rank, "m": result.m,
            "distinct": len(result.distinct_values), "n_terms": result.n_terms}


def solve_residue(params):
    return _residue_answer(cfl.residue_limits(root_spec(params), tol=TOL))


def solve_q_cf(params):
    m, a, b = params["m"], params["a"], params["b"]
    return _residue_answer(cfl.q_cf_rank(
        [0.0] + [complex(*c) for c in params["f"]], [0.0] + [complex(*c) for c in params["g"]],
        cfl.UnitModulusNumber.root_of_unity(a, m), cfl.UnitModulusNumber.root_of_unity(b, m),
        complex(*params["qbase"]), tol=TOL,
    ))


def _root_refs(params):
    m, a, b = params["m"], params["a"], params["b"]
    return oracle.unit(Fraction(a, m), 0.0), oracle.unit(Fraction(b, m), 0.0)


def oracle_residue(params):
    alpha, beta = _root_refs(params)
    (cp_re, cp_im, rp), (cq_re, cq_im, rq) = params["p"], params["q"]
    A, B = oracle.residue_limits(alpha, beta, geometric_terms((cp_re, cp_im), rp),
                                 geometric_terms((cq_re, cq_im), rq), params["m"], max(rp, rq))
    return {"A": A, "B": B, "rank": oracle.finite_rank(params["a"], params["b"], params["m"])}


def oracle_q_cf(params):
    alpha, beta = _root_refs(params)
    qb = mpc(*params["qbase"])

    def poly(coeffs):
        cs = [mpc(*c) for c in coeffs]
        return lambda n: mp.fsum(c * qb ** (n * (j + 1)) for j, c in enumerate(cs))

    A, B = oracle.residue_limits(alpha, beta, poly(params["f"]), poly(params["g"]),
                                 params["m"], abs(complex(*params["qbase"])))
    return {"A": A, "B": B, "rank": oracle.finite_rank(params["a"], params["b"], params["m"])}


def check_residue(answer, ref, params, verdict: Verdict) -> None:
    verdict.exact("m", answer["m"], params["m"])
    verdict.exact("rank", answer["rank"], ref["rank"])
    verdict.exact("distinct values", answer["distinct"], ref["rank"])
    verdict.within_tol("A", max_abs(answer["A"], ref["A"]), TOL)
    verdict.within_tol("B", max_abs(answer["B"], ref["B"]), TOL)


def matrix_residue_inputs(params):
    m = np.asarray(params["m"], dtype=complex)
    e = _read_matrix(params["e"])
    ratio = params["ratio"]
    weight = float(np.max(np.abs(e)))
    return m, (lambda n: m + ratio**n * e), (lambda n: weight * ratio ** (n + 1) / (1.0 - ratio))


def solve_matrix_residue(params):
    m, d_seq, tail = matrix_residue_inputs(params)
    result = cfl.residue_matrix_limits(d_seq, m, params["order"], TOL, side=params["side"], tail_bound=tail)
    return {"f": result.f, "limits": result.residue_limits, "n_blocks": result.n_blocks}


def oracle_matrix_residue(params):
    m, e, ratio = oracle.from_numpy(params["m"]), oracle.from_numpy(_read_matrix(params["e"])), mpf(params["ratio"])
    d_seq = lambda n: [[x + ratio ** n * y for x, y in zip(rm, re)] for rm, re in zip(m, e)]
    f = oracle.block_product(d_seq, params["order"], params["ratio"], params["side"])
    return {"f": f}


def check_matrix_residue(answer, ref, params, verdict: Verdict) -> None:
    verdict.within_tol("F", max_abs(answer["f"], ref["f"]), TOL)
    verdict.exact("residue classes", len(answer["limits"]), params["order"])


def solve_recurrence_residue(params):
    roots = [cfl.UnitModulusNumber.root_of_unity(k, m) for k, m in params["roots"]]
    rec = recurrence(params, roots=roots)
    result = cfl.residue_limits_recurrence(rec, [complex(*v) for v in params["initial"]], TOL)
    return {"l": result.l, "m": result.m, "c": result.c,
            "roots": tuple(r.value for r in roots)}


def oracle_recurrence_residue(params):
    m = math.lcm(*(Fraction(k, mm).denominator for k, mm in params["roots"]))
    top = max(ratio for _, _, ratio in params["perturbations"])
    blocks = -(-oracle.terms_until_negligible(top) // m) + 1
    rows = _rows_ref(params)
    xs = oracle.recurrence_values(rows, [complex(*v) for v in params["initial"]], (blocks + 1) * m)
    roots, c = oracle.recurrence_coefficients(
        [complex(*v) for v in params["limits"]], rows, [complex(*v) for v in params["initial"]], blocks * m)
    return {"l": xs[blocks * m:], "m": m, "roots": roots, "c": c}


def check_recurrence_residue(answer, ref, params, verdict: Verdict) -> None:
    verdict.exact("m", answer["m"], ref["m"])
    verdict.within_tol("l", max_abs(answer["l"], ref["l"]), TOL)
    verdict.sane("c", max_abs(answer["c"], _match_roots(answer["roots"], ref["roots"], ref["c"])))


def _coprime(rng: random.Random, n: int) -> int:
    while True:
        k = rng.randrange(1, n) if n > 1 else 1
        if math.gcd(k, n) == 1:
            return k


def generate_root_problem(rng: random.Random, m: int, rank: int, ratio: float, use_q: bool):
    """alpha = w^a, beta = w^b with w = exp(2 pi i/m), a prime to m and rank m/gcd(b-a, m) = rank."""
    g = m // rank
    a = _coprime(rng, m)
    b = (a + g * _coprime(rng, rank)) % m
    params = {"m": m, "a": a, "b": b}
    if use_q:
        params.update(f=[random_phase(rng, 1.0), random_phase(rng, 0.5)], g=[random_phase(rng, 0.8)],
                      qbase=random_phase(rng, ratio))
    else:
        params.update(p=random_phase(rng, 1.0) + (ratio,), q=random_phase(rng, 1.0) + (ratio,))
    return ("q-cf" if use_q else "residue"), params


#: (m, ranks) of the root-of-unity problems: five orders from 6 to 960, and
#: at each order ranks from 2 up to m (each rank divides m).
ROOT_GRID = ((6, (2, 3, 6, 6)), (24, (2, 4, 12, 24)), (90, (2, 9, 30, 90)),
             (320, (2, 16, 80, 320)), (960, (2, 32, 240, 960)))


def generate_finite_order(seed: int):
    """Root-of-unity problems, m from about 6 to about 1000.

    Five orders m from 6 to 960 and, at each, four exponent pairs whose rank
    runs from 2 up to m (one of the four goes through q_cf_rank); the seed
    draws the exponents and the phases of the perturbations, while m, the
    ranks and the decay ratios stay fixed so that the cost of the set does
    not depend on the seed.  Then four finite-order matrix products and four
    recurrences with root-of-unity spectra.
    """
    rng = random.Random(f"finite-order:{seed}")
    problems = []
    for m, ranks in ROOT_GRID:
        for step, rank in enumerate(ranks):
            problems.append(generate_root_problem(rng, m, rank, (0.3, 0.5, 0.4, 0.3)[step], use_q=step == 1))
    # The order-2 product decays slowly (0.95^n): its 4-block stability
    # window stops at a near-constant multiple of tol whatever the seed, so
    # err_over_tol.max is steady and moves with any change to that rule.
    for order, ratio in ((2, 0.95), (5, 0.4), (12, 0.4), (40, 0.4)):
        k1 = _coprime(rng, order)
        k2 = (k1 + _coprime(rng, order)) % order
        angles = [2.0 * math.pi * k1 / order, 2.0 * math.pi * k2 / order]
        m, _ = unit_eigen_matrix(rng, angles, spread=0.3)
        problems.append(("matrix-residue", {
            "m": m.tolist(), "order": order,
            "e": [[random_phase(rng, 0.3) for _ in range(2)] for _ in range(2)],
            "ratio": ratio, "side": rng.choice(("left", "right")),
        }))
    for m1, m2 in ((3, 4), (5, 6), (7, 8), (9, 10)):
        roots = [(_coprime(rng, m1), m1), (_coprime(rng, m2), m2)]
        values = [complex(math.cos(2 * math.pi * k / mm), math.sin(2 * math.pi * k / mm)) for k, mm in roots]
        problems.append(("recurrence-residue", {
            "roots": roots,
            "limits": [(v.real, v.imag) for v in _limits_from_roots(values)],
            "perturbations": [random_phase(rng, 0.3) + (0.4,) for _ in range(2)],
            "initial": [random_phase(rng, 1.0) for _ in range(2)],
        }))
    return problems


# --------------------------------------------------------------------------
# cli: every subcommand on generated configs


class CliContext:
    """Where CLI configs and outputs go, and how commands are run.

    ``in_process`` calls ``cflimits.cli.main(argv)`` in this interpreter
    (the traced run); otherwise each command is a fresh subprocess.
    """

    def __init__(self, root: str, out_dir: str, env: dict, in_process: bool = False):
        self.root = root
        self.out_dir = out_dir
        self.env = env
        self.in_process = in_process


def _json_matrix(a) -> list:
    return [[[complex(v).real, complex(v).imag] for v in row] for row in np.asarray(a)]


def _read_matrix(rows) -> np.ndarray:
    return np.asarray([[complex(re, im) for re, im in row] for row in rows])


def solve_cli(params, ctx: CliContext):
    name = params["name"]
    out = os.path.join(ctx.out_dir, name)
    argv = [params["command"]]
    if params["config"] is not None:
        os.makedirs(ctx.out_dir, exist_ok=True)
        path = os.path.join(ctx.out_dir, name + ".json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(params["config"], fh)
        argv += ["--config", path]
    argv += ["--out", out]
    if ctx.in_process:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cfl.cli.main(argv)
        stdout = buffer.getvalue()
    else:
        proc = subprocess.run(
            [sys.executable, "-m", "cflimits.cli", *argv], cwd=ctx.root, env=ctx.env,
            capture_output=True, text=True, timeout=120,
        )
        code, stdout = proc.returncode, proc.stdout
        if code != 0:
            raise NoAnswer(f"{name} exited with {code}: {proc.stderr.strip()[-300:]}")
    if code != 0:
        raise NoAnswer(f"{name} exited with {code}")
    answer = {"stdout": stdout}
    if params["command"] == "figure":
        basename = params["config"]["which"]
        for ext in ("csv", "svg"):
            with open(os.path.join(out, f"{basename}.{ext}"), encoding="ascii") as fh:
                answer[ext] = fh.read()
    return answer


def _csv_points(text: str) -> dict[int, complex]:
    rows = {}
    for line in text.splitlines()[1:]:
        n, re, im = line.split(",")
        rows[int(n)] = complex(float(re), float(im))
    return rows


def _elliptic_params_ref(params, keep: int = 0):
    alpha, beta = unit_ref(params["alpha"]), unit_ref(params["beta"])
    (cp_re, cp_im, rp), (cq_re, cq_im, rq) = params["p"], params["q"]
    n_max = max(oracle.terms_until_negligible(max(rp, rq)), keep)
    return alpha, beta, oracle.elliptic_recurrence(
        alpha, beta, geometric_terms((cp_re, cp_im), rp), geometric_terms((cq_re, cq_im), rq),
        n_max, keep=keep)


def _normalized(h):
    """The library's canonical representative of a projective coefficient array."""
    coeffs = [complex(v) for v in h]
    scale = max(abs(v) for v in coeffs)
    coeffs = [v / scale for v in coeffs]
    lead = next(v for v in coeffs if abs(v) > 1e-14)
    phase = lead / abs(lead)
    return [v / phase for v in coeffs]


def oracle_cli(params):
    command, spec = params["command"], params.get("spec")
    if command == "limit-set":
        alpha, beta, (h, _) = _elliptic_params_ref(spec)
        m = lambda_order(spec)
        points = None
        if m is not None:
            with mp.workdps(oracle.DPS):
                points = [oracle.mobius(h, (alpha / beta) ** j) for j in range(m)]
        return {"h": _normalized(h), "m": m, "limit_points": points}
    if command == "figure":
        count = spec.get("count", 0)
        alpha, beta, (h, approximants) = _elliptic_params_ref(spec, keep=count)
        points = None
        if spec.get("order"):
            with mp.workdps(oracle.DPS):
                points = [oracle.mobius(h, (alpha / beta) ** j) for j in range(spec["order"])]
        return {"approximants": approximants, "limit_points": points}
    if command == "matrix-product":
        cfg = params["config"]
        m = _read_matrix(cfg["m"])
        e, ratio = oracle.from_numpy(_read_matrix(cfg["perturbation"]["matrix"])), mpf(cfg["perturbation"]["ratio"])
        mm = oracle.from_numpy(m)
        d_seq = lambda i: [[x + ratio ** i * y for x, y in zip(rm, re)] for rm, re in zip(mm, e)]
        n_max = oracle.terms_until_negligible(cfg["perturbation"]["ratio"])
        return {"f": oracle.cocycle(d_seq, m, n_max, cfg["side"])}
    if command == "recurrence":
        return oracle_recurrence(spec)
    if command == "rs-cf":
        return oracle_rs(spec)
    return {}


def check_cli(answer, ref, params, verdict: Verdict) -> None:
    command = params["command"]
    if command == "verify":
        lines = answer["stdout"].splitlines()
        verdict.exact("verify lines", bool(lines) and all(line.endswith("PASS") for line in lines), True)
        return
    doc = json.loads(answer["stdout"])
    if command == "limit-set":
        h = doc["h"]
        got = [complex(*h[k]) for k in "abcd"]
        verdict.within_tol("h", max_abs(got, ref["h"]), params["config"].get("tol", TOL))
        verdict.exact("m", doc["m"], ref["m"])
        if ref["m"] is not None:
            verdict.exact("rank", doc["rank"], ref["m"])
            got_points = [None if p == "inf" else complex(*p) for p in doc["limit_points"]]
            verdict.sane("limit points", max(chordal(g, ref_point(w)) for g, w in zip(got_points, ref["limit_points"])))
    elif command == "figure":
        rows = _csv_points(answer["csv"])
        which = params["config"]["which"]
        if which == "fig5":
            verdict.exact("points", len(rows), len(ref["limit_points"]))
            verdict.sane("limit points", max(chordal(rows[j], ref_point(w)) for j, w in enumerate(ref["limit_points"])))
        else:
            want = ref["approximants"]
            verdict.exact("points", len(rows), len(want))
            verdict.sane("approximants", max(chordal(rows[n], ref_point(w)) for n, w in enumerate(want, start=1)))
        verdict.exact("svg", answer["svg"].startswith("<?xml") and answer["svg"].rstrip().endswith("</svg>"), True)
    elif command == "matrix-product":
        verdict.within_tol("F", max_abs(_read_matrix(doc["f"]), ref["f"]), params["config"]["tol"])
    elif command == "recurrence":
        roots = [complex(*r) for r in doc["roots"]]
        verdict.sane("c", max_abs([complex(*c) for c in doc["c"]], _match_roots(roots, ref["roots"], ref["c"])))
        verdict.sane("residual", doc["residual"])
    elif command == "rs-cf":
        verdict.within_tol("F", max_abs(_read_matrix(doc["f"]), ref["f"]), params["config"]["tol"])
        for sample in doc["samples"]:
            want = ref["approximants"][sample["k"] - 1]
            verdict.sane(f"approximant {sample['k']}", max_abs(_read_matrix(sample["approximant"]), want))


def _angle_config(u) -> dict:
    """Config text for a (turns num, turns den, residual) whose residual is sqrt(k)."""
    num, den, k = u
    text = f"sqrt({k})"
    if num:
        text += f"+2*pi*({num}/{den})"
    return {"angle": text}


def _geometric_config(c) -> dict:
    re, im, ratio = c
    return {"type": "geometric", "coefficient": [re, im], "ratio": ratio}


def generate_cli(seed: int):
    """One run of every subcommand; configs drawn from the seed where they have inputs."""
    rng = random.Random(f"cli:{seed}")
    non_squares = [k for k in range(2, 60) if math.isqrt(k) ** 2 != k]
    problems = []

    def limit_set(name, k1, k2, turns):
        spec = {"alpha": (0, 1, math.sqrt(k1)), "beta": (turns, 17, math.sqrt(k2)),
                "p": random_phase(rng, rng.uniform(0.5, 1.5)) + (rng.uniform(0.1, 0.5),),
                "q": random_phase(rng, rng.uniform(0.5, 1.0)) + (rng.uniform(0.1, 0.5),)}
        config = {"kind": "elliptic-cf", "alpha": _angle_config((0, 1, k1)),
                  "beta": _angle_config((turns, 17, k2)),
                  "p": _geometric_config(spec["p"]), "q": _geometric_config(spec["q"])}
        return ("cli", {"name": name, "command": "limit-set", "config": config, "spec": spec})

    problems.append(("cli", {"name": "verify", "command": "verify", "config": None}))
    k1, k2 = rng.sample(non_squares, 2)
    problems.append(limit_set("limit-set-irrational", k1, k2, 0))
    k = rng.choice(non_squares)
    problems.append(limit_set("limit-set-order17", k, k, rng.randrange(1, 17)))

    sqrt11, sqrt13 = math.sqrt(11), math.sqrt(13)
    third = math.atan2(math.sqrt(5) / 3.0, 2.0 / 3.0)
    figure_specs = {
        "fig3": {"alpha": (0, 1, sqrt11), "beta": (0, 1, sqrt13), "p": (1.0, 0.0, 0.3), "q": (1.0, 0.0, 0.2), "count": 3000},
        "fig4": {"alpha": (0, 1, sqrt11), "beta": (1, 17, sqrt11), "p": (1.0, 0.0, 0.3), "q": (1.0, 0.0, 0.2), "count": 3000},
        "fig5": {"alpha": (0, 1, sqrt11), "beta": (1, 17, sqrt11), "p": (1.0, 0.0, 0.3), "q": (1.0, 0.0, 0.2), "order": 17},
        "fig6": {"alpha": (0, 1, third), "beta": (0, 1, -third), "p": (0.0, 0.0, 0.0), "q": (0.0, 0.0, 0.0), "count": 1200},
    }
    for which, spec in figure_specs.items():
        problems.append(("cli", {"name": which, "command": "figure",
                                 "config": {"kind": "figure", "which": which}, "spec": spec}))

    # E commutes with M and decays slowly (0.9^i), so the cocycle's 16-step
    # stability window stops at a near-constant multiple of tol whatever the
    # seed: err_over_tol.max is steady and moves with any change to that rule.
    angles = angle_gap_pair(rng, 0.6)
    m, s = unit_eigen_matrix(rng, angles, spread=0.4)
    e = s @ np.diag([complex(*random_phase(rng, 0.5)) for _ in range(2)]) @ np.linalg.inv(s)
    problems.append(("cli", {"name": "matrix-product", "command": "matrix-product", "config": {
        "kind": "matrix-product", "mode": "cocycle", "m": _json_matrix(m),
        "perturbation": {"matrix": _json_matrix(e), "ratio": 0.9},
        "tol": TOL, "side": rng.choice(("left", "right")),
    }}))

    rec = generate_recurrence(rng, 2)
    ratio = rec["perturbations"][0][2]
    rec["perturbations"] = [(re, im, ratio) for re, im, _ in rec["perturbations"]]
    problems.append(("cli", {"name": "recurrence", "command": "recurrence", "spec": rec, "config": {
        "kind": "recurrence", "limits": [list(v) for v in rec["limits"]],
        "perturbations": [{"coefficient": [re, im], "ratio": r} for re, im, r in rec["perturbations"]],
        "initial": [list(v) for v in rec["initial"]], "tol": TOL,
    }}))

    rs = generate_rs(rng, 2, 2)
    problems.append(("cli", {"name": "rs-cf", "command": "rs-cf", "spec": rs, "config": {
        "kind": "rs-cf", "r": 2, "s": 2, "theta_limit": _json_matrix(rs["theta"]),
        "perturbation": {"matrix": _json_matrix(rs["e"]), "ratio": rs["ratio"]},
        "k_max": rs["k_max"], "tol": TOL,
    }}))
    return problems


# --------------------------------------------------------------------------
# registry

KINDS = {
    "elliptic": (solve_elliptic, oracle_elliptic, check_elliptic),
    "rs": (solve_rs, oracle_rs, check_rs),
    "recurrence": (solve_recurrence, oracle_recurrence, check_recurrence),
    "equivalence": (solve_equivalence, oracle_equivalence, check_equivalence),
    "commuting": (solve_commuting, oracle_commuting, check_commuting),
    "residue": (solve_residue, oracle_residue, check_residue),
    "q-cf": (solve_q_cf, oracle_q_cf, check_residue),
    "matrix-residue": (solve_matrix_residue, oracle_matrix_residue, check_matrix_residue),
    "recurrence-residue": (solve_recurrence_residue, oracle_recurrence_residue, check_recurrence_residue),
    "cli": (solve_cli, oracle_cli, check_cli),
}

GENERATORS = {
    "fast-tail": generate_fast_tail,
    "slow-tail": generate_slow_tail,
    "finite-order": generate_finite_order,
    "cli": generate_cli,
}


def generate(workload: str, seed: int):
    return GENERATORS[workload](seed)


def solve(kind: str, params, ctx=None):
    solver = KINDS[kind][0]
    return solver(params, ctx) if kind == "cli" else solver(params)
