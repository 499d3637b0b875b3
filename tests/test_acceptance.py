"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the table.
Tolerances are pinned here and nowhere else.
"""

import cmath
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cflimits import bauermuir as BM
from cflimits import cf as C
from cflimits import cli
from cflimits import limitset as L
from cflimits import matprod as MP
from cflimits import qseries as Q
from cflimits import recur as R
from cflimits import rsmatrix as RS
from cflimits.limitset import UnitModulusNumber as U
from cflimits.sphere import Line, chordal_distance

SQRT5 = math.sqrt(5.0)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {criterion} failed: {detail}"


def worked_example_spec():
    return L.geometric_spec(
        U.from_angle(math.sqrt(11.0)), U.from_angle(math.sqrt(13.0)), 1.0, 0.3, 1.0, 0.2
    )


def constant_43_spec():
    half = math.atan2(SQRT5 / 3.0, 2.0 / 3.0)
    return L.geometric_spec(U.from_angle(half), U.from_angle(-half))


def test_criterion_1_worked_example():
    start = time.perf_counter()
    spec = worked_example_spec()
    mods = L.compute_h_via_modifications(spec, 1e-11, 5000)
    direct = L.compute_h_direct(spec, 1e-11, 5000)
    conc = L.concentration_points(direct.h, None)
    elapsed = time.perf_counter() - start

    targets = {
        "h(inf)": (mods.at_infinity.z, 1.13121 + 0.772998j),
        "h(0)": (mods.at_zero.z, 1.20138 + 0.0347473j),
        "h(1)": (mods.at_one.z, -0.412160 - 0.486753j),
    }
    ok = True
    details = []
    for name, (got, want) in targets.items():
        err = max(abs(got.real - want.real), abs(got.imag - want.imag))
        ok &= err < 5e-5
        details.append(f"{name} err {err:.1e}")
    for name, got, want in (
        ("high", conc.highest.z, 1.16911 + 0.374194j),
        ("low", conc.lowest.z, 1.60256 - 4.18725j),
    ):
        err = max(abs(got.real - want.real), abs(got.imag - want.imag))
        ok &= err < 5e-4
        details.append(f"conc-{name} err {err:.1e}")
    ok &= elapsed < 5.0
    details.append(f"{elapsed:.2f}s")
    report("1 (worked example)", ok, ", ".join(details))


def test_criterion_2_constant_fraction():
    spec = constant_43_spec()
    direct = L.compute_h_direct(spec, 1e-13, 1000)
    from cflimits.sphere import MobiusMap

    target = MobiusMap(complex(-2 / 3, SQRT5 / 3), complex(2 / 3, SQRT5 / 3), 1.0, -1.0)
    pts = [cmath.rect(1.0, 0.37 * t) for t in range(20)]
    pointwise = max(
        chordal_distance(direct.h.apply(z), target.apply(z)) for z in pts
    )
    geometry = direct.h.image_of_unit_circle()
    conc = L.concentration_points(direct.h, None)
    det_err = abs(direct.h.det - (spec.beta.value - spec.alpha.value))
    ok = (
        pointwise < 1e-8
        and isinstance(geometry, Line)
        and abs(conc.highest.z - (-2.0 / 3.0)) < 1e-8
        and conc.lowest.is_infinity
        and det_err < 1e-8
    )
    report(
        "2 (4/3 fraction)",
        ok,
        f"pointwise {pointwise:.1e}, det err {det_err:.1e}, line={isinstance(geometry, Line)}",
    )


def test_criterion_3_rank_regression():
    # Divergent families with a_n = 5^-n, b_n = 7^-n: partial numerators
    # -1 + a_n over denominators 2cos(2 pi /m') + b_n.
    cases = [
        ((1, 6), 3),    # denominators 1 + b_n
        ((1, 8), 4),    # sqrt(2) + b_n
        ((3, 10), 5),   # (1 - sqrt(5))/2 + b_n
        ((1, 12), 6),   # sqrt(3) + b_n
    ]
    ok = True
    details = []
    for (num, den), want_rank in cases:
        spec = L.geometric_spec(
            U.root_of_unity(num, den),
            U.root_of_unity(den - num, den),
            1.0, 1.0 / 7.0,
            1.0, 1.0 / 5.0,
        )
        res = L.residue_limits(spec, 1e-12)
        # one period of pairwise distinct limits, which recur rank steps on
        period = res.values[:res.rank]
        gap = min(chordal_distance(u, v) for i, u in enumerate(period) for v in period[:i])
        drift = max(chordal_distance(v, res.values[(j + res.rank) % res.m]) for j, v in enumerate(res.values))
        ok &= res.rank == want_rank and gap > 1e-6 and drift < 1e-8
        # determinant identity along consecutive residues
        want = -1.0
        for n in range(1, 200):
            want *= 1.0 - 0.2**n
        det_err = max(
            abs((res.A[p] * res.B[p - 1] - res.A[p - 1] * res.B[p]) - want)
            for p in range(1, res.m)
        )
        ok &= det_err < 1e-9
        details.append(f"m'={den}: {res.rank} limits, gap {gap:.1e}, det err {det_err:.1e}")
    # the 17-limit configuration
    alpha = U(Fraction(0), math.sqrt(11.0))
    beta = U(Fraction(1, 17), math.sqrt(11.0))
    spec17 = L.geometric_spec(alpha, beta, 1.0, 0.3, 1.0, 0.2)
    report17 = L.limit_set_report(spec17, 1e-10)
    distinct17 = []
    for v in report17.limit_points:
        if all(chordal_distance(v, u) > 1e-6 for u in distinct17):
            distinct17.append(v)
    ok &= len(distinct17) == 17
    details.append(f"fig4 config: {len(distinct17)} limits")
    report("3 (rank regression)", ok, "; ".join(details))


def test_criterion_4_stern_stolz():
    spec = L.geometric_spec(U.root_of_unity(0, 1), U.root_of_unity(1, 2), 1.0, 1.0 / 3.0)
    res = L.residue_limits(spec, 1e-12)
    finite = all(not v.is_infinity for v in res.values)
    det = res.A[1] * res.B[0] - res.A[0] * res.B[1]
    err1 = abs(det - 1.0)

    spec_gen = L.geometric_spec(
        U.root_of_unity(0, 1), U.root_of_unity(1, 2), 1.0, 1.0 / 3.0, 1.0, 0.25
    )
    res_gen = L.residue_limits(spec_gen, 1e-12)
    det_gen = res_gen.A[1] * res_gen.B[0] - res_gen.A[0] * res_gen.B[1]
    want = 1.0
    for n in range(1, 200):
        want *= 1.0 + 0.25**n
    err2 = abs(det_gen - want)
    ok = finite and err1 < 1e-10 and err2 < 1e-10
    report("4 (Stern-Stolz suite)", ok, f"det errs {err1:.1e}, {err2:.1e}")


def test_criterion_5_three_limit_claim():
    ok = True
    worst = 0.0
    for q in (0.1, 0.3):
        for a in (0.0, 0.05):
            for j in (0, 1, 2):
                _, _, residual = Q.verify_ramanujan_claim(q, a, j, tol=1e-12)
                worst = max(worst, residual)
                ok &= residual < 1e-7
    shift = 0.0
    for j in range(3):
        _, rhs1, _ = Q.verify_ramanujan_claim(0.3, 0.05, j, representative=j + 3)
        _, rhs2, _ = Q.verify_ramanujan_claim(0.3, 0.05, j, representative=j + 6)
        shift = max(shift, chordal_distance(rhs1, rhs2))
    ok &= shift < 1e-12
    report("5 (three-limit claim)", ok, f"worst residual {worst:.1e}, shift {shift:.1e}")


def test_criterion_6_bauer_muir():
    spec = worked_example_spec()
    direct = L.compute_h_direct(spec, 1e-12, 5000)
    ok = True
    details = []
    for k in (-1, 0, 2):
        got = BM.bm_at_lambda_power(spec, k).evaluate(1e-12).value
        want = direct.h.apply(spec.lam.power(k + 1).value)
        err = chordal_distance(got, want)
        ok &= err < 1e-5
        details.append(f"k={k}: {err:.1e}")
    got_inf = BM.bm_at_infinity(spec).evaluate(1e-12).value.z
    got_zero = BM.bm_at_zero(spec).evaluate(1e-12).value.z
    ok &= abs(got_inf - (1.13121 + 0.772998j)) < 1e-5
    ok &= abs(got_zero - (1.20138 + 0.0347473j)) < 1e-5
    for q, angles in ((0.3, (math.sqrt(2.0), 1.0)), (0.5, (math.sqrt(3.0), math.sqrt(5.0)))):
        _, _, residual = BM.rbm_identity(q, U.from_angle(angles[0]), U.from_angle(angles[1]), tol=1e-13)
        ok &= residual < 1e-9
        details.append(f"rbm q={q}: {residual:.1e}")
    report("6 (Bauer-Muir)", ok, ", ".join(details))


def test_criterion_7_asymptotic_law():
    specs = [
        worked_example_spec(),
        L.geometric_spec(
            U.from_angle(1.1), U.from_angle(-0.7), 0.5, 0.45, -0.3j, 0.5
        ),
        L.geometric_spec(
            U.from_angle(2.2), U.from_angle(0.4), 0.2 + 0.1j, 0.5, 0.1, 0.35
        ),
    ]
    ok = True
    details = []
    for idx, spec in enumerate(specs):
        direct = L.compute_h_direct(spec, 1e-12, 5000)
        stream = C.convergents(L.build_cf(spec))
        worst = 0.0
        for _ in range(1000):
            stream.step()
            if stream.n >= 500:
                predicted = L.asymptotic_predictor(spec, direct.h, stream.n)
                worst = max(worst, chordal_distance(stream.value(), predicted))
        ok &= worst < 1e-6
        details.append(f"spec{idx}: sup {worst:.1e}")
    report("7 (asymptotic law)", ok, ", ".join(details))


def test_criterion_8_matrix_products():
    rng = np.random.default_rng(2024)
    ok = True
    worst_residue = 0.0
    worst_cocycle = 0.0
    cases = []
    for dim in (2, 3):
        for order in (2, 3, 4):
            cases.append((dim, order))
    cases = (cases * 2)[:10]
    for dim, order in cases:
        eigs = [cmath.rect(1.0, 2.0 * math.pi * (k % order) / order) for k in range(dim)]
        # orthonormal similarity keeps M^order - I at machine precision
        s, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        m = s @ np.diag(eigs) @ s.conj().T
        assert MP.entry_norm(np.linalg.matrix_power(m, order) - np.eye(dim)) < 1e-10
        e = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        d_seq = lambda n: m + 2.0**-n * e
        tail = lambda n: MP.entry_norm(e) * dim * 2.0 ** -(n) / 1.0
        res = MP.residue_matrix_limits(d_seq, m, order, 1e-12, tail_bound=tail)

        def direct(j, blocks=50):
            p = np.eye(dim, dtype=complex)
            for n in range(1, order * blocks + j + 1):
                p = p @ d_seq(n)
            return p

        for j in range(order):
            err = MP.entry_norm(res.residue_limits[j] - direct(j))
            worst_residue = max(worst_residue, err)
            ok &= err < 1e-8
        pair = MP.MatrixSequencePair(dim, d_seq, lambda i: m, tail)
        cocycle = MP.cocycle_limit(pair, 1e-12)
        err = MP.entry_norm(cocycle.f - res.f)
        worst_cocycle = max(worst_cocycle, err)
        ok &= err < 1e-8
    report(
        "8 (matrix products)",
        ok,
        f"10 instances, residue err {worst_residue:.1e}, cocycle err {worst_cocycle:.1e}",
    )


def test_criterion_9_recurrences():
    # geometric perturbation residual over [200, 400]
    rec = R.PoincareRecurrence.build(
        lambda n: (-1.0 + 3.0**-n, 4.0 / 3.0),
        (-1.0, 4.0 / 3.0),
        tail_bound=lambda n: 1.5 * 3.0 ** -(n + 1),
    )
    result = R.asymptotic_coefficients(rec, (1.0, 0.5), 1e-12)
    xs = rec.iterate((1.0, 0.5), 401)
    worst = 0.0
    for n in range(200, 401):
        approx = sum(result.c[i] * rec.roots[i].power(n).value for i in range(2))
        worst = max(worst, abs(xs[n] - approx))

    # constant-coefficient Vandermonde exactness
    rec0 = R.PoincareRecurrence.build(
        lambda n: (-1.0, 4.0 / 3.0), (-1.0, 4.0 / 3.0), tail_bound=lambda n: 0.0
    )
    res0 = R.asymptotic_coefficients(rec0, (0.25, -1.5j), 1e-13)
    roots = rec0.root_values()
    vander = np.array([[r**k for r in roots] for k in range(2)], dtype=complex)
    want = np.linalg.solve(vander, np.array([0.25, -1.5j], dtype=complex))
    vand_err = float(np.max(np.abs(np.array(res0.c) - want)))

    perron = R.perron_limsup_diagnostic(lambda n: (-1.0, 4.0 / 3.0), (0.0, -1.0), 10_000)
    ok = worst < 1e-6 and vand_err < 1e-12 and abs(perron - 1.0) < 0.01
    report(
        "9 (recurrences)",
        ok,
        f"residual {worst:.1e}, vandermonde {vand_err:.1e}, perron {perron:.4f}",
    )


def test_criterion_10_rs_fractions():
    # (1,1) embedding equals classical approximants exactly over 30 terms
    rng = np.random.default_rng(77)
    terms = {
        k: (complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
        for k in range(1, 31)
    }
    fraction = C.ContinuedFraction(0.0, lambda n: terms[n])
    system = RS.RSSystem(
        1, 1, lambda k: np.array([[0.0, 1.0], [terms[k][0], terms[k][1]]], dtype=complex)
    )
    stream = C.convergents(fraction)
    exact = True
    for k, sk in RS.rs_approximants(system, 30):
        stream.step()
        value = stream.value()
        if value.is_infinity:
            exact &= sk is None
        else:
            exact &= sk is not None and complex(sk[0, 0]) == value.z

    # elliptic (1,1) predictor error over [500, 1000]
    theta = np.array([[0.0, 1.0], [-1.0, 4.0 / 3.0]], dtype=complex)
    system_e = RS.RSSystem(
        1,
        1,
        lambda k: np.array(
            [[0.0, 1.0], [-1.0 + 0.2**k * 1j, 4.0 / 3.0 + 0.3**k]], dtype=complex
        ),
        theta,
        lambda n: 0.2 ** (n + 1) / 0.8 + 0.3 ** (n + 1) / 0.7,
    )
    asym = RS.rs_asymptotics(system_e, 1e-12)
    worst = 0.0
    for k, sk in RS.rs_approximants(system_e, 1000):
        if k >= 500 and sk is not None:
            worst = max(worst, float(np.max(np.abs(sk - asym.predictor(k)))))

    # finite-order theta, m = 3
    perm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    e = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    system_3 = RS.RSSystem(
        1, 2,
        lambda k: perm + 0.4**k * e,
        perm,
        lambda n: float(np.max(np.abs(e))) * 3 * 0.4 ** (n + 1) / 0.6,
    )
    asym3 = RS.rs_asymptotics(system_3, 1e-12)
    last = {}
    for k, sk in RS.rs_approximants(system_3, 400):
        if sk is not None and k > 360:
            last[k % 3] = sk
    worst3 = 0.0
    for j, sk in last.items():
        target = RS.f_projection(np.linalg.matrix_power(perm, j) @ asym3.f_matrix, 1, 2)
        worst3 = max(worst3, float(np.max(np.abs(sk - target))))
    ok = exact and worst < 1e-6 and worst3 < 1e-8
    report(
        "10 (rs fractions)",
        ok,
        f"(1,1) exact={exact}, predictor {worst:.1e}, residue {worst3:.1e}",
    )


def test_criterion_11_determinism(tmp_path, capsys):
    outputs = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        fig_cfg = tmp_path / "fig.json"
        fig_cfg.write_text(json.dumps({"kind": "figure", "which": "fig6"}))
        assert cli.main(["figure", "--config", str(fig_cfg), "--out", str(out)]) == 0
        assert cli.main(["verify", "--out", str(out)]) == 0
        capsys.readouterr()
        outputs.append(out)
    ok = True
    for name in ("fig6.svg", "fig6.csv", "verify.txt"):
        ok &= (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    with capsys.disabled():
        report("11 (determinism)", ok, "fig6.svg, fig6.csv, verify.txt byte-identical")
