"""Tests of the benchmark itself (not of cflimits).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests/check_perfbench.py

The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import cflimits  # noqa: E402
import cflimits.limitset  # noqa: E402
import cflimits.sphere  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7)
    assert run.canonical(first) == run.canonical(workloads.generate(workload, 7))
    assert run.canonical(first) != run.canonical(workloads.generate(workload, 8))


def _quick_problems(workload):
    """A cheap subset that still reaches every kind of the workload."""
    problems = workloads.generate(workload, 3)
    if workload == "slow-tail":
        return [problems[0], problems[6]]  # the smallest x of each family
    if workload == "finite-order":
        return [p for p in problems if p[0] != "residue" or p[1]["m"] < 100]
    if workload == "fast-tail":
        return problems[:6] + problems[-6:]
    return problems


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_answers_are_bit_identical(workload, tmp_path):
    problems = _quick_problems(workload)
    ctx = workloads.CliContext(str(ROOT), str(tmp_path), run.child_env(), in_process=True)
    plain = [run.canonical(workloads.solve(kind, params, ctx)) for kind, params in problems]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [run.canonical(workloads.solve(kind, params, ctx)) for kind, params in problems]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert len(tracer) > 0


def test_tracing_reaches_names_bound_by_other_modules():
    original = cflimits.sphere.chordal_distance
    assert cflimits.limitset.chordal_distance is original
    params = workloads.generate_root_problem(random.Random(1), 40, 40, 0.5, use_q=False)[1]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cflimits.limitset.chordal_distance is not original
        result = workloads.solve("residue", params)
    finally:
        tracer.uninstall()
    assert cflimits.limitset.chordal_distance is original
    assert cflimits.sphere.chordal_distance is original
    calls, self_s = tracer.layer_totals()["sphere.chordal_distance"]
    # distinct_values compares each of the m values with the distinct ones so far
    assert calls >= params["m"] - 1 + result["distinct"] * (result["distinct"] - 1) // 2
    assert self_s > 0.0
    steps, _ = tracer.layer_totals()["cf.ConvergentStream.step"]
    assert steps == result["n_terms"]


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.solve("elliptic", workloads.generate("fast-tail", 1)[0][1])
    finally:
        tracer.uninstall()
    a = tracer.arrays()
    duration = a["end"] - a["start"]
    totals = tracer.layer_totals()
    assert sum(s for _, s in totals.values()) <= duration[a["parent"] < 0].sum() + 1e-9
    assert all(s >= -1e-6 for _, s in totals.values())


def _close(got, want, tol):
    return workloads.max_abs(got, want) <= tol


@pytest.mark.parametrize("ratio", [0.3, 0.6])
def test_equivalence_closed_form_matches_library_on_geometric_decay(ratio):
    params = {"alpha": (0, 1, math.sqrt(11)), "beta": (0, 1, math.sqrt(13)), "ratio": ratio}
    answer = workloads.solve("equivalence", params)
    ref = workloads.oracle_equivalence(params)
    assert _close(answer["h"], ref["h"], workloads.TOL)


@pytest.mark.parametrize("ratio", [0.3, 0.6])
def test_commuting_closed_form_matches_library_on_geometric_decay(ratio):
    rng = random.Random(5)
    angles = workloads.angle_gap_pair(rng, 0.6)
    _, s = workloads.unit_eigen_matrix(rng, angles)
    params = {"angles": list(angles), "s": s.tolist(), "xs": [0.5, 0.3], "ratio": ratio}
    answer = workloads.solve("commuting", params)
    assert _close(answer["f"], workloads.oracle_commuting(params)["f"], workloads.TOL)


def test_closed_forms_agree_with_the_mpmath_recurrence():
    """sinh(pi x)/(pi x) and prod(1 + r^k) against the raw 40-digit recurrence."""
    alpha, beta = oracle.unit(Fraction(0), 0.7), oracle.unit(Fraction(0), 2.1)
    r = 0.4
    e = lambda n: oracle.mpf(r) ** n
    p = lambda n: (alpha + beta) * e(n)
    q = lambda n: -alpha * beta * ((1 + e(n)) * (1 + e(n - 1)) - 1) if n > 1 else -alpha * beta * e(n)
    h, _ = oracle.elliptic_recurrence(alpha, beta, p, q, oracle.terms_until_negligible(r))
    closed = oracle.equivalence_h(alpha, beta, oracle.geometric_product(r))
    assert max(abs(complex(x - y)) for x, y in zip(h, closed)) < 1e-30
    assert abs(float(oracle.sinhc(0.5)) - math.sinh(math.pi * 0.5) / (math.pi * 0.5)) < 1e-15


def test_finite_order_ranks_follow_the_gcd_formula():
    for kind, params in workloads.generate("finite-order", 2):
        if kind in ("residue", "q-cf"):
            rank = oracle.finite_rank(params["a"], params["b"], params["m"])
            assert 2 <= rank <= params["m"]
            assert params["m"] % rank == 0


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == tracing.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fast-tail", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
