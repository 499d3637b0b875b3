"""Command-line front end: JSON experiment configs in, reports and figures out.

Subcommands
-----------
limit-set       full limit-set report for an elliptic-type fraction
figure          scatter/histogram figures (SVG + CSV), including the four
                built-in reproductions fig3..fig6
verify          named identity checks with residual table
matrix-product  cocycle / residue limits of perturbed matrix products
recurrence      asymptotic coefficients of a perturbed recurrence
rs-cf           (r,s)-system approximants against the cocycle predictor

Exit codes: 0 success, 2 bad config/usage, 3 numeric budget exhausted,
4 I/O failure, 5 identity verification failed.  Outputs carry no
timestamps and use fixed float formatting, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from . import bauermuir as _bm
from . import cf as _cf
from . import limitset as _ls
from . import matprod as _mp
from . import qseries as _qs
from . import recur as _rc
from . import rsmatrix as _rs
from . import svgfig as _svg
from .errors import CFLimitsError, ConfigError, NoConvergenceError
from .sphere import Circle, ExtendedComplex, Line
from .limitset import UnitModulusNumber

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4
EXIT_VERIFY = 5


# --------------------------------------------------------------------------
# config parsing

def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown fields {sorted(unknown)} in {where}")


def _complex_of(value: Any, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{where}: expected number or [re, im], got {value!r}")


def parse_angle_expression(text: str) -> UnitModulusNumber:
    """Angles as sums of decimals, sqrt(integer) and 2*pi*(p/q) terms.

    The 2*pi-rational part is kept exact, so configs like
    "sqrt(11)+2*pi*(1/17)" yield a point whose quotient against
    "sqrt(11)" has an exactly known finite order.
    """
    text = text.replace(" ", "")
    if not text:
        raise ConfigError("empty angle expression")
    turns = Fraction(0)
    residual = 0.0
    # split into signed terms
    terms: list[str] = []
    start = 0
    for i, ch in enumerate(text):
        exponent = i >= 2 and text[i - 1] in "eE" and text[i - 2] in "0123456789."
        if ch in "+-" and i > start and text[i - 1] not in "+-*/(" and not exponent:
            terms.append(text[start:i])
            start = i
    terms.append(text[start:])
    for term in terms:
        sign = 1.0
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if term.startswith("2*pi*"):
            frac = term[5:]
            if frac.startswith("(") and frac.endswith(")"):
                frac = frac[1:-1]
            try:
                if "/" in frac:
                    num, den = frac.split("/")
                    value = Fraction(int(num), int(den))
                else:
                    value = Fraction(int(frac))
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"bad rational in angle term {term!r}") from exc
            turns += value if sign > 0 else -value
        elif term.startswith("sqrt(") and term.endswith(")"):
            try:
                inner = int(term[5:-1])
            except ValueError as exc:
                raise ConfigError(f"bad sqrt() argument in {term!r}") from exc
            if inner < 0:
                raise ConfigError(f"sqrt of negative integer in {term!r}")
            residual += sign * math.sqrt(inner)
        elif term == "pi":
            residual += sign * math.pi
        else:
            try:
                residual += sign * float(term)
            except ValueError as exc:
                raise ConfigError(f"cannot parse angle term {term!r}") from exc
    return UnitModulusNumber(turns, residual)


def _unit_point(obj: Any, where: str) -> UnitModulusNumber:
    if isinstance(obj, dict):
        _require_keys(obj, {"root", "angle"}, where)
        if "root" in obj:
            pair = obj["root"]
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ConfigError(f"{where}.root must be [num, den]")
            return UnitModulusNumber.root_of_unity(int(pair[0]), int(pair[1]))
        if "angle" in obj:
            return parse_angle_expression(str(obj["angle"]))
    raise ConfigError(f'{where}: expected {{"root": [num, den]}} or {{"angle": "..."}}')


def _sequence(obj: Any, where: str) -> tuple[Callable[[int], complex], Callable[[int], float]]:
    """Sequence descriptor -> (generator, tail bound on sum of |values|)."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError(f"{where}: expected a sequence descriptor object")
    kind = obj["type"]
    if kind == "zero":
        _require_keys(obj, {"type"}, where)
        return (lambda n: 0.0), (lambda n: 0.0)
    if kind == "geometric":
        _require_keys(obj, {"type", "coefficient", "ratio"}, where)
        coeff = _complex_of(obj.get("coefficient", 1.0), f"{where}.coefficient")
        ratio = float(obj["ratio"])
        if not 0.0 <= ratio < 1.0:
            raise ConfigError(f"{where}.ratio must lie in [0, 1)")
        return (lambda n: coeff * ratio**n), _cf.geometric_tail(abs(coeff), ratio)
    if kind == "poly-qn":
        _require_keys(obj, {"type", "q", "coefficients"}, where)
        q = _complex_of(obj["q"], f"{where}.q")
        if not abs(q) < 1.0:
            raise ConfigError(f"{where}.q needs |q| < 1")
        coeffs = [_complex_of(c, f"{where}.coefficients") for c in obj["coefficients"]]
        if coeffs and coeffs[0] != 0:
            raise ConfigError(f"{where}.coefficients must have zero constant term")
        return (
            lambda n: sum(c * q ** (n * j) for j, c in enumerate(coeffs) if j > 0),
            _cf.geometric_tail(sum(abs(c) for c in coeffs[1:]), abs(q)),
        )
    raise ConfigError(f"{where}.type must be zero | geometric | poly-qn, got {kind!r}")


def _elliptic_spec(obj: dict, where: str = "config") -> _ls.EllipticCFSpec:
    _require_keys(obj, {"kind", "alpha", "beta", "p", "q", "tol", "max_n"}, where)
    for key in ("alpha", "beta", "p", "q"):
        if key not in obj:
            raise ConfigError(f"{where}: missing field {key!r}")
    alpha = _unit_point(obj["alpha"], f"{where}.alpha")
    beta = _unit_point(obj["beta"], f"{where}.beta")
    p_gen, p_tail = _sequence(obj["p"], f"{where}.p")
    q_gen, q_tail = _sequence(obj["q"], f"{where}.q")
    return _ls.EllipticCFSpec(
        alpha, beta, p_gen, q_gen, lambda n: p_tail(n) + q_tail(n)
    )


def _budget(max_n: int) -> int:
    if max_n < 1:
        raise ConfigError(f"max_n must be at least 1, got {max_n}")
    return max_n


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError:
        raise
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top-level value must be an object")
    return obj


# --------------------------------------------------------------------------
# serialization

def _ser_complex(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _ser_point(p: ExtendedComplex) -> Any:
    return "inf" if p.is_infinity else _ser_complex(p.z)


def _ser_geometry(g) -> dict:
    if isinstance(g, Circle):
        return {"type": "circle", "center": _ser_complex(g.center), "radius": g.radius}
    if isinstance(g, Line):
        return {"type": "line", "point": _ser_complex(g.point), "direction": _ser_complex(g.direction)}
    return {"type": "unknown"}


def _ser_matrix(m: np.ndarray) -> list:
    return [[_ser_complex(complex(v)) for v in row] for row in np.asarray(m)]


def _emit(report: dict, out_dir: str | None, name: str) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w", encoding="ascii", newline="\n") as fh:
            fh.write(text + "\n")


# --------------------------------------------------------------------------
# limit-set

def cmd_limit_set(config: dict, out_dir: str | None, tol: float | None, max_n: int | None) -> int:
    if config.get("kind") != "elliptic-cf":
        raise ConfigError('limit-set needs config kind "elliptic-cf"')
    spec = _elliptic_spec(config)
    report = _ls.limit_set_report(
        spec,
        tol=tol if tol is not None else float(config.get("tol", 1e-10)),
        max_n=_budget(max_n if max_n is not None else int(config.get("max_n", 200_000))),
    )
    h = report.h
    doc = {
        "h": {"a": _ser_complex(h.a), "b": _ser_complex(h.b),
              "c": _ser_complex(h.c), "d": _ser_complex(h.d)},
        "m": report.m,
        "rank": report.rank,
        "geometry": _ser_geometry(report.geometry),
        "concentration": {
            "kind": report.concentration.kind,
            "highest": None if report.concentration.highest is None else _ser_point(report.concentration.highest),
            "lowest": None if report.concentration.lowest is None else _ser_point(report.concentration.lowest),
        },
        "det_product": _ser_complex(report.det_product),
        "limit_points": None if report.limit_points is None else [_ser_point(p) for p in report.limit_points],
        "residue": None if report.residue is None else {
            "m": report.residue.m,
            "rank": report.residue.rank,
            "A": [_ser_complex(v) for v in report.residue.A],
            "B": [_ser_complex(v) for v in report.residue.B],
            "values": [_ser_point(v) for v in report.residue.values],
            "det_identity_residual": report.residue.det_identity_residual,
            "closed_form_residual": report.residue.closed_form_residual,
        },
        "suspicious_order": report.suspicious_order,
        "n_terms": report.n_terms,
    }
    _emit(doc, out_dir, "limit-set.json")
    return EXIT_OK


# --------------------------------------------------------------------------
# figures

FIGURE_DEFAULTS = {
    "fig3": 3000,
    "fig4": 3000,
    "fig5": 17,
    "fig6": 1200,
}


def _builtin_fig_spec(which: str) -> _ls.EllipticCFSpec:
    sqrt11 = UnitModulusNumber.from_angle(math.sqrt(11))
    if which == "fig3":
        return _ls.geometric_spec(
            sqrt11, UnitModulusNumber.from_angle(math.sqrt(13)), 1.0, 0.3, 1.0, 0.2
        )
    if which in ("fig4", "fig5"):
        beta = UnitModulusNumber(Fraction(1, 17), math.sqrt(11))
        return _ls.geometric_spec(sqrt11, beta, 1.0, 0.3, 1.0, 0.2)
    if which == "fig6":
        third = math.atan2(math.sqrt(5) / 3.0, 2.0 / 3.0)
        return _ls.geometric_spec(
            UnitModulusNumber.from_angle(third), UnitModulusNumber.from_angle(-third)
        )
    raise ConfigError(f"no built-in figure {which!r}")


def approximant_points(spec: _ls.EllipticCFSpec, count: int) -> list[tuple[int, ExtendedComplex]]:
    stream = _cf.convergents(_ls.build_cf(spec))
    out = []
    for _ in range(count):
        stream.step()
        out.append((stream.n, stream.value()))
    return out


def cmd_figure(config: dict, out_dir: str | None, tol: float | None, max_n: int | None) -> int:
    if config.get("kind") != "figure":
        raise ConfigError('figure needs config kind "figure"')
    max_n = _budget(max_n if max_n is not None else 200_000)
    _require_keys(config, {"kind", "which", "count", "trim", "cf", "basename"}, "config")
    which = config.get("which", "custom")
    if which not in ("fig3", "fig4", "fig5", "fig6", "custom"):
        raise ConfigError(f"unknown figure {which!r}")
    if which == "custom":
        if "cf" not in config:
            raise ConfigError("custom figure needs a cf section")
        spec = _elliptic_spec(dict(config["cf"], kind="elliptic-cf"), "config.cf")
        count = int(config.get("count", 3000))
    else:
        spec = _builtin_fig_spec(which)
        count = int(config.get("count", FIGURE_DEFAULTS[which]))
    basename = str(config.get("basename", which if which != "custom" else "figure"))
    out = out_dir or "."
    os.makedirs(out, exist_ok=True)
    svg_path = os.path.join(out, basename + ".svg")
    csv_path = os.path.join(out, basename + ".csv")
    run_tol = tol if tol is not None else 1e-10

    report = _ls.limit_set_report(spec, tol=run_tol, max_n=max_n)

    if which == "fig6":
        trim = float(config.get("trim", 10.0))
        points = approximant_points(spec, count)
        _svg.write_csv(csv_path, [
            (n, v.z.real if not v.is_infinity else math.inf,
             v.z.imag if not v.is_infinity else math.inf) for n, v in points
        ])
        kept = [v.z.real for _, v in points if not v.is_infinity and abs(v.z) <= trim]
        dropped = len(points) - len(kept)
        edges = [(-trim) + i * (2 * trim / 80) for i in range(81)]
        counts = [0] * 80
        for v in kept:
            idx = min(int((v + trim) / (2 * trim / 80)), 79)
            counts[idx] += 1
        marker = None
        if report.concentration.kind == "points" and not report.concentration.highest.is_infinity:
            marker = report.concentration.highest.z.real
        _svg.histogram_svg(svg_path, edges, counts, marker)
        doc = {
            "figure": which, "svg": svg_path, "csv": csv_path,
            "count": count, "dropped": dropped,
            "peak_bin": [edges[counts.index(max(counts))], edges[counts.index(max(counts)) + 1]],
        }
        _emit(doc, out_dir, basename + ".json")
        return EXIT_OK

    if which == "fig5":
        pts = report.limit_points or ()
        rows = [(j, p.z.real if not p.is_infinity else math.inf,
                 p.z.imag if not p.is_infinity else math.inf) for j, p in enumerate(pts)]
        _svg.write_csv(csv_path, rows)
        drawn = _svg.scatter_svg(
            svg_path,
            [(re, im) for _, re, im in rows if math.isfinite(re)],
            geometry=report.geometry,
        )
        doc = {"figure": which, "svg": svg_path, "csv": csv_path, "points": len(rows), "drawn": drawn}
        _emit(doc, out_dir, basename + ".json")
        return EXIT_OK

    points = approximant_points(spec, count)
    rows = [
        (n, v.z.real if not v.is_infinity else math.inf,
         v.z.imag if not v.is_infinity else math.inf) for n, v in points
    ]
    _svg.write_csv(csv_path, rows)
    dots = []
    conc = report.concentration
    if conc.kind == "points":
        for p in (conc.highest, conc.lowest):
            if p is not None and not p.is_infinity:
                dots.append((p.z.real, p.z.imag))
    if report.limit_points:
        for p in report.limit_points:
            if not p.is_infinity:
                dots.append((p.z.real, p.z.imag))
    drawn = _svg.scatter_svg(
        svg_path,
        [(re, im) for _, re, im in rows if math.isfinite(re) and math.isfinite(im)],
        geometry=report.geometry,
        dots=dots,
    )
    doc = {"figure": which, "svg": svg_path, "csv": csv_path, "points": len(rows), "drawn": drawn}
    _emit(doc, out_dir, basename + ".json")
    return EXIT_OK


# --------------------------------------------------------------------------
# verify

DEFAULT_CHECKS = [
    {"name": "ramanujan-3lim", "q": 0.1, "a": 0.0, "tolerance": 1e-8},
    {"name": "rbm", "q": 0.3, "alpha": {"angle": "sqrt(2)"}, "beta": {"angle": "1.0"},
     "tolerance": 1e-10},
    {"name": "stern-stolz", "ratio": 1.0 / 3.0, "tolerance": 1e-10},
]


def _run_check(check: dict) -> list[tuple[str, float, float]]:
    name = check.get("name")
    tolerance = float(check.get("tolerance", 1e-8))
    rows = []
    if name == "ramanujan-3lim":
        _require_keys(check, {"name", "q", "a", "tolerance"}, "check")
        q = _complex_of(check.get("q", 0.1), "check.q")
        a = _complex_of(check.get("a", 0.0), "check.a")
        for j in range(3):
            run_tol = max(min(tolerance * 1e-2, 1e-10), 1e-13)
            _, _, residual = _qs.verify_ramanujan_claim(q, a, j, tol=run_tol)
            rows.append((f"ramanujan-3lim q={q.real:g} a={a.real:g} j={j}", residual, tolerance))
    elif name == "rbm":
        _require_keys(check, {"name", "q", "alpha", "beta", "tolerance"}, "check")
        q = _complex_of(check.get("q", 0.3), "check.q")
        alpha = _unit_point(check.get("alpha", {"angle": "sqrt(2)"}), "check.alpha")
        beta = _unit_point(check.get("beta", {"angle": "1.0"}), "check.beta")
        run_tol = max(min(tolerance * 1e-2, 1e-12), 1e-13)
        _, _, residual = _bm.rbm_identity(q, alpha, beta, tol=run_tol)
        rows.append((f"rbm q={q.real:g}", residual, tolerance))
    elif name == "stern-stolz":
        _require_keys(check, {"name", "ratio", "tolerance"}, "check")
        ratio = float(check.get("ratio", 1.0 / 3.0))
        spec = _ls.geometric_spec(
            UnitModulusNumber.root_of_unity(0, 1),
            UnitModulusNumber.root_of_unity(1, 2),
             1.0, ratio,
        )
        res = _ls.residue_limits(spec, tol=max(min(tolerance * 1e-2, 1e-12), 1e-13))
        det = res.A[1] * res.B[0] - res.A[0] * res.B[1]
        rows.append((f"stern-stolz ratio={ratio:g}", abs(det - 1.0), tolerance))
    else:
        raise ConfigError(f"unknown check {name!r}")
    return rows


def cmd_verify(config: dict | None, out_dir: str | None) -> int:
    checks = DEFAULT_CHECKS
    if config is not None:
        if config.get("kind") != "q-identity":
            raise ConfigError('verify needs config kind "q-identity"')
        _require_keys(config, {"kind", "checks"}, "config")
        checks = config.get("checks", DEFAULT_CHECKS)
    rows: list[tuple[str, float, float]] = []
    for check in checks:
        rows.extend(_run_check(dict(check)))
    if not rows:
        raise ConfigError("no checks selected")
    failed = [r for r in rows if not (r[1] < r[2])]
    width = max(len(r[0]) for r in rows)
    lines = []
    for label, residual, tolerance in rows:
        status = "PASS" if residual < tolerance else "FAIL"
        lines.append(f"{label.ljust(width)}  {residual:.3e}  (tol {tolerance:.1e})  {status}")
    text = "\n".join(lines)
    print(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "verify.txt"), "w", encoding="ascii", newline="\n") as fh:
            fh.write(text + "\n")
    return EXIT_VERIFY if failed else EXIT_OK


# --------------------------------------------------------------------------
# matrix-product / recurrence / rs-cf

def _matrix_of(obj: Any, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{where}: expected a matrix as list of rows")
    rows = [[_complex_of(v, where) for v in row] for row in obj]
    return np.asarray(rows, dtype=complex)


def cmd_matrix_product(config: dict, out_dir: str | None) -> int:
    if config.get("kind") != "matrix-product":
        raise ConfigError('matrix-product needs config kind "matrix-product"')
    _require_keys(config, {"kind", "mode", "m", "order", "perturbation", "tol", "side"}, "config")
    mode = config.get("mode", "cocycle")
    m = _matrix_of(config["m"], "config.m")
    pert = config.get("perturbation", {})
    _require_keys(pert, {"matrix", "ratio"}, "config.perturbation")
    e = _matrix_of(pert["matrix"], "config.perturbation.matrix")
    ratio = float(pert.get("ratio", 0.5))
    if not 0.0 <= ratio < 1.0:
        raise ConfigError("perturbation ratio must lie in [0, 1)")
    tol = float(config.get("tol", 1e-10))
    side = config.get("side", "left")
    dim = m.shape[0]
    tail = _cf.geometric_tail(_mp.entry_norm(e), ratio)
    d_seq = lambda i: m + ratio**i * e

    if mode == "residue":
        order = int(config.get("order", 0))
        if order < 1:
            raise ConfigError("residue mode needs a positive order")
        res = _mp.residue_matrix_limits(d_seq, m, order, tol, side=side, tail_bound=tail)
        doc = {
            "mode": mode, "order": order, "side": side,
            "f": _ser_matrix(res.f),
            "residue_limits": [_ser_matrix(v) for v in res.residue_limits],
            "n_blocks": res.n_blocks,
        }
    elif mode == "cocycle":
        pair = _mp.MatrixSequencePair(dim, d_seq, lambda i: m, tail, side=side)
        res = _mp.cocycle_limit(pair, tol)
        doc = {
            "mode": mode, "side": side,
            "f": _ser_matrix(res.f),
            "det_f": _ser_complex(res.det_f),
            "d_all_nonsingular": res.d_all_nonsingular,
            "n_terms": res.n_terms,
        }
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    _emit(doc, out_dir, "matrix-product.json")
    return EXIT_OK


def cmd_recurrence(config: dict, out_dir: str | None) -> int:
    if config.get("kind") != "recurrence":
        raise ConfigError('recurrence needs config kind "recurrence"')
    _require_keys(config, {"kind", "limits", "perturbations", "initial", "tol"}, "config")
    limits = [_complex_of(v, "config.limits") for v in config["limits"]]
    p = len(limits)
    perts = config.get("perturbations", [{"coefficient": 0.0, "ratio": 0.0}] * p)
    if len(perts) != p:
        raise ConfigError("one perturbation per coefficient required")
    parsed = []
    weight = 0.0
    max_ratio = 0.0
    for item in perts:
        _require_keys(item, {"coefficient", "ratio"}, "config.perturbations[]")
        coeff = _complex_of(item.get("coefficient", 0.0), "perturbation coefficient")
        ratio = float(item.get("ratio", 0.0))
        if not 0.0 <= ratio < 1.0:
            raise ConfigError("perturbation ratio must lie in [0, 1)")
        parsed.append((coeff, ratio))
        weight += abs(coeff)
        max_ratio = max(max_ratio, ratio)
    initial = [_complex_of(v, "config.initial") for v in config.get("initial", [])]
    if len(initial) != p:
        raise ConfigError(f"need {p} initial values")
    tol = float(config.get("tol", 1e-10))

    def coefficients(n: int):
        return [limits[r] + parsed[r][0] * parsed[r][1] ** n for r in range(p)]

    # With every ratio 0 no bound is passed: a zero bound would stop at once.
    tail = _cf.geometric_tail(weight, max_ratio) if max_ratio else None
    rec = _rc.PoincareRecurrence.build(coefficients, limits, tail_bound=tail)
    result = _rc.asymptotic_coefficients(rec, initial, tol)
    doc = {
        "roots": [_ser_complex(r.value) for r in rec.roots],
        "c": [_ser_complex(v) for v in result.c],
        "residual": result.residual,
        "residual_interval": list(result.residual_interval),
        "n_terms": result.n_terms,
    }
    _emit(doc, out_dir, "recurrence.json")
    return EXIT_OK


def cmd_rs_cf(config: dict, out_dir: str | None) -> int:
    if config.get("kind") != "rs-cf":
        raise ConfigError('rs-cf needs config kind "rs-cf"')
    _require_keys(config, {"kind", "r", "s", "theta_limit", "perturbation", "k_max", "tol"}, "config")
    r = int(config.get("r", 1))
    s = int(config.get("s", 1))
    theta = _matrix_of(config["theta_limit"], "config.theta_limit")
    pert = config.get("perturbation", {})
    _require_keys(pert, {"matrix", "ratio"}, "config.perturbation")
    e = _matrix_of(pert["matrix"], "config.perturbation.matrix")
    ratio = float(pert.get("ratio", 0.5))
    if not 0.0 <= ratio < 1.0:
        raise ConfigError("perturbation ratio must lie in [0, 1)")
    k_max = int(config.get("k_max", 60))
    tol = float(config.get("tol", 1e-10))
    system = _rs.RSSystem(
        r, s,
        lambda k: theta + ratio**k * e,
        theta_limit=theta,
        tail_bound=_cf.geometric_tail(_mp.entry_norm(e), ratio),
    )
    asym = _rs.rs_asymptotics(system, tol)
    samples = []
    for k, sk in _rs.rs_approximants(system, k_max):
        if k < k_max - 4:
            continue
        predicted = asym.predictor(k)
        samples.append({
            "k": k,
            "approximant": None if sk is None else _ser_matrix(sk),
            "predicted": _ser_matrix(predicted),
            "error": None if sk is None else float(np.max(np.abs(sk - predicted))),
        })
    doc = {
        "f": _ser_matrix(asym.f_matrix),
        "n_terms": asym.n_terms,
        "samples": samples,
    }
    _emit(doc, out_dir, "rs-cf.json")
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cflimits",
        description="Limit sets of divergent continued fractions and their relatives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("limit-set", "figure", "verify", "matrix-product", "recurrence", "rs-cf"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON experiment config",
                       required=name not in ("verify",))
        p.add_argument("--out", help="directory for emitted files")
        if name in ("limit-set", "figure"):
            p.add_argument("--tol", type=float, default=None)
            p.add_argument("--max-n", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else None
        if args.command == "limit-set":
            return cmd_limit_set(config, args.out, args.tol, args.max_n)
        if args.command == "figure":
            return cmd_figure(config, args.out, args.tol, args.max_n)
        if args.command == "verify":
            return cmd_verify(config, args.out)
        if args.command == "matrix-product":
            return cmd_matrix_product(config, args.out)
        if args.command == "recurrence":
            return cmd_recurrence(config, args.out)
        if args.command == "rs-cf":
            return cmd_rs_cf(config, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ValueError) as exc:  # ValueError: out-of-range numbers, e.g. tol <= 0
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoConvergenceError as exc:
        print(f"numeric budget exhausted: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CFLimitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
