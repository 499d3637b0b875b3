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

from ._numpy import np
from . import bauermuir as _bm
from . import cf as _cf
from . import limitset as _ls
from . import matprod as _mp
from . import qseries as _qs
from . import recur as _rc
from . import rsmatrix as _rs
from . import svgfig as _svg
from .errors import CFLimitsError, ConfigError, NoConvergenceError
from .sphere import Circle, ExtendedComplex
from .limitset import UnitModulusNumber

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4
EXIT_VERIFY = 5


# --------------------------------------------------------------------------
# config parsing

def _require_keys(obj: Any, allowed: set[str], where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown fields {sorted(unknown)} in {where}")
    return obj


def _field(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise ConfigError(f"{where}: missing field {key!r}")
    return obj[key]


def _list(obj: dict, key: str, where: str, default: list | None = None) -> list:
    """A list-typed field; required unless a default is given."""
    value = _field(obj, key, where) if default is None else obj.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"{where}.{key} must be a list, got {value!r}")
    return value


def _number(obj: dict, key: str, where: str, default: Any, kind: type) -> Any:
    """A scalar field read by ``kind`` (float or int); required when the default is None.

    Booleans are rejected, and so is a non-integral value for an int field.
    """
    value = _field(obj, key, where) if default is None else obj.get(key, default)
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: int(inf), float(10**400)
        raise ConfigError(f"{where}.{key}: expected {kind.__name__}, got {value!r}") from exc
    if isinstance(value, bool) or (kind is int and isinstance(value, float) and number != value):
        raise ConfigError(f"{where}.{key}: expected {kind.__name__}, got {value!r}")
    return number


def _complex_of(value: Any, where: str) -> complex:
    if isinstance(value, list) and len(value) == 2:
        parts = {"re": value[0], "im": value[1]}
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        parts = {"re": value, "im": 0.0}
    else:
        raise ConfigError(f"{where}: expected number or [re, im], got {value!r}")
    z = complex(_number(parts, "re", where, None, float), _number(parts, "im", where, None, float))
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ConfigError(f"{where}: expected finite parts, got {value!r}")
    return z


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
            pair = [_number({"root": v}, "root", where, None, int) for v in _list(obj, "root", where)]
            if len(pair) != 2 or pair[1] == 0:
                raise ConfigError(f"{where}.root must be [num, den] with den != 0, got {obj['root']!r}")
            return UnitModulusNumber.root_of_unity(*pair)
        if "angle" in obj:
            return parse_angle_expression(str(obj["angle"]))
    raise ConfigError(f'{where}: expected {{"root": [num, den]}} or {{"angle": "..."}}')


def _sequence(obj: Any, where: str) -> _cf.TailedSequence:
    """Sequence descriptor -> ``cf``'s (generator, tail bound on sum of |values|)."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError(f"{where}: expected a sequence descriptor object")
    kind = obj["type"]
    try:  # the cf constructors check the ranges; the message names the field
        if kind == "zero":
            _require_keys(obj, {"type"}, where)
            return _cf.geometric_sequence(0.0, 0.0)
        if kind == "geometric":
            _require_keys(obj, {"type", "coefficient", "ratio"}, where)
            coeff = _complex_of(obj.get("coefficient", 1.0), f"{where}.coefficient")
            return _cf.geometric_sequence(coeff, _number(obj, "ratio", where, None, float))
        if kind == "poly-qn":
            _require_keys(obj, {"type", "q", "coefficients"}, where)
            q = _complex_of(_field(obj, "q", where), f"{where}.q")
            coeffs = [_complex_of(c, f"{where}.coefficients") for c in _list(obj, "coefficients", where)]
            return _cf.poly_qn_sequence(coeffs, q)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}.type must be zero | geometric | poly-qn, got {kind!r}")


#: The fields that define an elliptic-type fraction (limit-set config, custom figure cf).
ELLIPTIC_FIELDS = {"alpha", "beta", "p", "q"}


def _elliptic_spec(obj: dict, where: str) -> _ls.EllipticCFSpec:
    alpha, beta, p, q = [_field(obj, key, where) for key in ("alpha", "beta", "p", "q")]
    alpha = _unit_point(alpha, f"{where}.alpha")
    beta = _unit_point(beta, f"{where}.beta")
    (p_gen, p_tail), (q_gen, q_tail) = _sequence(p, f"{where}.p"), _sequence(q, f"{where}.q")
    return _ls.EllipticCFSpec(alpha, beta, p_gen, q_gen, lambda n: p_tail(n) + q_tail(n))


def _matrix_of(obj: Any, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) and len(r) == len(obj) for r in obj):
        raise ConfigError(f"{where}: expected a square matrix as list of rows")
    rows = [[_complex_of(v, where) for v in row] for row in obj]
    return np.asarray(rows, dtype=complex)


def _matrix_perturbation(
    config: dict, limit: np.ndarray
) -> tuple[Callable[[int], np.ndarray], Callable[[int], float]]:
    """config.perturbation {matrix, ratio} -> (k -> limit + ratio**k * E, geometric tail)."""
    pert = _require_keys(config.get("perturbation", {}), {"matrix", "ratio"}, "config.perturbation")
    e = _matrix_of(_field(pert, "matrix", "config.perturbation"), "config.perturbation.matrix")
    if e.shape != limit.shape:
        raise ConfigError(f"config.perturbation.matrix must have the limit's shape {limit.shape}, got {e.shape}")
    ratio = _number(pert, "ratio", "config.perturbation", 0.5, float)
    try:  # cf checks the range; the message names the field
        tail = _cf.geometric_tail(_mp.entry_norm(e), ratio)
    except ValueError as exc:
        raise ConfigError(f"config.perturbation: {exc}") from exc
    return (lambda k: limit + ratio**k * e), tail


def _budget(max_n: int) -> int:
    if max_n < 1:
        raise ConfigError(f"max_n must be at least 1, got {max_n}")
    return max_n


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top-level value must be an object")
    return obj


# --------------------------------------------------------------------------
# serialization

def _ser_complex(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _ser_point(p: ExtendedComplex | None) -> Any:
    return None if p is None else "inf" if p.is_infinity else _ser_complex(p.z)


def _ser_geometry(g) -> dict:
    if isinstance(g, Circle):
        return {"type": "circle", "center": _ser_complex(g.center), "radius": g.radius}
    return {"type": "line", "point": _ser_complex(g.point), "direction": _ser_complex(g.direction)}


def _ser_matrix(m: np.ndarray) -> list:
    return [[_ser_complex(complex(v)) for v in row] for row in np.asarray(m)]


def _emit(report: dict | str, out_dir: str | None, name: str) -> None:
    """Print a report (JSON unless already text) and write it to out_dir/name."""
    text = report if isinstance(report, str) else json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w", encoding="ascii", newline="\n") as fh:
            fh.write(text + "\n")


# --------------------------------------------------------------------------
# limit-set

def cmd_limit_set(config: dict, args: argparse.Namespace) -> int:
    spec = _elliptic_spec(config, "config")
    tol = args.tol if args.tol is not None else _number(config, "tol", "config", 1e-10, float)
    max_n = args.max_n if args.max_n is not None else _number(config, "max_n", "config", 200_000, int)
    report = _ls.limit_set_report(spec, tol, _budget(max_n))
    doc = {
        "h": {k: _ser_complex(getattr(report.h, k)) for k in "abcd"},
        "m": report.m,
        "rank": report.m,
        "geometry": _ser_geometry(report.geometry),
        "concentration": {
            "kind": report.concentration.kind,
            "highest": _ser_point(report.concentration.highest),
            "lowest": _ser_point(report.concentration.lowest),
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
        },
        "suspicious_order": report.suspicious_order,
        "n_terms": report.n_terms,
    }
    _emit(doc, args.out, "limit-set.json")
    return EXIT_OK


# --------------------------------------------------------------------------
# figures

#: Default point count per figure (fig5 draws its limit points, not a count).
FIGURE_DEFAULTS = {
    "fig3": 3000,
    "fig4": 3000,
    "fig5": 17,
    "fig6": 1200,
    "custom": 3000,
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
    raise ConfigError(f"unknown figure {which!r}")


def approximant_points(spec: _ls.EllipticCFSpec, count: int) -> list[tuple[int, ExtendedComplex]]:
    stream = _cf.convergents(_ls.build_cf(spec))
    out = []
    for _ in range(count):
        stream.step()
        out.append((stream.n, stream.value()))
    return out


def _csv_rows(points) -> list[tuple[int, float, float]]:
    """(n, point) pairs -> (n, re, im) CSV rows, with inf for the point at infinity."""
    return [(n, math.inf, math.inf) if v.is_infinity else (n, v.z.real, v.z.imag) for n, v in points]


def cmd_figure(config: dict, args: argparse.Namespace) -> int:
    max_n = _budget(args.max_n if args.max_n is not None else 200_000)
    which = config.get("which", "custom")
    if which == "custom":
        cf = _require_keys(_field(config, "cf", "custom figure"), ELLIPTIC_FIELDS, "config.cf")
        spec = _elliptic_spec(cf, "config.cf")
    else:
        spec = _builtin_fig_spec(which)
    count = _number(config, "count", "config", FIGURE_DEFAULTS[which], int)
    if count < 0:
        raise ConfigError(f"config.count must be at least 0, got {count}")
    trim = _number(config, "trim", "config", 10.0, float)
    if not 0.0 < trim < math.inf:
        raise ConfigError(f"config.trim must be positive and finite, got {trim!r}")
    basename = str(config.get("basename", which if which != "custom" else "figure"))
    report = _ls.limit_set_report(spec, tol=args.tol if args.tol is not None else 1e-10, max_n=max_n)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)  # only once the inputs have passed
    svg_path = os.path.join(out, basename + ".svg")
    csv_path = os.path.join(out, basename + ".csv")
    doc = {"figure": which, "svg": svg_path, "csv": csv_path}

    conc = report.concentration
    if which == "fig6":
        points = approximant_points(spec, count)
        _svg.write_csv(csv_path, _csv_rows(points))
        kept = [v.z.real for _, v in points if not v.is_infinity and abs(v.z) <= trim]
        edges = [(-trim) + i * (2 * trim / 80) for i in range(81)]
        counts = [0] * 80
        for v in kept:
            idx = min(int((v + trim) / (2 * trim / 80)), 79)
            counts[idx] += 1
        marker = None
        if conc.kind == "points" and not conc.highest.is_infinity:
            marker = conc.highest.z.real
        _svg.histogram_svg(svg_path, edges, counts, marker)
        peak = counts.index(max(counts))
        doc.update(count=count, dropped=len(points) - len(kept), peak_bin=[edges[peak], edges[peak + 1]])
    else:
        # fig5 draws the predicted limit points; the others draw approximants
        # with the concentration and limit points as marker dots.
        if which == "fig5":
            points, marked = enumerate(report.limit_points or ()), ()
        else:
            points = approximant_points(spec, count)
            marked = (conc.highest, conc.lowest) if conc.kind == "points" else ()
            marked += report.limit_points or ()
        rows = _csv_rows(points)
        _svg.write_csv(csv_path, rows)
        drawn = _svg.scatter_svg(
            svg_path,
            [(re, im) for _, re, im in rows if math.isfinite(re)],  # finite points have finite parts
            geometry=report.geometry,
            dots=[(p.z.real, p.z.imag) for p in marked if p is not None and not p.is_infinity],
        )
        doc.update(points=len(rows), drawn=drawn)
    _emit(doc, args.out, basename + ".json")
    return EXIT_OK


# --------------------------------------------------------------------------
# verify

#: Each check at the default parameters that _run_check fills in.
DEFAULT_CHECKS = [
    {"name": "ramanujan-3lim", "tolerance": 1e-8},
    {"name": "rbm", "tolerance": 1e-10},
    {"name": "stern-stolz", "tolerance": 1e-10},
]


def _run_check(check: Any) -> list[tuple[str, float, float]]:
    if not isinstance(check, dict):
        raise ConfigError(f"config.checks: expected objects, got {check!r}")
    name = check.get("name")
    tolerance = _number(check, "tolerance", "check", 1e-8, float)
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
        ratio = _number(check, "ratio", "check", 1.0 / 3.0, float)
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


def cmd_verify(config: dict | None, args: argparse.Namespace) -> int:
    checks = DEFAULT_CHECKS if config is None else _list(config, "checks", "config", DEFAULT_CHECKS)
    rows = [row for check in checks for row in _run_check(check)]
    if not rows:
        raise ConfigError("no checks selected")
    width = max(len(r[0]) for r in rows)
    lines = []
    for label, residual, tolerance in rows:
        status = "PASS" if residual < tolerance else "FAIL"
        lines.append(f"{label.ljust(width)}  {residual:.3e}  (tol {tolerance:.1e})  {status}")
    _emit("\n".join(lines), args.out, "verify.txt")
    return EXIT_OK if all(residual < tolerance for _, residual, tolerance in rows) else EXIT_VERIFY


# --------------------------------------------------------------------------
# matrix-product / recurrence / rs-cf

def cmd_matrix_product(config: dict, args: argparse.Namespace) -> int:
    mode = config.get("mode", "cocycle")
    m = _matrix_of(_field(config, "m", "config"), "config.m")
    d_seq, tail = _matrix_perturbation(config, m)
    tol = _number(config, "tol", "config", 1e-10, float)
    side = config.get("side", "left")

    if mode == "residue":
        order = _number(config, "order", "config", 0, int)
        res = _mp.residue_matrix_limits(d_seq, m, order, tol, side=side, tail_bound=tail)
        doc = {
            "mode": mode, "order": order, "side": side,
            "f": _ser_matrix(res.f),
            "residue_limits": [_ser_matrix(v) for v in res.residue_limits],
            "n_blocks": res.n_blocks,
        }
    elif mode == "cocycle":
        pair = _mp.MatrixSequencePair(m.shape[0], d_seq, lambda i: m, tail, side=side)
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
    _emit(doc, args.out, "matrix-product.json")
    return EXIT_OK


def cmd_recurrence(config: dict, args: argparse.Namespace) -> int:
    limits = [_complex_of(v, "config.limits") for v in _list(config, "limits", "config")]
    p = len(limits)
    perts = _list(config, "perturbations", "config", [{"coefficient": 0.0, "ratio": 0.0}] * p)
    if len(perts) != p:
        raise ConfigError("one perturbation per coefficient required")
    rows = []
    for item in perts:
        _require_keys(item, {"coefficient", "ratio"}, "config.perturbations[]")
        coeff = _complex_of(item.get("coefficient", 0.0), "perturbation coefficient")
        ratio = _number(item, "ratio", "config.perturbations[]", 0.0, float)
        try:
            rows.append(_cf.geometric_sequence(coeff, ratio))
        except ValueError as exc:
            raise ConfigError(f"config.perturbations[]: {exc}") from exc
    initial = [_complex_of(v, "config.initial") for v in _list(config, "initial", "config", [])]
    if len(initial) != p:
        raise ConfigError(f"need {p} initial values")
    tol = _number(config, "tol", "config", 1e-10, float)

    def coefficients(n: int):
        return [limit + gen(n) for limit, (gen, _) in zip(limits, rows)]

    tail = lambda n: sum(row_tail(n) for _, row_tail in rows)
    rec = _rc.PoincareRecurrence.build(coefficients, limits, tail_bound=tail)
    result = _rc.asymptotic_coefficients(rec, initial, tol)
    doc = {
        "roots": [_ser_complex(r.value) for r in rec.roots],
        "c": [_ser_complex(v) for v in result.c],
        "residual": result.residual,
        "residual_interval": list(result.residual_interval),
        "n_terms": result.n_terms,
    }
    _emit(doc, args.out, "recurrence.json")
    return EXIT_OK


def cmd_rs_cf(config: dict, args: argparse.Namespace) -> int:
    r = _number(config, "r", "config", 1, int)
    s = _number(config, "s", "config", 1, int)
    theta = _matrix_of(_field(config, "theta_limit", "config"), "config.theta_limit")
    theta_seq, tail = _matrix_perturbation(config, theta)
    k_max = _number(config, "k_max", "config", 60, int)
    tol = _number(config, "tol", "config", 1e-10, float)
    system = _rs.RSSystem(r, s, theta_seq, theta_limit=theta, tail_bound=tail)
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
            "error": None if sk is None else _mp.entry_norm(sk - predicted),
        })
    doc = {
        "f": _ser_matrix(asym.f_matrix),
        "n_terms": asym.n_terms,
        "samples": samples,
    }
    _emit(doc, args.out, "rs-cf.json")
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point

#: subcommand -> (config kind, top-level fields besides "kind", runner,
#: whether it takes --tol/--max-n).  Only verify runs without a config.
COMMANDS: dict[str, tuple[str, set[str], Callable[[Any, argparse.Namespace], int], bool]] = {
    "limit-set": ("elliptic-cf", ELLIPTIC_FIELDS | {"tol", "max_n"}, cmd_limit_set, True),
    "figure": ("figure", {"which", "count", "trim", "cf", "basename"}, cmd_figure, True),
    "verify": ("q-identity", {"checks"}, cmd_verify, False),
    "matrix-product": ("matrix-product", {"mode", "m", "order", "perturbation", "tol", "side"},
                       cmd_matrix_product, False),
    "recurrence": ("recurrence", {"limits", "perturbations", "initial", "tol"}, cmd_recurrence, False),
    "rs-cf": ("rs-cf", {"r", "s", "theta_limit", "perturbation", "k_max", "tol"}, cmd_rs_cf, False),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cflimits",
        description="Limit sets of divergent continued fractions and their relatives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, _, budget_flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON experiment config",
                       required=name != "verify")
        p.add_argument("--out", help="directory for emitted files")
        if budget_flags:
            p.add_argument("--tol", type=float, default=None)
            p.add_argument("--max-n", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    kind, fields, run, _ = COMMANDS[args.command]
    try:
        config = None
        if args.config:
            config = load_config(args.config)
            if config.get("kind") != kind:
                raise ConfigError(f'{args.command} needs config kind "{kind}"')
            _require_keys(config, fields | {"kind"}, "config")
        return run(config, args)
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
