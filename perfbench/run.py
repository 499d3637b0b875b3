"""cflimits benchmark: seeded workloads checked against independent references.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fast-tail --seed 1 --seconds 22 --trace 0

Workloads (see workloads.py for the generators and why each exists):
fast-tail, slow-tail, finite-order, cli.

The program is imported from ``src/`` of the checkout, nothing else.  The
problems are generated from the seed and their reference answers computed
before timing starts.  The run then solves the whole problem list in
passes, one process and no extra threads, and starts another pass only
while the previous pass would still finish within ``--seconds``; at least
one pass always runs.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics:
the median and 90th percentile over problems of each problem's solve time
(the upper quartile of its repeats across passes, see ``upper_quartile``),
problems per second of a pass (same quartile of pass times), the worst
error divided by the requested tol (from the first pass), the import time
of cflimits in a fresh interpreter (median of several), and the peak
resident set (of the CLI subprocesses for the cli workload).

With ``--trace 1`` untraced passes alternate with traced passes, in which
every layer is wrapped (tracing.py); the last line holds per-layer calls
and self time per traced pass, work counts, and the tracing overhead: the
traced pass time minus the untraced one (same quartile).

A host-speed record (a fixed pure-Python loop timed at start and end), the
interpreter, numpy version, core count and pass counts go to the line
before the result and to ``perfbench/out/``.  Exit code 2 means the
checkout holds no cflimits sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread, here and in every child process, before numpy loads.
BLAS_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402  (after the BLAS settings above)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Fresh interpreters timed for setup_s (after one untimed warm-up).
SETUP_REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import cflimits; print(time.perf_counter() - t)"


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a record of host speed, not a metric."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict) -> tuple[float, list[float]]:
    samples = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            samples.append(float(proc.stdout.strip()))
    return statistics.median(samples), samples


def canonical(value):
    """Answers as nested tuples of floats, so repeated passes compare bit for bit."""
    if isinstance(value, dict):
        return tuple((k, canonical(v)) for k, v in sorted(value.items(), key=lambda kv: str(kv[0])))
    if isinstance(value, np.ndarray):
        return canonical(value.tolist())
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    if isinstance(value, float):
        return value.hex()
    return value


class Record:
    """Timings of every pass, answers of the first, and where later passes differ.

    Only the first pass's answers are kept, so memory does not grow with
    the number of passes (the peak resident set is a metric).
    """

    def __init__(self):
        self.times: list[list[float]] = []
        self.answers = None
        self._canonical = None
        self.failed = 0
        self.differs: set[int] = set()

    def add(self, times, answers) -> None:
        self.times.append(times)
        self.failed += sum(isinstance(a, Exception) for a in answers)
        canon = [None if isinstance(a, Exception) else canonical(a) for a in answers]
        if self.answers is None:
            self.answers, self._canonical = answers, canon
        else:
            self.differs.update(pid for pid, c in enumerate(canon) if c != self._canonical[pid])


def run_pass(workloads, problems, ctx, record: Record, tracer=None) -> float:
    """Solve every problem once into ``record``; returns the pass's wall seconds."""
    times, answers = [], []
    start = perf_counter()
    for pid, (kind, params) in enumerate(problems):
        if tracer is not None:
            tracer.problem = pid
        t0 = perf_counter()
        try:
            answer = workloads.solve(kind, params, ctx)
        except Exception as exc:  # a failed solve is counted, not fatal
            answer = exc
        times.append(perf_counter() - t0)
        answers.append(answer)
    duration = perf_counter() - start
    record.add(times, answers)
    return duration


def judge(workloads, problems, refs, record: Record):
    """(worst err/tol, failure notes, correctness notes) of the recorded answers."""
    worst = 0.0
    failures, wrong = [], []
    for pid, ((kind, params), ref, answer) in enumerate(zip(problems, refs, record.answers)):
        if isinstance(answer, Exception):
            failures.append(f"problem {pid} ({kind}): {type(answer).__name__}: {answer}")
            continue
        verdict = workloads.Verdict()
        workloads.KINDS[kind][2](answer, ref, params, verdict)
        worst = max(worst, verdict.err_over_tol)
        wrong += [f"problem {pid} ({kind}): {e}" for e in verdict.errors]
    wrong += [f"problem {pid}: answer differs between passes" for pid in sorted(record.differs)]
    return worst, failures, wrong


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def upper_quartile(repeats: list[float]) -> float:
    """The time a repeated measurement is typically not slower than.

    The host's speed switches between a fast and a slow state, for seconds
    to minutes at a time.  The median of repeats jumps between the two
    states when a run splits evenly, and the fastest repeat depends on
    whether a fast spell happened at all; the upper quartile tracks the
    slow state, which holds in most of every run, and drifts least.
    """
    if len(repeats) == 1:
        return repeats[0]
    return statistics.quantiles(repeats, n=4, method="inclusive")[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cflimits" / "__init__.py").is_file():
        print(f"perfbench: no cflimits sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    calibration_start = calibrate()

    import cflimits
    import tracing
    import workloads

    if Path(cflimits.__file__).resolve().parent != SRC / "cflimits":
        print(f"perfbench: imported cflimits from {cflimits.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    env = child_env()
    problems = workloads.generate(args.workload, args.seed)
    refs = [workloads.KINDS[kind][1](params) for kind, params in problems]
    ctx = workloads.CliContext(str(ROOT), str(OUT / f"cli-{args.workload}"), env)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "python": sys.version.split()[0], "numpy": np.__version__, "nproc": os.cpu_count(),
            "problems": len(problems)}

    metrics: dict[str, dict] = {}
    record = Record()
    if args.trace == 0:
        setup_s, setup_samples = measure_setup(env)
        durations, elapsed = [], 0.0
        while elapsed + (durations[-1] if durations else 0.0) <= args.seconds:
            durations.append(run_pass(workloads, problems, ctx, record))
            elapsed += durations[-1]
        typical = [upper_quartile(column) for column in zip(*record.times)]
        p90 = percentile(typical, 90)
        rusage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics = {
            "solve_ms.p50": {"value": 1e3 * statistics.median(typical), "unit": "ms"},
            "solve_ms.p90": {"value": 1e3 * p90, "unit": "ms"},
            "solves_per_s": {"value": len(problems) / upper_quartile(durations), "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(rusage).ru_maxrss / 1024.0, "unit": "MB"},
        }
        info.update(setup_samples=setup_samples, problems_beyond_p90=sum(t > p90 for t in typical),
                    solve_s=record.times)
    else:
        # Untraced and traced passes alternate, so both are equally warm;
        # cli.main is traced in-process, so its untraced passes run there too.
        ctx.in_process = True
        tracer = tracing.Tracer()
        untraced, traced = [], []
        while not untraced or sum(untraced) + sum(traced) + untraced[-1] + traced[-1] <= args.seconds:
            untraced.append(run_pass(workloads, problems, ctx, record))
            tracer.install()
            try:
                traced.append(run_pass(workloads, problems, ctx, record, tracer))
            finally:
                tracer.uninstall()
        n = len(traced)
        for label, (calls, self_s) in tracer.layer_totals().items():
            metrics[f"{label}.calls"] = {"value": calls / n, "unit": "count"}
            metrics[f"{label}.self_s"] = {"value": self_s / n, "unit": "s"}
        for label, value in tracer.counters.items():
            metrics[label] = {"value": value / n, "unit": "bytes" if label.endswith("bytes_written") else "count"}
        metrics["stop.tail_bound_share"] = {"value": tracer.tail_bound_share(), "unit": "ratio"}
        overhead = upper_quartile(traced) - upper_quartile(untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_share"] = {"value": overhead / upper_quartile(untraced), "unit": "ratio"}
        trace_path = OUT / f"trace-{args.workload}.npz"
        tracer.write(str(trace_path))
        info.update(traced_passes=n, spans=len(tracer), trace_file=str(trace_path.relative_to(ROOT)),
                    untraced_pass_s=untraced, traced_pass_s=traced)

    worst, failures, wrong = judge(workloads, problems, refs, record)
    if args.trace == 0:
        metrics["err_over_tol.max"] = {"value": worst, "unit": "ratio"}
    attempted = sum(len(times) for times in record.times)
    info.update(passes=len(record.times), err_over_tol_max=worst, failures=failures, wrong=wrong,
                calibration_s=[calibration_start, calibrate()])
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "metrics": metrics}, indent=1) + "\n")
    print(json.dumps({"run": {k: v for k, v in info.items() if k != "solve_s"}}))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": record.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
