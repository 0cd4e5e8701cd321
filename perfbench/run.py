#!/usr/bin/env python3
"""Benchmark of the qetkd simulator, driven through its public entry points.

    python3 perfbench/run.py --workload star-scale --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) in this process for about
``--seconds`` seconds of full passes and checks every output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced passes with passes that run under span wrappers
around each layer's public functions, and reports the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the run record and a readable report.  Outputs go to
``.perfbench_work/`` in the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench_work")
SETUP_REPS = 5
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the BLAS thread count is fixed)

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "solve_s": "s",
    "rounds_per_s": "1/s", "haar_round_ms": "ms",
}
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import qetkd.cli; "
                 "print(time.perf_counter() - t)")


def summarize(samples: list[float]) -> dict:
    """Median and sample count, plus the highest of p90/p99/p99.9 that has at
    least ten samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    for q in (99.9, 99.0, 90.0):
        if len(samples) * (100.0 - q) >= 1000.0 - 1e-9:
            out[f"p{q:g}"] = float(np.percentile(samples, q))
            break
    return out


def digest(art: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(art):
        h.update(name.encode() + b"\0" + len(art[name]).to_bytes(8, "little"))
        h.update(art[name])
    return h.hexdigest()


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def _save_json(path: Path, data: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
    tmp.replace(path)


class StarOracle:
    """Oracle (E_A, E_B) per star size, cached on disk by the oracle source digest."""

    def __init__(self, path: Path):
        self.path = path
        source = ROOT / "tests" / "oracles.py"
        self.key = hashlib.sha256(source.read_bytes()).hexdigest() \
            if source.exists() else None
        self.values = _load_json(path)

    def __call__(self, n_parties: int) -> tuple[float, float]:
        key = f"{self.key}/star{n_parties}"
        if key not in self.values:
            self.values[key] = list(wl.star_oracle(n_parties))
            _save_json(self.path, self.values)
        return tuple(self.values[key])


class Ledger:
    """Outcome of every op run: output hashes against earlier passes and runs,
    and the check verdict per distinct output."""

    def __init__(self, workload: str, seed: int, src_digest: str):
        self.prefix = f"{src_digest[:16]}/{workload}/{seed}/"
        self.store_path = WORK / "hashes.json"
        self.stored = _load_json(self.store_path)
        self.seen: dict[str, str] = {}
        self.pending: list[tuple[wl.Op, dict[str, bytes] | None, str | None]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, list[str]] = {}

    def record(self, op: wl.Op, art: dict[str, bytes] | None, error: str | None) -> None:
        self.pending.append((op, art, error))

    def settle(self) -> None:
        """Hash and check everything recorded so far (kept out of timed code)."""
        verdicts: dict[str, list[str]] = {}
        for op, art, error in self.pending:
            self.attempted += 1
            problems = [error] if error else []
            if art is not None:
                h = digest(art)
                key = self.prefix + op.name
                ref = self.seen.setdefault(op.name, self.stored.get(key, h))
                self.stored.setdefault(key, h)
                if h != ref:
                    problems.append("output bytes differ from an earlier pass or run")
                if h not in verdicts:
                    try:
                        verdicts[h] = op.check(art)
                    except Exception as exc:  # a malformed output is a failed op
                        verdicts[h] = [f"check raised {exc!r}"]
                problems += verdicts[h]
            if problems:
                self.failed += 1
                self.problems.setdefault(op.name, problems)
        self.pending.clear()
        _save_json(self.store_path, self.stored)


def run_op(op: wl.Op) -> tuple[float, object, str | None]:
    start = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # an op that raises is counted as failed
        result, error = None, "raised " + "".join(
            traceback.format_exception_only(type(exc), exc)).strip()
    return time.perf_counter() - start, result, error


def collect(op: wl.Op, result, error: str | None,
            ledger: Ledger) -> dict[str, bytes] | None:
    art = None
    if error is None:
        try:
            art = op.collect(result)
        except OSError as exc:
            error = f"output unreadable: {exc!r}"
    ledger.record(op, art, error)
    return art


def run_pass(workload: wl.Workload, ledger: Ledger) -> dict:
    """One timed pass over every op; outputs are collected after the clock stops."""
    runs = []
    start = time.perf_counter()
    for op in workload.ops:
        runs.append(run_op(op))
    wall = time.perf_counter() - start
    out_bytes = 0
    for op, (_, result, error) in zip(workload.ops, runs):
        art = collect(op, result, error, ledger)
        if op.argv and art:
            out_bytes += sum(len(v) for k, v in art.items() if k != "code")
    times = [t for t, _, _ in runs]
    return {"wall": wall, "out_bytes": out_bytes,
            "times": dict(zip((op.name for op in workload.ops), times)),
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def pass_metrics(workload: wl.Workload, p: dict) -> dict[str, float]:
    ops, times = workload.ops, p["times"]
    rounds = sum(op.rounds for op in ops)
    round_time = sum(times[op.name] for op in ops if op.rounds)
    haar = [op for op in ops if op.haar]
    if haar:
        haar_ms = 1000.0 * sum(times[op.name] for op in haar) / sum(op.rounds for op in haar)
    else:  # no op re-prepares per round: mean cost of one round unit
        haar_ms = 1000.0 * round_time / rounds
    return {
        "wall_s": p["wall"],
        "solve_s": sum(times[op.name] for op in ops if op.solve),
        "rounds_per_s": rounds / round_time,
        "haar_round_ms": haar_ms,
    }


def import_seconds() -> float:
    """Import time of qetkd in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip())


def setup(name: str, seed: int, ledger: Ledger, oracle: StarOracle,
          coupling_fn, bisection_tol: float,
          known_failures: bool) -> tuple[float, wl.Workload]:
    """Import, input generation, default-coupling search and one warm-up op."""
    t_import = import_seconds()
    start = time.perf_counter()
    workload = wl.build(name, seed, str(WORK / "out" / name), oracle=oracle,
                        bisection_tol=bisection_tol, known_failures=known_failures)
    if workload.needs_default_coupling:
        coupling_fn.cache_clear()
        coupling_fn()
    _, result, error = run_op(workload.warmup)
    elapsed = time.perf_counter() - start
    collect(workload.warmup, result, error, ledger)
    return t_import + elapsed, workload


def passes_for(seconds: float, workload: wl.Workload, ledger: Ledger) -> list[dict]:
    """Full passes until ``seconds`` have elapsed (at least one)."""
    out = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start < seconds:
        out.append(run_pass(workload, ledger))
    return out


def src_digest() -> str:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qetkd").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return src.hexdigest()


def record(args, passes: dict, workload: wl.Workload) -> dict:
    """Everything needed to reproduce or compare this run."""
    head = None
    git_head = ROOT / ".git" / "HEAD"
    if git_head.exists():
        ref = git_head.read_text().strip()
        ref_path = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        head = ref_path.read_text().strip() if ref_path and ref_path.exists() else ref
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": head, "src_sha256": src_digest(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy_version, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "nproc": NPROC,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "ops": len(workload.ops),
        "inputs": workload.info,
    }


Report = dict[str, tuple[dict, str]]  # metric -> (summary, unit)


def end_to_end_report(workload: wl.Workload, setups: list[float],
                      plain: list[dict]) -> Report:
    per_pass = [pass_metrics(workload, p) for p in plain]
    report = {"setup_s": (summarize(setups), "s")}
    for name in ("wall_s", "solve_s", "rounds_per_s", "haar_round_ms"):
        report[name] = (summarize([m[name] for m in per_pass]), END_TO_END[name])
    # After the first pass: later passes add only allocator fragmentation.
    report["peak_rss_mb"] = ({"median": plain[0]["rss_mb"], "n": 1}, "MB")
    return report


def per_layer_report(workload: wl.Workload, seconds: float, ledger: Ledger,
                     noise, coupling_fn) -> tuple[Report, list[dict], list[dict]]:
    """Untraced and traced passes, alternating so that drift cancels in
    ``trace.overhead``; medians of the per-pass layer metrics."""
    tracer = tr.Tracer()
    if workload.needs_default_coupling:
        coupling_fn.cache_clear()
        with tracer.installed():
            noise.default_chain_coupling()  # the traced copy of the setup search
    setup_layers = tr.aggregate(tracer.take())

    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_pass(workload, ledger))
        with tracer.installed():
            traced.append(run_pass(workload, ledger))
        spans = tracer.take()
        layers.append({**tr.aggregate(spans),
                       "cli.out_mb": traced[-1]["out_bytes"] / 1e6,
                       "trace.coverage": tr.root_time(spans) / traced[-1]["wall"]})

    report = {}
    for name in tr.per_layer_names():
        if name == "trace.overhead":
            overhead = statistics.median(p["wall"] for p in traced) / \
                statistics.median(p["wall"] for p in plain) - 1.0
            report[name] = ({"median": overhead, "n": len(traced)}, "ratio")
            continue
        source = [setup_layers] if name.startswith("noise.default_chain_coupling.") \
            else layers
        report[name] = (summarize([m[name] for m in source]), tr.metric_unit(name))
    return report, plain, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--known-failures", action="store_true",
                        help="also run the ops left out of a workload because "
                             "qetkd gets them wrong (workloads.KNOWN_FAILURES)")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    try:
        import qetkd.cli  # noqa: F401  (binds every module the tracer patches)
        from qetkd import noise
        from qetkd.tolerances import TOL
    except ImportError as exc:
        print(f"perfbench: cannot import qetkd from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(qetkd.cli.__file__).resolve().parents:
        print(f"perfbench: qetkd was imported from {qetkd.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    coupling_fn = noise.default_chain_coupling
    oracle = StarOracle(WORK / "oracle.json")
    ledger = Ledger(args.workload, args.seed, src_digest())

    reps = SETUP_REPS if args.trace == 0 else 1
    setups = []
    for _ in range(reps):
        seconds, workload = setup(args.workload, args.seed, ledger, oracle,
                                  coupling_fn, TOL.bisection, args.known_failures)
        setups.append(seconds)

    traced = []
    if args.trace == 0:
        plain = passes_for(args.seconds, workload, ledger)
        report = end_to_end_report(workload, setups, plain)
    else:
        report, plain, traced = per_layer_report(workload, args.seconds, ledger,
                                                 noise, coupling_fn)
    passes = {"untraced_wall_s": [round(p["wall"], 4) for p in plain],
              "traced_wall_s": [round(p["wall"], 4) for p in traced],
              "op_s": {op.name: [round(p["times"][op.name], 5) for p in plain]
                       for op in workload.ops}}

    ledger.settle()
    correct = ledger.failed == 0
    print("# record " + json.dumps(record(args, passes, workload), sort_keys=True))
    for op_name, problems in sorted(ledger.problems.items()):
        print(f"# FAILED {op_name}: " + "; ".join(problems))
    fail_frac = ledger.failed / ledger.attempted
    print(f"# fail_frac = {fail_frac:.6g} ratio ({ledger.failed} of {ledger.attempted} ops)")
    for name, (stats, unit) in report.items():
        extra = "".join(f" {k}={v:.6g}" for k, v in stats.items() if k.startswith("p"))
        print(f"# {name} = {stats['median']:.6g} {unit} (median, n={stats['n']}{extra})")
    metrics = {name: {"value": stats["median"], "unit": unit}
               for name, (stats, unit) in report.items()}
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
