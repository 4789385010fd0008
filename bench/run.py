"""Benchmark for neumann_lab: the paper's experiments, timed end to end.

Usage, from the repository root::

    python3 bench/run.py --workload stiff-sweep --seed 1 --seconds 60 --trace 0

Each run is a closed loop: one process runs the workload's operations one at
a time, pass after pass, for at most about ``--seconds`` from its start (the
loop stops before a pass that, at the typical pass time, would end later).
With ``--trace 0`` fresh processes time the set-up between passes.
Output checks run after each operation, outside the timed region.  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` passes alternate between untraced and traced and
the last line carries the per-layer metrics.  A full record (environment,
every pass, every failure with its traceback) goes to ``bench/out/``; the
traced run also writes its spans there as JSON lines.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("stiff-sweep", "moderate-mix")

# fresh processes timed per run for setup_s
SETUP_SAMPLES = 15


END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "elim.cf_heat.s": "s",
    "elim.cf_heat.self_s": "s",
    "elim.cf_heat.calls": "count",
    "elim.cf_heat.vertices": "count",
    "elim.cf_heat.solves": "count",
    "elim.mp_lock_wait.s": "s",
    "elim.elimination_order.s": "s",
    "elim.elimination_order.calls": "count",
    "elim.gth_factor.s": "s",
    "elim.gth_factor.calls": "count",
    "elim.solve_nonneg.s": "s",
    "elim.solve_nonneg.calls": "count",
    "semigroup.engine_init.s": "s",
    "semigroup.engine_init.calls": "count",
    "semigroup.engine_init.spectral": "count",
    "semigroup.heat_vec.self_s": "s",
    "semigroup.heat_vec.calls": "count",
    "semigroup.resolvent_vec.self_s": "s",
    "semigroup.resolvent_vec.calls": "count",
    "semigroup.resolvent_residual.s": "s",
    "semigroup.resolvent_residual.calls": "count",
    "semigroup.clamped_entries": "count",
    "operators.assemble.s": "s",
    "operators.assemble.calls": "count",
    "operators.assemble.vertices": "count",
    "models.make_exhaustion.s": "s",
    "models.make_exhaustion.calls": "count",
    "setup.models.make_exhaustion.s": "s",
    "setup.models.make_exhaustion.calls": "count",
    "convergence.experiment.self_s": "s",
    "convergence.ordered_map.self_s": "s",
    "convergence.truncations": "count",
    "convergence.reference_sets_used": "count",
    "analysis.uniform_l1_check.self_s": "s",
    "analysis.feller_estimate.self_s": "s",
    "birth_death.classify.s": "s",
    "birth_death.comb_beta_extraction.s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_written": "bytes",
    "process.cpu_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}


def import_library():
    """Import neumann_lab from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import neumann_lab

    if Path(neumann_lab.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"neumann_lab resolved outside {SRC}")
    return neumann_lab


def setup_probe(workload: str, seed: int) -> float:
    """Time to import the library and generate the workload's inputs."""
    t0 = time.perf_counter()
    import_library()
    import workloads

    workloads.make_operations(workload, seed, OUT_DIR)
    return time.perf_counter() - t0


def setup_process(workload: str, seed: int) -> float:
    """``setup_probe`` in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


# -- environment -----------------------------------------------------------------


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it is one."""
    import ctypes

    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload: str, seed: int) -> dict:
    import mpmath
    import numpy
    import workloads
    from neumann_lab import convergence

    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "openblas_threads": _openblas_threads(),
        # widest pool convergence._ordered_map may use
        "library_pool_width": convergence._worker_count(1 << 30),
        "seed": seed,
        "seed_changes_inputs": workload not in workloads.SEED_INDEPENDENT,
    }


# -- the measured loop -----------------------------------------------------------


def run_pass(ops, recorder=None) -> dict:
    """One pass over the operations: wall and process CPU time of the
    operations (checks excluded) and the failures."""
    wall = cpu = 0.0
    failures = []
    for op in ops:
        if recorder is None:
            patches = operation = contextlib.nullcontext()
        else:
            # the operation's own span parents its layers in the spans file
            patches, operation = spans.installed(recorder), recorder.span(f"op.{op.name}")
        error = None
        with patches, operation:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # every failure is counted; the run goes on
                error = traceback.format_exc()
            wall += time.perf_counter() - t0
            cpu += time.process_time() - cpu0
        if error is None:
            try:
                op.check(out)
            except Exception as ex:  # a check that cannot read the output fails too
                error = f"check failed: {type(ex).__name__}: {ex}"
        if error is not None:
            failures.append({"operation": op.name, "error": error})
    return {"wall_s": wall, "cpu_s": cpu, "attempted": len(ops), "failures": failures}


def measure(ops, start: float, seconds: float, traced: bool, spans_path: Path | None,
            probe=None):
    """Passes until the next one, at the typical pass time, would end more
    than ``seconds`` after ``start``.  There is always one pass.

    ``probe``, when given, times one fresh set-up process.  ``SETUP_SAMPLES``
    of them are spread over the run: after each pass enough run to keep pace
    with the time spent, and the rest at the end, so the set-up samples see
    the same drift of the host as the passes.  The stop rule counts the
    probes still to run.

    Traced runs alternate untraced and traced passes, starting untraced, and
    make at least one of each.
    """
    passes = []
    layer_samples = []
    setup_samples = []
    probe_s = []

    def probe_until(count: int):
        while probe is not None and len(setup_samples) < min(count, SETUP_SAMPLES):
            t0 = time.perf_counter()
            setup_samples.append(probe())
            probe_s.append(time.perf_counter() - t0)

    probe_until(1)
    while True:
        recorder = spans.Recorder() if traced and len(passes) % 2 == 1 else None
        t0 = time.perf_counter()
        result = run_pass(ops, recorder)
        result["loop_s"] = time.perf_counter() - t0
        result["traced"] = recorder is not None
        passes.append(result)
        if recorder is not None:
            layer_samples.append(recorder.layer_totals())
            if spans_path is not None:
                recorder.dump(spans_path, f"pass-{len(passes) - 1}")
        probe_until(math.ceil(SETUP_SAMPLES * (time.perf_counter() - start) / seconds))
        next_end = (time.perf_counter() - start
                    + statistics.median(p["loop_s"] for p in passes))
        if probe is not None:
            next_end += (SETUP_SAMPLES - len(setup_samples)) * statistics.median(probe_s)
        if next_end > seconds and (not traced or len(passes) >= 2):
            probe_until(SETUP_SAMPLES)
            return passes, layer_samples, setup_samples


def summarize_wall(values: list[float]) -> dict:
    """Median with its sample count, plus the highest tail percentile that
    has at least ten samples beyond it (none below 40 samples)."""
    out = {"median": statistics.median(values), "samples": len(values)}
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def layer_metrics(passes, layer_samples, setup_layers) -> dict:
    untraced_wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
    out = {}
    for name in PER_LAYER:
        if name.startswith("setup."):
            out[name] = setup_layers.get(name[len("setup."):], 0.0)
        else:
            out[name] = statistics.median(s.get(name, 0.0) for s in layer_samples)
    out.update({
        "process.cpu_s": statistics.median(p["cpu_s"] for p in passes if not p["traced"]),
        "trace.wall_s": traced_wall,
        "trace.overhead": traced_wall / untraced_wall - 1.0,
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
        return 0

    try:
        import_library()
    except ImportError as ex:
        print(f"cannot import neumann_lab from {SRC}: {ex}", file=sys.stderr)
        return 2
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(args.workload, args.seed)

    setup_recorder = spans.Recorder()
    with spans.installed(setup_recorder) if args.trace else contextlib.nullcontext():
        ops = workloads.make_operations(args.workload, args.seed, OUT_DIR)

    spans_path = OUT_DIR / f"spans-{tag}.jsonl" if args.trace else None
    if spans_path is not None:
        spans_path.unlink(missing_ok=True)
    probe = None if args.trace else functools.partial(setup_process, args.workload, args.seed)
    passes, layer_samples, setup_samples = measure(ops, start, args.seconds, bool(args.trace),
                                                   spans_path, probe)

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    checks_failed = [f for f in failures if f["error"].startswith("check failed")]
    plain_walls = [p["wall_s"] for p in passes if not p["traced"]]
    wall = summarize_wall(plain_walls)
    if args.trace:
        metrics = layer_metrics(passes, layer_samples, setup_recorder.layer_totals())
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": wall["median"],
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    error_rate = len(failures) / attempted

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "wall_s": wall,
              "setup_samples_s": setup_samples, "error_rate": error_rate,
              "metrics": metrics, "passes": passes}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                encoding="utf-8")

    tail = "".join(f", {k} {v:.4f} s" for k, v in wall.items() if k.startswith("p"))
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes")
    print(f"wall_s {wall['median']:.6g} s (median of {wall['samples']} untraced passes{tail})")
    for name, value in metrics.items():
        if name != "wall_s":  # printed above with its sample count
            print(f"{name} {value:.6g} {units[name]}")
    print(f"error_rate {error_rate:.6g} ratio ({len(failures)} failed / {attempted} attempted)")
    for f in {f["operation"]: f for f in failures}.values():
        print(f"failed: {f['operation']}: {f['error'].strip().splitlines()[-1]}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not checks_failed,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
