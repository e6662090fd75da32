"""pskmap benchmark: drives the CLI the way users do and checks every verdict.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; pskmap is imported from ``src/``.
Each operation is one in-process ``pskmap.cli.main([...])`` call on an input
file generated from the workload seed (see ``workloads.py``), with its output
captured and checked.  Passes over the workload's operation list repeat until
``--seconds`` is used up.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate run
that times one half of its passes untraced and the other half with the layer
tracer installed (``tracer.py``), and reports the per-layer metrics and the
tracing overhead.

Warm-up policy: imports happen once, in set-up.  Before every operation
``lie._D_TABLE_CACHE`` is emptied and the garbage collector run, because a CLI
user starts each invocation with an empty cache and a fresh heap; nothing else
is warmed or cleared.

The last line of standard output is one JSON object (correct, attempted,
failed, metrics).  The lines before it print every metric with its unit and
base count.  The full result, with run metadata and per-operation records, is
written to ``.perfbench_out/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 6  # half before the timed passes, half after
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}

# OpenBLAS defaults to one thread per CPU.  On a 2-vCPU shared host its
# multithreaded calls (the lstsq in cmap.sp1_fit_residual, the LM normal
# equations at n >= 3) stall whenever the host deschedules one vCPU, and that
# made the run-to-run spread of `verify` wider than any bound the benchmark may
# set.  The benchmark therefore runs pskmap with one BLAS thread and records
# the values it found.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _require_checkout() -> None:
    missing = [str(p.relative_to(ROOT)) for p in (SRC / "pskmap" / "__init__.py",
                                                  ROOT / "fixtures") if not p.exists()]
    if missing:
        sys.exit(f"perfbench: not a pskmap source checkout, missing {', '.join(missing)}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", default=None,
                   help=argparse.SUPPRESS)  # child process timed for setup_s
    return p.parse_args(argv)


# -- set-up ------------------------------------------------------------------


def measure_setup(workload: str, seed: int, base: Path, repeats: int) -> list:
    """Wall times of fresh interpreters that import pskmap and write the inputs."""
    times = []
    for _ in range(repeats):
        probe_dir = base / "setup-probe"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-probe", str(probe_dir)]
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return times


# -- running operations ------------------------------------------------------


def _clear_program_caches() -> None:
    from pskmap import lie

    cache = getattr(lie, "_D_TABLE_CACHE", None)
    if cache is not None:
        cache.clear()


def run_op(op, tracer=None, op_id=None) -> dict:
    from pskmap import cli

    _clear_program_caches()
    gc.collect()  # each CLI invocation starts with a fresh heap
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.op_id = op_id
    code, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception:  # an exception is a failed operation, not a crash
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    report = {}
    if error is None:
        try:
            report = json.loads(out.getvalue())
        except json.JSONDecodeError:
            error = f"exit {code}, no JSON report; stderr: {err.getvalue()[:300]!r}"
    if error is None:
        error = op.expect(code, report)
    return {"label": op.label, "seconds": seconds, "exit": code,
            "status": report.get("status"), "error": error, "report": report}


def run_passes(ops, budget_s: float, tracer=None, first_op_id: int = 0) -> list:
    """Passes over ``ops`` until the next one would overrun ``budget_s`` (at least one)."""
    passes = []
    t_start = time.perf_counter()
    op_id = first_op_id
    while True:
        records = []
        for op in ops:
            records.append(run_op(op, tracer, op_id))
            op_id += 1
        # Time to all verdicts, without the benchmark's own housekeeping between operations.
        passes.append({"wall_s": sum(r["seconds"] for r in records), "ops": records})
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() - t_start + typical > budget_s:
            return passes


def recheck_solved(ops, passes) -> int:
    """Re-check every Solved candidate with `check` and `cone-verify`.

    These evaluators are independent of the solver, so a fast but wrong
    solver fails here.  Failures are written into the operation's record.
    Returns the number of re-check invocations.
    """
    import workloads

    checks = 0
    for p_idx, p in enumerate(passes):
        for i, (op, rec) in enumerate(zip(ops, p["ops"])):
            if rec["error"] is not None or rec["status"] != "Solved":
                continue
            path = workloads.recheck_file(op, rec["report"], p_idx * len(ops) + i)
            for cmd in ("check", "cone-verify"):
                checks += 1
                check_op = workloads.Op(f"{cmd} {Path(path).name}", [cmd, path],
                                        workloads.status_is("ok"))
                result = run_op(check_op)
                if result["error"] is not None:
                    rec["error"] = f"re-check `{cmd}` failed: {result['error']}"
                    break
    return checks


# -- metrics -----------------------------------------------------------------


def tail_ms(latencies_s: list) -> tuple:
    """Highest percentile with at least ten samples beyond it.  Below 20
    samples that percentile would sit under the median, so the maximum is
    reported instead.  Returns (value_ms, label)."""
    xs = sorted(latencies_s)
    n = len(xs)
    if n < 20:
        return 1000.0 * xs[-1], f"max of {n}"
    return 1000.0 * xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"


def end_to_end(ops, passes, setup_times) -> tuple:
    latencies = [r["seconds"] for p in passes for r in p["ops"]]
    tail, tail_label = tail_ms(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "wall_s": f"median of {len(passes)} passes",
        "peak_rss_mib": "ru_maxrss of the benchmark process",
    }
    # Reported with the result but not gated; README.md says why.
    extra = {
        "op_p50_ms": (1000.0 * statistics.median(latencies), "ms",
                      f"median of {len(latencies)} operations"),
        "op_tail_ms": (tail, "ms", tail_label),
    }
    for n in (3, 4):
        times = [r["seconds"] for p in passes
                 for op, r in zip(ops, p["ops"]) if op.solve_n == n]
        if times:
            extra[f"solve_s.n{n}"] = (statistics.median(times), "s",
                                      f"median of {len(times)} n = {n} solves")
    return metrics, notes, extra


# -- metadata ----------------------------------------------------------------


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(seed: int, seconds: float, trace: int, blas_env_found: dict) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads_env_found": blas_env_found,
        "blas_threads_env_used": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "workload_seed": seed,
        "seconds": seconds,
        "trace": trace,
        "warmup_policy": ("imports paid once in set-up; no warm-up pass; "
                          "lie._D_TABLE_CACHE emptied and gc.collect() run before "
                          "every operation, as each CLI invocation starts afresh"),
        "load": "closed loop, one client, one process",
    }


# -- main --------------------------------------------------------------------


def _setup_probe(args) -> int:
    import pskmap.cli  # noqa: F401  (the import a CLI user pays for)
    import workloads

    workloads.build(args.workload, ROOT, Path(args.setup_probe), args.seed)
    return 0


def _print_metric(name, value, unit, note) -> None:
    print(f"{name} = {value:.6g} {unit}  [{note}]")


def main(argv=None) -> int:
    args = parse_args(argv)
    _require_checkout()
    found = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    os.environ.update({k: "1" for k in BLAS_THREAD_VARS})  # before numpy is imported
    if args.setup_probe is not None:
        return _setup_probe(args)

    import pskmap
    import workloads

    if Path(pskmap.__file__).resolve().parent != SRC / "pskmap":
        sys.exit(f"perfbench: imported pskmap from {pskmap.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")

    base = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # Set-up is timed both before and after the passes, so that its median
        # does not rest on one spell of a shared host.
        setup_times = measure_setup(args.workload, args.seed, base, SETUP_REPEATS // 2)
        ops = workloads.build(args.workload, ROOT, base / "inputs", args.seed)
        result = run(args, ops, setup_times, found, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(args, ops, setup_times, blas_env_found, base) -> dict:
    import tracer as tracing
    import workloads

    meta = metadata(args.seed, args.seconds, args.trace, blas_env_found)
    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} operations per pass")
    print(f"  why: {workloads.WORKLOADS[args.workload][1]}")
    tracer, traced = None, []
    if args.trace:
        untraced = run_passes(ops, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(ops, args.seconds / 2, tracer, first_op_id=len(ops) * len(untraced))
        finally:
            tracer.uninstall()
    else:
        untraced = run_passes(ops, args.seconds)
    setup_times += measure_setup(args.workload, args.seed, base, SETUP_REPEATS - len(setup_times))
    e2e, notes, extra = end_to_end(ops, untraced, setup_times)
    rechecks = recheck_solved(ops, untraced + traced)

    records = [r for p in untraced + traced for r in p["ops"]]
    failed = [r for r in records if r["error"] is not None]
    attempted = len(records)
    extra["verdict_fail_ratio"] = (len(failed) / attempted, "ratio",
                                   f"{len(failed)} failed of {attempted} operations, "
                                   f"{rechecks} re-check invocations")
    for r in failed:
        print(f"FAILED {r['label']}: {r['error']}")

    if args.trace:
        layer = tracer.metrics(len(traced))
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        untraced_wall = statistics.median(p["wall_s"] for p in untraced)
        layer["trace.wall_s"] = (traced_wall, len(traced))
        layer["trace.untraced_wall_s"] = (untraced_wall, len(untraced))
        layer["trace.overhead_s"] = (traced_wall - untraced_wall, len(traced))
        for name, (value, base) in layer.items():
            unit, what = tracing.PER_LAYER[name]
            _print_metric(name, value, unit, f"base {base}; {what}")
        if tracer.missing:
            print(f"untraced (not found): {', '.join(tracer.missing)}")
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]}
                   for k, (v, _) in layer.items()}
    else:
        for name, value in e2e.items():
            _print_metric(name, value, END_TO_END_UNITS[name], notes[name])
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    for name, (value, unit, note) in extra.items():
        _print_metric(name, value, unit, note)

    summary = {"correct": not failed, "attempted": attempted,
               "failed": len(failed), "metrics": metrics}
    _write_result(args, meta, summary, notes, extra, untraced + traced, tracer)
    return summary


def _write_result(args, meta, summary, notes, extra, passes, tracer) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    doc = {
        "workload": args.workload,
        "meta": meta,
        "summary": summary,
        "notes": notes,
        "extra": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in extra.items()},
        "passes": [{"wall_s": p["wall_s"],
                    "ops": [{k: r[k] for k in ("label", "seconds", "exit", "status", "error")}
                            for r in p["ops"]]} for p in passes],
    }
    if tracer is not None:
        doc["missing_targets"] = tracer.missing
        doc["layer_stats"] = {k: {"calls": c, "total_s": t, "self_s": s}
                              for k, (c, t, s) in tracer.stats.items()}
        with open(OUT / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.span_records(), fh)
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
