"""Benchmark of the hvector pipeline; see perfbench/README.md.

    python3 perfbench/run.py --workload desk_pipeline --seed 0 --seconds 5 --trace 0

Run from the root of a checkout.  The program is imported from `src/` of
that checkout.  The last line of standard output is the result object; the
line before it holds the run metadata and the per-stage figures.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("desk_pipeline", "full_train", "verify_scale")
SETUP_REPEATS = 3
TRACE_WARMUP_S = 20.0
# Quality figures repeat exactly only for one BLAS build and thread count, so
# the thread count is pinned before numpy loads its BLAS.  One thread: on a
# 2-CPU machine, two OpenBLAS threads beside the interpreter's own made
# desk-pipeline passes in one process spread by about 15%, one thread by 1%.
BLAS_THREADS = 1


def _pin_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _startup_probe():
    """Fresh interpreter importing the CLI module, as every `hvector` command does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import hvector.cli"], env=env, cwd=ROOT,
                   check=True, timeout=60)


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas_thread_query():
    """Thread count OpenBLAS reports, or None when the library is not found."""
    import ctypes
    import glob
    import numpy
    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def metadata(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": _blas_thread_query(), "blas_threads_env": BLAS_THREADS,
        "cpu_count": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
    }


def _median_figures(figures: list[dict]) -> dict:
    """Per-stage figures of every pass, as medians with their units."""
    return {n: {"value": statistics.median(f[n][0] for f in figures), "unit": unit}
            for n, (_, unit) in figures[0].items()}


def bench(args, work: Path) -> tuple[dict, dict]:
    from workloads import WORKLOADS as DEFINED, CommandFailed, Context
    workload = DEFINED[args.workload]
    ctx = Context(seed=args.seed)
    detail: dict = {}
    problems: list[str] = []
    try:
        setup_s = []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            _startup_probe()
            workload.setup(ctx, work / f"setup{k}")
            setup_s.append(time.perf_counter() - t0)
        inputs = work / "setup0"

        # (dir, figures, reported, seconds) per pass.  While tracing, a plain
        # pass warms up, a second plain pass is the reference for the tracing
        # overhead, and the third runs under the recorder.  A warm-up pass
        # longer than TRACE_WARMUP_S is the reference itself, which keeps a
        # traced run of the longest workload well inside its time limit.
        passes = []
        started = time.perf_counter()
        while True:
            traced = args.trace and (len(passes) == 2 or (
                len(passes) == 1 and passes[0][3] > TRACE_WARMUP_S))
            if traced:
                from spans import Recorder
                ctx.recorder = Recorder()
                ctx.recorder.install()
            out = work / f"pass{len(passes)}"
            out.mkdir()
            ctx.command_s = {}
            try:
                reported, figures = workload.run_pass(ctx, inputs, out)
            finally:
                if traced:
                    ctx.recorder.restore()
            passes.append((out, figures, reported, sum(ctx.command_s.values())))
            if args.trace:
                if traced:
                    break
            elif time.perf_counter() - started >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Passes repeat identical work; a traced run checks the pass it reports.
        for out, _, reported, _ in (passes[-1:] if args.trace else passes):
            try:
                problems += workload.check(inputs, out, reported)
            except (OSError, ValueError) as exc:
                problems.append(f"{out.name}: unreadable output: {exc}")
    except CommandFailed as exc:
        problems.append(str(exc))
        passes = []

    detail["problems"] = problems
    result = {"correct": not problems, "attempted": ctx.attempted, "failed": ctx.failed,
              "metrics": {}}
    if not passes:
        return detail, result
    detail["passes"] = len(passes)
    detail["pipeline_s"] = [p[3] for p in passes]
    detail["figures"] = _median_figures([p[1] for p in passes])
    if not args.trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "pipeline_s": {"value": statistics.median(p[3] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        return detail, result

    from layers import UNITS, isolated_layers, span_metrics
    recorder = ctx.recorder
    values = span_metrics(recorder)
    values["trace.overhead_s"] = passes[-1][3] - passes[-2][3]
    values.update(isolated_layers(args.seed))
    result["metrics"] = {n: {"value": values[n], "unit": u} for n, u in UNITS.items()}
    detail["spans_by_name"] = recorder.by_name()
    spans_path = ROOT / ".perfbench_work" / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(recorder.dump()))
    detail["spans_file"] = str(spans_path.relative_to(ROOT))
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hvector" / "__init__.py").is_file():
        print(f"error: no hvector package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import hvector
    if Path(hvector.__file__).resolve().parent != SRC / "hvector":
        print(f"error: imported hvector from {hvector.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # A terminated run still removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        detail, result = bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"meta": metadata(args), **detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
