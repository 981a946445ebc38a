"""Run one workload of the reflectwalk benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lattice_walks --seed 1 --seconds 20 --trace 0

The workload's jobs are generated from ``--seed``, set up once, then run in
rounds until ``--seconds`` have passed (at least three rounds).  Every job
checks its output against an independent oracle in every round.  With
``--trace 0`` the result holds the end-to-end metrics (``wall_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` rounds alternate between
untraced and traced, and the result holds the per-layer metrics of the traced
round with the median wall time.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a record with provenance, per-round times and (traced) spans is
written to ``perfbench/out/``.

Everything runs in this process on one thread; BLAS thread pools are capped
at the number of usable cores.  The library is imported from ``src/`` of the
checkout, never from an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 3     # set-ups timed per run (this process plus fresh ones)
MIN_ROUNDS = 3        # untraced rounds (and traced rounds) per run
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(nproc)
    return nproc


def _set_up(workload: str, seed: int):
    """Import the library, generate the inputs and build the jobs, timed."""
    t0 = time.perf_counter()
    import workloads
    specs = workloads.generate(workload, seed)
    jobs = [(spec["name"], workloads.build(spec)) for spec in specs]
    return time.perf_counter() - t0, specs, jobs


def _setup_in_fresh_process(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def _run_round(jobs, known) -> dict:
    """Run every job once; returns its wall time, per-job times and failures."""
    from workloads import OracleMismatch
    job_s, failures, measurements = {}, {}, {}
    t0, cpu0 = time.perf_counter(), time.process_time()
    for name, job in jobs:
        start = time.perf_counter()
        try:
            measurements.update(job())
        except OracleMismatch as e:
            failures[name] = f"oracle: {e}"
        except Exception as e:  # a job that raises is a failed job, not a crash
            failures[name] = f"raised {type(e).__name__}: {e}"
            if name not in known:
                traceback.print_exc(file=sys.stderr)
        job_s[name] = time.perf_counter() - start
    return dict(wall_s=time.perf_counter() - t0, cpu_s=time.process_time() - cpu0,
                job_s=job_s, failures=failures, measurements=measurements)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _measure(jobs, seconds, trace, known):
    """Rounds until ``seconds`` pass; traced rounds alternate with plain ones.

    Returns the rounds, the spans and the peak RSS after the first pass over
    the jobs.  Later rounds repeat the same work, so a higher peak after them
    would come from the allocator's reuse of freed memory, not the workload.
    """
    import tracing
    tracer = tracing.Tracer()
    rounds = []
    start = time.perf_counter()
    peak_rss_mb = None
    while True:
        kinds = [False, True] if trace else [False]
        if trace and len(rounds) % 4 == 2:
            kinds.reverse()                  # alternate which kind runs first
        for traced in kinds:
            if not traced:
                rounds.append(dict(traced=False, **_run_round(jobs, known)))
                continue
            root = len(tracer.spans)
            tracer.install()
            try:
                with tracer.span("round") as span:
                    result = _run_round(jobs, known)
            finally:
                tracer.uninstall()
            rounds.append(dict(result, traced=True, wall_s=span.end - span.start,
                               root=root))
        if peak_rss_mb is None:
            peak_rss_mb = _peak_rss_mb()
        plain = sum(1 for r in rounds if not r["traced"])
        if plain >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            return rounds, tracer.spans, peak_rss_mb


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "reflectwalk").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _provenance(args, nproc) -> dict:
    import numpy
    import scipy
    import reflectwalk
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "blas_threads": nproc,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "reflectwalk": reflectwalk.__version__,
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "platform": platform.platform(),
    }


def _unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_per_call"):
        return "draws/call"
    if name.endswith("_s"):
        return "s"
    return "count"


def per_layer_metrics(rounds, spans, families) -> dict[str, float]:
    """Layer metrics of the traced round with the median wall time."""
    import tracing
    traced = sorted((r for r in rounds if r["traced"]), key=lambda r: r["wall_s"])
    plain = [r["wall_s"] for r in rounds if not r["traced"]]
    chosen = traced[(len(traced) - 1) // 2]
    metrics = tracing.layer_metrics(spans, chosen["root"])
    for family in families:
        key = f"measures.draws_per_s.{family}"
        metrics[key] = chosen["measurements"].get(key, 0.0)
    metrics["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced) / statistics.median(plain) - 1.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it as JSON and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    nproc = _cap_blas_threads()
    if not (SRC / "reflectwalk" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC / 'reflectwalk'}; run from the "
              f"root of a reflectwalk checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    try:
        setup_s, specs, jobs = _set_up(args.workload, args.seed)
    except ValueError as e:
        import workloads
        if args.workload in workloads.WORKLOADS:
            raise                           # a job's set-up failed
        parser.error(str(e))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import reflectwalk
    import workloads
    if not Path(reflectwalk.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: reflectwalk imported from {reflectwalk.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    setups = [setup_s]
    if not args.trace:
        setups += [_setup_in_fresh_process(args.workload, args.seed)
                   for _ in range(SETUP_SAMPLES - 1)]
    known = workloads.KNOWN_FAILURES
    rounds, spans, peak_rss_mb = _measure(jobs, args.seconds, args.trace, known)

    attempted = len(jobs) * len(rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    unexpected = sorted({n for r in rounds for n in r["failures"] if n not in known})
    if args.trace:
        metrics = per_layer_metrics(rounds, spans, workloads.PROBE_FAMILIES)
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}}

    provenance = _provenance(args, nproc)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "provenance": provenance, "specs": specs, "setup_s": setups,
        "rounds": rounds, "result": result,
        "spans": [[s.name, s.start, s.end, s.parent, s.stats] for s in spans],
    }))
    print("provenance " + json.dumps(provenance))
    for name, message in sorted({(n, m) for r in rounds for n, m in r["failures"].items()}):
        tag = " (known failure)" if name in known else ""
        print(f"FAIL {name}{tag}: {message}")
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {len(jobs)} jobs, "
          f"failed_frac {failed / attempted:.4f} frac, record {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
