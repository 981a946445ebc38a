"""Benchmark a change against a base revision in alternating pairs.

Usage, from the root of a checkout::

    python3 tools/bench_pairs.py --base HEAD --pairs 10 --seconds 25 --out BENCH.json
    python3 tools/bench_pairs.py --base HEAD --per-job --workload lattice_walks --seed 7

The base revision is exported with ``git archive`` into a temporary
directory, so the repository itself is not touched; the change is the
working tree of this checkout.  Pair ``i`` runs ``perfbench/run.py
--trace 0`` at seed ``--seed + i`` on both trees, one workload after the
other, base first in even pairs and change first in odd ones.  The summary
gives, per workload and end-to-end metric, each side's median and quartiles,
the change's wins and ties, and three verdicts:

* ``gain``: the change is better in at least nine tenths of the pairs, and
  the medians differ in its favour by more than the base's interquartile
  range;
* ``within_bound``: the change's median is worse than the base's by at most
  the metric's ``BENCHMARK.json`` bound, read as a fraction of the base
  median;
* ``steady``: on each side the interquartile range is at most that bound;
  runs that spread wider cannot tell a change of the bound's size.

``--per-job`` instead runs one workload in a fresh process per tree: one
warm-up round, which reads the current and peak resident memory after set-up
and after each job, then ``WARM_ROUNDS`` timed rounds, and prints beside the
memory each job's median seconds over the timed rounds.  It imports
``perfbench/workloads.py`` of each tree and changes nothing there.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("lattice_walks", "heavy_tails", "exact_analysis")
WARM_ROUNDS = 5          # timed rounds of --per-job, after its warm-up round


# ---------------------------------------------------------------------------
# summary arithmetic
# ---------------------------------------------------------------------------

def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``, linear interpolation between order statistics."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(base, head, better: str, bound: float) -> dict:
    """Pairwise summary of one metric; ``base[i]`` and ``head[i]`` form pair ``i``."""
    if len(base) != len(head) or not base:
        raise ValueError("need equally many base and change values, at least one")
    sign = -1.0 if better == "lower" else 1.0       # sign * (head - base) > 0: change better
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    ties = sum(1 for b, h in zip(base, head) if h == b)
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    gain = sign * (hmed - bmed)
    worse = max(-gain, 0.0)
    allowed = bound * abs(bmed)
    return {
        "base": list(base), "change": list(head),
        "base_median": bmed, "base_q1": bq1, "base_q3": bq3,
        "change_median": hmed, "change_q1": hq1, "change_q3": hq3,
        "pairs": len(base), "wins": wins, "ties": ties,
        "median_delta": hmed - bmed,
        "rel_delta": (hmed - bmed) / bmed if bmed else math.nan,
        "base_iqr": bq3 - bq1,
        "change_iqr": hq3 - hq1,
        "gain": 10 * wins >= 9 * len(base) and gain > bq3 - bq1,
        "within_bound": worse <= allowed,
        "steady": max(bq3 - bq1, hq3 - hq1) <= allowed,
    }


# ---------------------------------------------------------------------------
# running the trees
# ---------------------------------------------------------------------------

def export_tree(rev: str, into: Path) -> Path:
    """The committed files of ``rev`` under ``into``, by ``git archive``."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``perfbench/run.py`` run in ``tree``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def pairs(base_tree: Path, head_tree: Path, workloads, n_pairs: int, seed: int,
          seconds: float) -> dict:
    """Raw results: ``{workload: {"base": [...], "change": [...], "seeds": [...]}}``."""
    raw = {w: {"base": [], "change": [], "seeds": []} for w in workloads}
    for i in range(n_pairs):
        order = [("base", base_tree), ("change", head_tree)]
        if i % 2:
            order.reverse()
        for w in workloads:
            raw[w]["seeds"].append(seed + i)
            for side, tree in order:
                result = run_bench(tree, w, seed + i, seconds)
                raw[w][side].append(result)
                print(f"pair {i} {w} {side}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                    + f" failed={result['failed']}/{result['attempted']}",
                    file=sys.stderr, flush=True)
    return raw


def summary(raw: dict, spec: dict) -> dict:
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    out = {}
    for w, sides in raw.items():
        out[w] = {name: summarize([r["metrics"][name]["value"] for r in sides["base"]],
                                  [r["metrics"][name]["value"] for r in sides["change"]],
                                  m["better"], m["bound"])
                  for name, m in metrics.items()}
        for side in ("base", "change"):
            out[w][f"{side}_failed"] = sum(r["failed"] for r in sides[side])
            out[w][f"{side}_attempted"] = sum(r["attempted"] for r in sides[side])
            out[w][f"{side}_correct"] = all(r["correct"] for r in sides[side])
    return out


# ---------------------------------------------------------------------------
# per-job memory
# ---------------------------------------------------------------------------

def _rss_mb() -> tuple[float, float]:
    """Current and peak resident memory of this process, in MB (10^6 bytes).

    The kernel raises ``ru_maxrss`` only at some events, so it can lag the
    current value by a few hundred KB; the peak is at least the current.
    """
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    current = pages * resource.getpagesize() / 1e6
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return current, max(current, peak)


def time_jobs(jobs, rounds: int = WARM_ROUNDS) -> list:
    """``[name, current MB, peak MB, median s]`` per ``(name, job)`` pair.

    One warm-up round reads the memory after each job; ``rounds`` more
    rounds time the jobs, in the same order.  A job that raises is timed all
    the same, and its name says what it raised.
    """
    rows, times = [], [[] for _ in jobs]
    for r in range(rounds + 1):
        for i, (name, job) in enumerate(jobs):
            t0 = time.perf_counter()
            try:
                job()
                raised = ""
            except Exception as e:       # a failing job still shows its memory
                raised = f" (raised {type(e).__name__})"
            if r:
                times[i].append(time.perf_counter() - t0)
            else:
                rows.append([name + raised, *_rss_mb()])
    return [row + [statistics.median(t)] for row, t in zip(rows, times)]


def probe_jobs(tree: Path, workload: str, seed: int) -> None:
    """In this process: :func:`time_jobs` on ``workload``, one JSON line per job."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads
    jobs = [(s["name"], workloads.build(s)) for s in workloads.generate(workload, seed)]
    print(json.dumps(["set-up", *_rss_mb(), 0.0]), flush=True)
    for row in time_jobs(jobs):
        print(json.dumps(row), flush=True)


def per_job(trees: dict, workload: str, seed: int) -> None:
    rows = {}
    for side, tree in trees.items():
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe",
                              str(tree), "--workload", workload, "--seed", str(seed)],
                             capture_output=True, text=True, check=True)
        rows[side] = [json.loads(line) for line in out.stdout.splitlines()]
    print(f"{workload} seed {seed}: current / peak RSS (MB) after each job of the "
          f"warm-up round, median job seconds over {WARM_ROUNDS} more rounds")
    print(f"{'job':42s} {'base cur':>9s} {'peak':>7s} {'s':>6s}  {'change cur':>10s} "
          f"{'peak':>7s} {'s':>6s}")
    for b, h in zip(rows["base"], rows["change"]):
        print(f"{b[0]:42s} {b[1]:9.2f} {b[2]:7.2f} {b[3]:6.3f}  {h[1]:10.2f} "
              f"{h[2]:7.2f} {h[3]:6.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default every workload")
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    parser.add_argument("--per-job", action="store_true")
    parser.add_argument("--probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    if args.probe:
        probe_jobs(args.probe, workloads[0], args.seed)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": export_tree(args.base, Path(tmp) / "base"), "change": ROOT}
        if args.per_job:
            for w in workloads:
                per_job(trees, w, args.seed)
            return 0
        raw = pairs(trees["base"], trees["change"], workloads, args.pairs, args.seed,
                    args.seconds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"base": args.base, "pairs": args.pairs, "first_seed": args.seed,
              "seconds": args.seconds, "summary": summary(raw, spec)}
    text = json.dumps(record, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    for w, metrics in record["summary"].items():
        for name, s in metrics.items():
            if isinstance(s, dict):
                print(f"{w:15s} {name:12s} base {s['base_median']:.4g} "
                      f"[{s['base_q1']:.4g}, {s['base_q3']:.4g}]  change "
                      f"{s['change_median']:.4g} [{s['change_q1']:.4g}, "
                      f"{s['change_q3']:.4g}]  wins {s['wins']}/{s['pairs']}  "
                      f"gain {s['gain']}  within_bound {s['within_bound']}  "
                      f"steady {s['steady']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
