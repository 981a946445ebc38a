"""Command-line interface.

One binary, subcommand per capability::

    reflectwalk simulate   --config cfg.yaml --out results/
    reflectwalk invariant  --config cfg.yaml
    reflectwalk criteria   --config cfg.yaml
    reflectwalk ladder     --config cfg.yaml --out results/
    reflectwalk classes    --config cfg.yaml --out results/
    reflectwalk witness    --config cfg.yaml
    reflectwalk backward   --config cfg.yaml --out results/
    reflectwalk experiment --config cfg.yaml --out results/
    reflectwalk validate   --config cfg.yaml

Configs are YAML mappings (see the schema dicts below and the demos
directory).  Every run writes a ``metadata.json`` echoing the resolved
configuration: the master seed and the subcommand's defaults from
``DEFAULTS``.  An experiment entry is echoed as given: the defaults written
inline in its probe branch are not added, and the seed derived for it
appears only in the entry's own JSON.  Any artifact can be regenerated from
its metadata file alone: ``reflectwalk <sub> --config metadata.json``
reproduces it bit for bit.

Batch experiment files may list several experiments; ``--threads`` caps the
worker pool that runs batch entries in parallel.  Each entry draws its seed
from the master seed by the fixed splitmix64 derivation, so results do not
depend on scheduling.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import yaml

from . import __version__, diagnostics, exact_1d, lattice_structure, measures
from . import reflect_core
from .measures import MeasureError
from .rng import child_seed, make_rng

SCHEMA_VERSION = 1

DEFAULTS = {
    "simulate": {"steps": 1000, "start": None, "seed": 0},
    "invariant": {"seed": 0},
    "criteria": {"truncation": 1 << 22, "seed": 0},
    "ladder": {"method": "auto", "samples": 100_000, "step_cap": 10_000_000,
               "seed": 0},
    "classes": {"window": 20, "seed": 0},
    "witness": {"verified_range": 50, "seed": 0},
    "backward": {"horizon": 500, "samples": 1000, "parity": None, "seed": 0},
    "experiment": {"seed": 0},
}


def _load_config(path):
    with open(path, "r") as fh:
        if str(path).endswith(".json"):
            cfg = json.load(fh)
        else:
            cfg = yaml.safe_load(fh)
    if isinstance(cfg, dict) and "config" in cfg and "subcommand" in cfg:
        cfg = cfg["config"]          # accept metadata.json files directly
    return cfg or {}


def _resolve(sub: str, cfg: dict, args) -> dict:
    out = dict(DEFAULTS.get(sub, {}))
    out.update(cfg)
    if args.seed is not None:
        out["seed"] = args.seed
    if args.threads is not None:
        out["threads"] = args.threads
    out.setdefault("threads", 1)
    return out


def _plain(obj):
    """What ``json`` cannot encode, as plain lists, numbers and dicts."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, reflect_core.ContractionWord):
        return obj.letters.ravel().tolist()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _json(payload, indent=2) -> str:
    """The one JSON layout of every payload, printed or written."""
    return json.dumps(payload, indent=indent, sort_keys=True, default=_plain)


def _csv(header: str, rows) -> str:
    """The one CSV layout: floats in full binary64 round-trip form, anything
    else by ``str``, a cell holding a comma quoted."""
    def cell(x):
        text = repr(float(x)) if isinstance(x, float) else str(x)
        return f'"{text}"' if "," in text else text
    return "\n".join([header] + [",".join(map(cell, row)) for row in rows])


def _write(outdir: Path | None, name: str, text: str):
    """Write one artifact under ``--out``; a run without ``--out`` writes nothing."""
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / name).write_text(text + "\n")


def _joint_of(cfg: dict) -> measures.JointMeasure:
    if "joint" in cfg:
        return measures.joint_from_config(cfg["joint"])
    if "measure" in cfg:
        m = measures.measure_from_config(cfg["measure"])
        dims = (1, 0, 0, 0) if m.is_lattice else (0, 1, 0, 0)
        return measures.JointMeasure.product(dims, [m])
    raise MeasureError("config needs a 'measure' or 'joint' section")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg, outdir):
    if outdir is None:
        raise MeasureError("simulate needs --out")
    spec = reflect_core.WalkSpec(_joint_of(cfg))
    start = cfg.get("start") or [0.0] * spec.dim
    traj = reflect_core.simulate(spec, start, int(cfg["steps"]),
                                 make_rng(int(cfg["seed"])))
    outdir.mkdir(parents=True, exist_ok=True)
    traj.to_csv(outdir / "trajectory.csv")
    print(f"wrote {outdir / 'trajectory.csv'} ({cfg['steps']} steps)")
    return {}


def _cmd_invariant(cfg, outdir):
    nu = exact_1d.invariant_measure_nonneg(measures.measure_from_config(cfg["measure"]))
    if nu.kind == "lattice":
        rows = list(zip(nu.support, nu.masses))
    else:
        grid = map(float, cfg.get("grid", [i / 20 for i in range(21)]))
        rows = [(x, nu.density(x)) for x in grid]
    text = _csv("x,mass", rows + [("total_mass", nu.total_mass)])
    print(text)
    _write(outdir, "invariant.csv", text)
    return {}


def _cmd_criteria(cfg, outdir):
    m = measures.measure_from_config(cfg["measure"])
    rep = exact_1d.recurrence_criteria(m, int(cfg["truncation"]))
    text = _json({
        "schema_version": SCHEMA_VERSION,
        "sqrt_moment": rep.cond_sqrt_moment,
        "tail_square": rep.cond_tail_square,
        "tail_product": rep.cond_tail_product,
        "truncation": rep.truncation,
    })
    print(text)
    _write(outdir, "criteria.json", text)
    return {}


def _cmd_ladder(cfg, outdir):
    m = measures.measure_from_config(cfg["measure"])
    method, lad = cfg["method"], None
    if method in ("auto", "exact"):
        try:
            lad = exact_1d.ladder_exact_skip_free(m)
        except MeasureError:
            if method == "exact":
                raise
    if lad is None:                     # auto falls back where the inversion refuses
        lad = exact_1d.ladder_monte_carlo(m, int(cfg["samples"]),
                                          make_rng(int(cfg["seed"])),
                                          step_cap=int(cfg["step_cap"]))
    atoms = list(lad.ladder.atoms_dict().items())
    notes = [("method", lad.method)] + (
        [("capped_excursions", lad.capped_excursions)] if lad.capped_excursions else [])
    print(_csv("height,prob", atoms + notes))       # the printed table adds its notes
    _write(outdir, "ladder.csv", _csv("height,prob", atoms))
    return {"method": lad.method, "capped_excursions": lad.capped_excursions}


def _cmd_classes(cfg, outdir):
    # essential_classes picks the margin; only the null an older metadata.json
    # echoes is accepted, so a set margin is never silently ignored
    if cfg.get("margin") is not None:
        raise MeasureError("classes chooses its margin itself; remove 'margin' "
                           "from the config")
    j = _joint_of(cfg)
    reports = lattice_structure.essential_classes(j, cfg["window"])
    dec = lattice_structure.parity_group(j)
    text = _json({"schema_version": SCHEMA_VERSION, "parity_group": dec.group,
                  "n_cosets": dec.n_cosets, "cosets": dec.cosets, "classes": reports})
    print(text)
    _write(outdir, "classes.json", text)
    return {}


def _cmd_witness(cfg, outdir):
    m = measures.measure_from_config(cfg["measure"])
    w = lattice_structure.constant_map_witness(m, int(cfg["verified_range"]))
    print("generators:", w.generators)
    for y, word in zip(w.generators, w.generator_words):
        print(f"  word[{y}]: {word.to_text()}")
    print("gcd chain:", w.gcd_chain)
    print("parity map word:", w.parity_map.to_text())
    print(f"verification table (k <= {w.verified_k}): "
          f"{'PASS' if w.checks_passed else 'FAIL'}")
    for kk in (1, 2, w.verified_k):
        row = w.table[kk][: 2 * kk]
        print(f"  h^{kk} on 0..{2 * kk - 1}: {row.tolist()}")
    payload = dict(vars(w), schema_version=SCHEMA_VERSION)
    del payload["euclid_words"]
    _write(outdir, "witness.json", _json(payload))
    if not w.checks_passed:
        raise MeasureError("witness verification failed")
    return {"checks_passed": w.checks_passed}


def _cmd_backward(cfg, outdir):
    spec = reflect_core.WalkSpec(_joint_of(cfg))
    parity = cfg.get("parity") or [0] * spec.r1
    res = reflect_core.backward_sample(spec, parity, int(cfg["horizon"]),
                                       make_rng(int(cfg["seed"])),
                                       n_samples=int(cfg["samples"]))
    n, r = res.values.shape
    header = ",".join(["sample"] + [f"x{i}" for i in range(r)] + ["converged", "blocks"])
    _write(outdir, "backward.csv", _csv(header, zip(
        range(n), *res.values.T, res.converged.astype(int), res.blocks_used)))
    conv = float(res.converged.mean())
    print(f"samples: {len(res.values)}, converged fraction: {conv}")
    return {"converged_fraction": conv}


def _run_one_experiment(entry: dict, outdir: Path, master_seed: int, index: int):
    """Run one batch entry and write its artifacts; return its name and the
    one value its summary line prints."""
    probe = entry.get("probe")
    seed = int(entry.get("seed", child_seed(master_seed, index)))
    rng = make_rng(seed)
    name = entry.get("name", f"{probe}_{index}")
    result: dict = {"schema_version": SCHEMA_VERSION, "probe": probe,
                    "name": name, "seed": seed,
                    "thresholds": dict(diagnostics.THRESHOLDS)}
    table = None                        # (header, rows) of the entry's CSV
    if probe == "occupation":
        spec = reflect_core.WalkSpec(_joint_of(entry))
        m = spec.law.marginal(0)
        nu = exact_1d.invariant_measure_nonneg(m)
        tv, occ = diagnostics.occupation_vs_invariant(
            spec, nu, int(entry.get("steps", 1_000_000)),
            int(entry.get("burn_in", 10_000)), rng)
        result["tv_distance"] = summary = tv
        table = "state,visits", sorted(occ.items())
    elif probe == "return_time":
        spec = reflect_core.WalkSpec(_joint_of(entry))
        center = entry.get("window_center", [0.0] * spec.r)
        radius = float(entry.get("window_radius", 0.0))
        stats, ev = diagnostics.return_time_stats(
            spec, entry.get("start", [0.0] * spec.dim), (center, radius),
            int(entry.get("budget", 100_000)), int(entry.get("replicas", 32)), rng)
        result["evidence"], summary = ev, ev.category
        table = "return_time", zip(stats.return_times)
    elif probe == "symmetrization":
        j = _joint_of(entry)
        mode = entry.get("mode", "exact_enumeration")
        out = diagnostics.symmetrization_check(
            j, entry.get("start", [0.0] * j.dim), int(entry.get("horizon", 4)),
            mode, rng, samples=int(entry.get("samples", 100_000)))
        if mode == "exact_enumeration":
            result["max_discrepancy"] = summary = out
        else:
            result["tv_estimate"], result["tv_se"] = out
            summary = result["tv_estimate"]
    elif probe == "cesaro":
        spec = reflect_core.WalkSpec(_joint_of(entry))
        nu1 = exact_1d.invariant_measure_nonneg(spec.law.marginal(0))
        nu2 = exact_1d.invariant_measure_nonneg(spec.law.marginal(1))
        result["cesaro"] = diagnostics.cesaro_lower_bound(
            nu1, nu2, set(entry["set1"]), set(entry["set2"]), spec,
            int(entry.get("steps", 1_000_000)), rng)
        summary = result["cesaro"]["empirical"]
    elif probe == "reflected_plus_free":
        spec = reflect_core.WalkSpec(_joint_of(entry))
        ev, wald = diagnostics.reflected_plus_free_experiment(
            spec, int(entry.get("budget", 200_000)),
            int(entry.get("replicas", 32)), rng,
            wald_cycles=int(entry.get("wald_cycles", 100_000)))
        result["evidence"], result["wald"], summary = ev, wald, ev.category
    elif probe == "null_probe":
        factors = [measures.measure_from_config(c) for c in entry["factors"]]
        out = diagnostics.product_null_recurrence_probe(
            factors, entry.get("target", [0] * len(factors)),
            entry.get("grid", [2 ** k for k in range(6, 15)]),
            int(entry.get("replicas", 100_000)), rng)
        result["probe_result"] = out
        summary = out.get("joint", out["factors"][0])["slope"]
        table = "n,phat", zip(out["grid"], out["factors"][0]["phat"])
    elif probe == "dimension":
        j = _joint_of(entry)
        out = diagnostics.dimension_transience_probe(
            j, int(entry.get("budget", 1_000_000)),
            int(entry.get("replicas", 128)), rng,
            window_radius=float(entry.get("window_radius", 2.0)),
            burn_in=entry.get("burn_in"))
        dists = out.pop("min_distance_after_burn_in")
        result["probe_result"], summary = out, out["escape_fraction"]
        table = "replica,min_distance_after_burn_in", enumerate(dists)
    elif probe == "subordinated_exponent":
        out = diagnostics.subordinated_return_exponent(
            float(entry["alpha"]), rng,
            n_max=int(entry.get("n_max", 1 << 14)),
            replicas=int(entry.get("replicas", 1_000_000)))
        result["probe_result"], summary = out, out["slope"]
        table = "n,phat", zip(out["grid"], out["phat"])
    else:
        raise MeasureError(f"unknown probe {probe!r}")
    _write(outdir, f"{name}.json", _json(result))
    if table:
        _write(outdir, f"{name}.csv", _csv(*table))
    return name, summary


def _cmd_experiment(cfg, outdir):
    if outdir is None:
        raise MeasureError("experiment needs --out")
    entries = cfg.get("experiments") or [cfg]
    master, threads = int(cfg["seed"]), int(cfg["threads"])
    if threads < 1:
        raise MeasureError("--threads must be at least 1")
    # when an entry raises, map cancels the entries that have not started
    with ThreadPoolExecutor(max_workers=threads) as pool:
        summaries = dict(pool.map(
            lambda i: _run_one_experiment(entries[i], outdir, master, i),
            range(len(entries))))
    for name, summary in summaries.items():
        print(f"{name}: {summary}")
    return {"experiments": sorted(summaries)}


def _cmd_validate(cfg, outdir):
    try:
        checks = list(reflect_core.WalkSpec.checks(_joint_of(cfg)))
    except MeasureError as e:
        checks = [("construct", False, str(e))]
    checks = [{"check": name, "status": "ok" if ok else "failed", "message": message}
              for name, ok, message in checks]
    report = {"schema_version": SCHEMA_VERSION,
              "ok": all(c["status"] == "ok" for c in checks),
              "checks": checks}
    print(_json(report))
    return report


COMMANDS = {
    "simulate": _cmd_simulate,
    "invariant": _cmd_invariant,
    "criteria": _cmd_criteria,
    "ladder": _cmd_ladder,
    "classes": _cmd_classes,
    "witness": _cmd_witness,
    "backward": _cmd_backward,
    "experiment": _cmd_experiment,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reflectwalk",
        description="Exact analysis and Monte Carlo simulation of reflected "
                    "random walks.")
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=str, default=None,
                        help="YAML (or metadata JSON) configuration file")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed override")
    parser.add_argument("--out", type=str, default=None,
                        help="output directory for artifacts")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker cap for batch experiments")
    args = parser.parse_args(argv)
    cfg = _load_config(args.config) if args.config else {}
    cfg = _resolve(args.subcommand, cfg, args)
    outdir = Path(args.out) if args.out else None
    try:
        extra = COMMANDS[args.subcommand](cfg, outdir)
    except MeasureError as e:
        print(_json({"error": type(e).__name__, "message": str(e)}, indent=None),
              file=sys.stderr)
        return 2
    _write(outdir, "metadata.json", _json(
        {"tool": "reflectwalk", "version": __version__,
         "schema_version": SCHEMA_VERSION, "subcommand": args.subcommand,
         "config": cfg, **extra}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
