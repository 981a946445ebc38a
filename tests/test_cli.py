"""Command-line interface tests: schemas, golden outputs, reproducibility."""

import json
import math

import yaml

from reflectwalk import cli


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def write_yaml(path, obj):
    path.write_text(yaml.safe_dump(obj))
    return str(path)


def test_invariant_golden_output(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "c.yaml",
                     {"measure": {"atoms": [[1, 0.5], [2, 0.5]]}})
    rc, out, _ = run_cli(capsys, "invariant", "--config", cfg)
    assert rc == 0
    assert out.splitlines() == ["x,mass", "0,0.5", "1,0.75", "2,0.25",
                                "total_mass,1.5"]


def test_criteria_output_schema(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "c.yaml",
                     {"measure": {"atoms": [[5, 1.0]]}, "truncation": 4096})
    rc, out, _ = run_cli(capsys, "criteria", "--config", cfg)
    payload = json.loads(out)
    assert rc == 0
    assert payload["schema_version"] == 1
    assert payload["sqrt_moment"] == "holds"
    assert payload["truncation"] == 4096


def test_classes_golden_coset_split(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "c.yaml", {
        "joint": {"dims": [2, 0, 0, 0],
                  "atoms": [[[-1, 3], 0.5], [[3, -1], 0.5]]},
        "window": 12,
    })
    rc, out, _ = run_cli(capsys, "classes", "--config", cfg, "--out",
                         str(tmp_path / "run"))
    assert rc == 0
    payload = json.loads((tmp_path / "run" / "classes.json").read_text())
    assert payload["n_cosets"] == 2
    assert payload["parity_group"] == [[0, 0], [1, 1]]
    by_coset = {c["coset_index"]: c for c in payload["classes"]}
    even = {(i, j) for i in range(13) for j in range(13)
            if (i + j) % 2 == 0} - {(0, 0)}
    assert {tuple(m) for m in by_coset[0]["members"]} == even
    assert by_coset[0]["transient_classes"] == [[[0, 0]]]


def test_witness_passes_and_writes(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "c.yaml",
                     {"measure": {"atoms": [[2, 0.5], [3, 0.5]]},
                      "verified_range": 50})
    rc, out, _ = run_cli(capsys, "witness", "--config", cfg, "--out",
                         str(tmp_path / "w"))
    assert rc == 0
    assert "PASS" in out
    payload = json.loads((tmp_path / "w" / "witness.json").read_text())
    assert payload["checks_passed"] is True
    assert payload["verified_k"] == 50


def test_validate_reports_failures(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "c.yaml", {
        "joint": {"dims": [1, 0, 3, 0],
                  "product": [{"atoms": [[2, 0.5], [4, 0.5]]}]
                  + [{"atoms": [[-1, 0.5], [1, 0.5]]}] * 3},
    })
    rc, out, _ = run_cli(capsys, "validate", "--config", cfg)
    assert rc == 0  # validate always reports
    payload = json.loads(out)
    assert payload["ok"] is False
    status = {c["check"]: c["status"] for c in payload["checks"]}
    assert status["dims_free"] == "failed"
    assert status["normalized_0"] == "failed"
    msg = [c["message"] for c in payload["checks"]
           if c["check"] == "normalized_0"][0]
    assert "divide the lattice by 2" in msg


def test_validate_reports_what_walk_spec_refuses(tmp_path, capsys):
    # a finite joint law with a continuous reflected coordinate: WalkSpec takes
    # it whatever the gcd of its values, so validate must pass it too
    for i, (atoms, refused) in enumerate([
            ([[[2.0], 0.5], [[4.0], 0.5]], False),
            ([[[2, 1], 0.5], [[4, 3], 0.5]], True)]):
        dims = [2, 0, 0, 0] if len(atoms[0][0]) == 2 else [0, 1, 0, 0]
        cfg = {"joint": {"dims": dims, "atoms": atoms}}
        rc, out, _ = run_cli(capsys, "validate", "--config",
                             write_yaml(tmp_path / f"v{i}.yaml", cfg))
        assert rc == 0 and json.loads(out)["ok"] is not refused
        rc, _, err = run_cli(capsys, "simulate", "--config",
                             write_yaml(tmp_path / f"s{i}.yaml", dict(cfg, steps=5)),
                             "--out", str(tmp_path / f"s{i}"))
        assert (rc == 2) is refused


def test_json_writes_numpy_scalars_as_numbers():
    import numpy as np
    text = cli._json({"n": np.int64(3), "x": np.float32(0.5), "ok": np.bool_(True),
                      "a": np.arange(2)})
    assert json.loads(text) == {"n": 3, "x": 0.5, "ok": True, "a": [0, 1]}


def test_ladder_auto_refuses_a_slightly_downward_law(tmp_path, capsys):
    # mean -5e-10 is a drift by the one centring rule, so the Monte Carlo
    # fallback refuses it as the exact inversion does
    cfg = write_yaml(tmp_path / "c.yaml", {
        "measure": {"atoms": [[-1, 0.5 + 2.5e-10], [1, 0.5 - 2.5e-10]]},
        "samples": 200, "step_cap": 10_000})
    rc, out, err = run_cli(capsys, "ladder", "--config", cfg)
    assert rc == 2 and out == ""
    assert "drift" in json.loads(err)["message"]


CLASSES_LAW_B = {"joint": {"dims": [2, 0, 0, 0],
                           "atoms": [[[-1, 2], 0.5], [[2, -1], 0.5]]}}


def test_classes_negative_window_exits_with_code_2(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "c.yaml", dict(CLASSES_LAW_B, window=-1))
    rc, out, err = run_cli(capsys, "classes", "--config", cfg)
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "MeasureError"


def test_classes_refuses_a_margin_and_replays_a_null_one(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "classes", "--config",
                         write_yaml(tmp_path / "m.yaml", dict(CLASSES_LAW_B, window=6,
                                                              margin=8)))
    assert rc == 2 and "margin" in json.loads(err)["message"]
    # an older metadata.json echoes margin: null; it still replays byte for byte
    rc, _, _ = run_cli(capsys, "classes", "--config",
                       write_yaml(tmp_path / "n.yaml", dict(CLASSES_LAW_B, window=6)),
                       "--out", str(tmp_path / "a"))
    assert rc == 0
    meta = json.loads((tmp_path / "a" / "metadata.json").read_text())
    meta["config"]["margin"] = None
    (tmp_path / "old.json").write_text(json.dumps(meta))
    rc, _, _ = run_cli(capsys, "classes", "--config", str(tmp_path / "old.json"),
                       "--out", str(tmp_path / "b"))
    assert rc == 0
    assert ((tmp_path / "a" / "classes.json").read_text()
            == (tmp_path / "b" / "classes.json").read_text())


def test_validate_flags_trivial_reflecting_marginal(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "c.yaml", {
        "joint": {"dims": [1, 0, 0, 0],
                  "product": [{"atoms": [[-2, 0.5], [0, 0.5]]}]},
    })
    rc, out, _ = run_cli(capsys, "validate", "--config", cfg)
    payload = json.loads(out)
    assert payload["ok"] is False


def test_error_exit_is_machine_readable(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "c.yaml",
                     {"measure": {"atoms": [[-1, 0.5], [1, 0.5]]}})
    rc, out, err = run_cli(capsys, "invariant", "--config", cfg)
    assert rc == 2
    payload = json.loads(err)
    assert payload["error"] == "MeasureError"
    assert "ladder" in payload["message"]


def test_ladder_exact_and_mc(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "c.yaml",
                     {"measure": {"atoms": [[-1, 0.5], [1, 0.5]]},
                      "method": "exact"})
    rc, out, _ = run_cli(capsys, "ladder", "--config", cfg)
    assert rc == 0
    assert "0,0.5" in out and "1,0.5" in out
    cfg2 = write_yaml(tmp_path / "c2.yaml",
                      {"measure": {"atoms": [[-1, 0.5], [1, 0.5]]},
                       "method": "monte_carlo", "samples": 2000,
                       "step_cap": 100000, "seed": 3})
    rc2, out2, _ = run_cli(capsys, "ladder", "--config", cfg2)
    assert rc2 == 0 and "method,monte_carlo" in out2


def test_ladder_auto_falls_back_where_the_inversion_refuses(tmp_path, capsys):
    tailed = {"measure": {"family": "wiener_hopf_log_tail", "cutoff": 1000},
              "samples": 2000, "step_cap": 100000, "seed": 1}
    rc, out, _ = run_cli(capsys, "ladder", "--config",
                         write_yaml(tmp_path / "t.yaml", tailed))
    assert rc == 0 and "method,monte_carlo" in out
    rc, _, err = run_cli(capsys, "ladder", "--config", write_yaml(
        tmp_path / "e.yaml", dict(tailed, method="exact")))
    assert rc == 2 and json.loads(err)["error"] == "MeasureError"
    rc, out, _ = run_cli(capsys, "ladder", "--config", write_yaml(
        tmp_path / "f.yaml", {"measure": {"atoms": [[1, 0.5], [2, 0.5]]}}))
    assert rc == 0 and "method,exact_skip_free" in out


def test_simulate_and_backward_artifacts(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "c.yaml", {
        "measure": {"atoms": [[1, 0.5], [2, 0.5]]},
        "steps": 50, "seed": 9,
    })
    rc, out, _ = run_cli(capsys, "simulate", "--config", cfg, "--out",
                         str(tmp_path / "sim"))
    assert rc == 0
    rows = (tmp_path / "sim" / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "step,x0"
    assert len(rows) == 52
    cfgb = write_yaml(tmp_path / "b.yaml", {
        "measure": {"atoms": [[1, 0.5], [2, 0.5]]},
        "parity": [0], "horizon": 200, "samples": 500, "seed": 4,
    })
    rcb, outb, _ = run_cli(capsys, "backward", "--config", cfgb, "--out",
                           str(tmp_path / "bw"))
    assert rcb == 0
    assert "converged fraction: 1.0" in outb


def test_simulate_without_out_is_refused(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "c.yaml", {
        "measure": {"atoms": [[1, 0.5], [2, 0.5]]}, "steps": 50, "seed": 9})
    rc, out, err = run_cli(capsys, "simulate", "--config", cfg)
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "MeasureError", "message": "simulate needs --out"}


A12 = {"atoms": [[1, 0.5], [2, 0.5]]}
PM = {"atoms": [[-1, 0.5], [1, 0.5]]}
CATEGORIES = {"positive_evidence", "null_evidence", "transient_evidence",
              "inconclusive"}


def test_experiment_batch_and_metadata_regeneration(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "exp.yaml", {
        "seed": 1234,
        "experiments": [
            {"name": "occ", "probe": "occupation", "measure": A12,
             "steps": 20_000, "burn_in": 1000},
            {"name": "ret", "probe": "return_time", "measure": A12,
             "budget": 20000, "replicas": 8},
            {"name": "sym", "probe": "symmetrization",
             "joint": {"dims": [0, 0, 1, 0], "product": [PM]}, "horizon": 3},
            {"name": "symmc", "probe": "symmetrization", "mode": "monte_carlo",
             "joint": {"dims": [1, 0, 0, 0], "product": [PM]}, "horizon": 4,
             "samples": 2000},
            {"name": "ces", "probe": "cesaro",
             "joint": {"dims": [2, 0, 0, 0], "product": [A12, A12]},
             "set1": [0, 1], "set2": [0, 1], "steps": 20_000},
            {"name": "rpf", "probe": "reflected_plus_free",
             "joint": {"dims": [1, 0, 1, 0], "product": [A12, PM]},
             "budget": 8000, "replicas": 4, "wald_cycles": 2000},
            {"name": "null1", "probe": "null_probe", "factors": [PM],
             "grid": [64, 128, 256, 512], "replicas": 2000},
            {"name": "null2", "probe": "null_probe", "factors": [PM, PM],
             "grid": [64, 128, 256, 512], "replicas": 2000},
            {"name": "dim", "probe": "dimension",
             "joint": {"dims": [2, 0, 0, 0], "product": [PM, PM]},
             "budget": 10_000, "replicas": 16},
            {"name": "sub", "probe": "subordinated_exponent", "alpha": 0.6,
             "n_max": 1024, "replicas": 5000},
        ],
    })
    out1 = tmp_path / "run1"
    rc, out, _ = run_cli(capsys, "experiment", "--config", cfg, "--out", str(out1))
    assert rc == 0
    ev = json.loads((out1 / "ret.json").read_text())
    assert ev["evidence"]["category"] == "positive_evidence"
    sym = json.loads((out1 / "sym.json").read_text())
    assert sym["max_discrepancy"] < 1e-12
    # one summary line per entry, each a category or a finite number
    summaries = dict(line.split(": ") for line in out.splitlines())
    assert list(summaries) == ["occ", "ret", "sym", "symmc", "ces", "rpf",
                               "null1", "null2", "dim", "sub"]
    for value in summaries.values():
        assert value in CATEGORIES or math.isfinite(float(value)), value
    # every artifact ends with exactly one newline
    artifacts = sorted(p.name for p in out1.iterdir())
    assert len(artifacts) == 10 + 6 + 1          # json per entry, 6 csv, metadata
    for name in artifacts:
        text = (out1 / name).read_text()
        assert text.endswith("\n") and not text.endswith("\n\n"), name
    # regenerate from the metadata file alone, byte for byte
    out2 = tmp_path / "run2"
    rc2, _, _ = run_cli(capsys, "experiment", "--config",
                        str(out1 / "metadata.json"), "--out", str(out2))
    assert rc2 == 0
    assert sorted(p.name for p in out2.iterdir()) == artifacts
    for name in artifacts:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_experiment_unknown_probe_and_bad_thread_count(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "bad.yaml",
                     {"experiments": [{"probe": "nope"}]})
    rc, _, err = run_cli(capsys, "experiment", "--config", cfg, "--out",
                         str(tmp_path / "o"))
    assert rc == 2 and json.loads(err)["message"] == "unknown probe 'nope'"
    assert not (tmp_path / "o" / "metadata.json").exists()
    rc, _, err = run_cli(capsys, "experiment", "--config", cfg, "--out",
                         str(tmp_path / "o"), "--threads", "0")
    assert rc == 2 and "threads" in json.loads(err)["message"]


def test_experiment_results_independent_of_thread_count(tmp_path, capsys):
    cfg = {
        "seed": 77,
        "experiments": [
            {"name": f"probe{i}", "probe": "return_time",
             "measure": {"atoms": [[1, 0.5], [2, 0.5]]},
             "budget": 10_000, "replicas": 4}
            for i in range(3)
        ],
    }
    p = write_yaml(tmp_path / "batch.yaml", cfg)
    rc1, _, _ = run_cli(capsys, "experiment", "--config", p, "--out",
                        str(tmp_path / "serial"), "--threads", "1")
    rc2, _, _ = run_cli(capsys, "experiment", "--config", p, "--out",
                        str(tmp_path / "pooled"), "--threads", "3")
    assert rc1 == rc2 == 0
    for i in range(3):
        a = (tmp_path / "serial" / f"probe{i}.json").read_text()
        b = (tmp_path / "pooled" / f"probe{i}.json").read_text()
        assert a == b


def test_simulate_regeneration_bitwise(tmp_path, capsys):
    cfg = write_yaml(tmp_path / "c.yaml", {
        "measure": {"atoms": [[1, 0.25], [2, 0.75]]}, "steps": 200, "seed": 5,
    })
    rc, _, _ = run_cli(capsys, "simulate", "--config", cfg, "--out",
                       str(tmp_path / "a"))
    rc2, _, _ = run_cli(capsys, "simulate", "--config",
                        str(tmp_path / "a" / "metadata.json"), "--out",
                        str(tmp_path / "b"))
    assert rc == rc2 == 0
    assert (tmp_path / "a" / "trajectory.csv").read_bytes() == \
        (tmp_path / "b" / "trajectory.csv").read_bytes()
