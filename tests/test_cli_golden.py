"""Golden artifacts of the exact (seed-free) CLI subcommands.

Each case runs one subcommand on a fixed config and compares the artifact
it writes (or, for ``validate``, what it prints) with the file of the same
name under ``tests/golden``, byte for byte.  None of these outputs reads a
random stream, so a change of seeded streams cannot move them.
"""

from pathlib import Path

import pytest
import yaml

from reflectwalk import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "classes_coset_split.json": ("classes", {
        "joint": {"dims": [2, 0, 0, 0], "atoms": [[[-1, 3], 0.5], [[3, -1], 0.5]]},
        "window": 12}),
    "classes_nonneg.json": ("classes", {
        "joint": {"dims": [2, 0, 0, 0], "atoms": [[[2, 3], 0.5], [[3, 2], 0.5]]},
        "window": 5}),
    "classes_3d.json": ("classes", {
        "joint": {"dims": [3, 0, 0, 0],
                  "atoms": [[[1, 0, 2], 0.25], [[0, 1, 1], 0.25],
                            [[2, 1, 0], 0.25], [[1, 2, 1], 0.25]]},
        "window": 3}),
    "witness_2_3.json": ("witness", {
        "measure": {"atoms": [[2, 0.5], [3, 0.5]]}, "verified_range": 12}),
    "witness_m4_6_9.json": ("witness", {
        "measure": {"atoms": [[-4, 0.3], [6, 0.3], [9, 0.4]]}, "verified_range": 12}),
    "invariant_lattice.csv": ("invariant", {
        "measure": {"atoms": [[1, 0.5], [2, 0.5]]}}),
    "invariant_continuous.csv": ("invariant", {
        "measure": {"family": "uniform", "a": 0.0, "b": 1.0},
        "grid": [0.0, 0.1, 0.25, 0.5, 0.9, 1.0, 1.5]}),
    "ladder_exact.csv": ("ladder", {
        "measure": {"atoms": [[-1, 0.5], [0, 0.1], [1, 0.3], [2, 0.1]]},
        "method": "exact"}),
    "criteria.json": ("criteria", {
        "measure": {"atoms": [[5, 0.5], [7, 0.5]]}, "truncation": 4096}),
    "validate_failing.txt": ("validate", {
        "joint": {"dims": [1, 0, 3, 0],
                  "product": [{"atoms": [[2, 0.5], [4, 0.5]]}]
                  + [{"atoms": [[-1, 0.5], [1, 0.5]]}] * 3}}),
    "validate_passing.txt": ("validate", {
        "joint": {"dims": [2, 0, 1, 0],
                  "product": [{"atoms": [[1, 0.5], [2, 0.5]]}] * 2
                  + [{"atoms": [[-1, 0.5], [1, 0.5]]}]}}),
}

ARTIFACT = {"classes": "classes.json", "witness": "witness.json",
            "invariant": "invariant.csv", "ladder": "ladder.csv",
            "criteria": "criteria.json"}


@pytest.mark.parametrize("golden", sorted(CASES))
def test_cli_artifact_matches_golden(golden, tmp_path, capsys):
    sub, cfg = CASES[golden]
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = cli.main([sub, "--config", str(path), "--out", str(tmp_path / "out")])
    printed = capsys.readouterr().out
    assert rc == 0
    got = printed if sub == "validate" else (tmp_path / "out" / ARTIFACT[sub]).read_text()
    assert got == (GOLDEN / golden).read_text()
