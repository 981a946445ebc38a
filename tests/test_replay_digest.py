"""tools/replay_digest.py: canonical texts, digests and their comparison."""

import importlib.util
import re
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "replay_digest.py"
spec = importlib.util.spec_from_file_location("replay_digest", TOOL)
rd = importlib.util.module_from_spec(spec)
spec.loader.exec_module(rd)

THREE = ["simulate", "occupation_vs_invariant.counts", "symmetrization_check[exact]"]


def test_three_calls_replay_to_the_same_digests():
    first = rd.run_tree(rd.ROOT, THREE)
    assert list(first) == THREE
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in first.values())
    assert rd.run_tree(rd.ROOT, THREE) == first
    assert rd.differences(first, rd.run_tree(rd.ROOT, THREE)) == []


def test_canonical_texts_ignore_dict_order_and_keep_every_bit():
    assert rd.canonical({(1,): 2, (0,): 3}) == rd.canonical({(0,): 3, (1,): 2})
    assert rd.canonical(0.1) != rd.canonical(np.nextafter(0.1, 1.0))
    assert rd.canonical(np.arange(3)) != rd.canonical(np.arange(3.0))
    assert rd.canonical(np.zeros((2, 3))) != rd.canonical(np.zeros((3, 2)))
    assert rd.canonical(True) != rd.canonical(1)


def test_differences_name_changed_and_missing_calls():
    base = {"a": "1", "b": "2", "c": "3"}
    change = {"a": "1", "b": "9", "d": "4"}
    assert rd.differences(base, change) == [("b", "2", "9"), ("c", "3", None),
                                            ("d", None, "4")]
