"""Seeded inputs: reproducible, seed-dependent laws, seed-independent work."""

import json

import pytest

import workloads


def _work_shape(value, top=True):
    """The spec with random content masked: sizes stay, laws keep their length.

    Integers directly under a dict key are sizes (steps, replicas, words);
    numbers inside lists are atom positions or probabilities.  Seeds are
    dropped.
    """
    if isinstance(value, dict):
        return {k: _work_shape(v, top=True) for k, v in value.items() if k != "seed"}
    if isinstance(value, list):
        return [_work_shape(v, top=False) for v in value]
    if isinstance(value, float) or not top:
        return type(value).__name__
    return value


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = json.dumps(workloads.generate(workload, 7))
    b = json.dumps(workloads.generate(workload, 7))
    assert a == b


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seeds_different_laws(workload):
    def laws(specs):
        return [{k: v for k, v in s.items() if k != "seed"} for s in specs]
    assert laws(workloads.generate(workload, 1)) != laws(workloads.generate(workload, 2))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_does_not_depend_on_seed(workload):
    shapes = {json.dumps(_work_shape(workloads.generate(workload, s))) for s in range(8)}
    assert len(shapes) == 1


def test_enumerated_words_fixed_band():
    for seed in range(8):
        spec = next(s for s in workloads.generate("exact_analysis", seed)
                    if s["name"] == "symmetrization_check.exact")
        sizes = [len(a) for a in spec["laws_1d"]]
        sizes += [len(a) * len(b) for a, b in spec["laws_2d"]]
        assert {n ** spec["n"] for n in sizes} == {4 ** 6}


def test_job_names_unique_and_known_failures_exist():
    names = [s["name"] for w in workloads.WORKLOADS for s in workloads.generate(w, 0)]
    assert len(names) == len(set(names))
    assert set(workloads.KNOWN_FAILURES) <= set(names)


def test_stationary_law_closed_form():
    # mu = {1: 1/2, 2: 1/2}: nu = {0: 1/2, 1: 3/4, 2: 1/4} with mass E(Y) = 3/2
    nu = workloads.stationary_law([[1, 0.5], [2, 0.5]])
    assert nu == pytest.approx({0: 1 / 3, 1: 1 / 2, 2: 1 / 6})


def test_closed_classes_brute_force():
    # golden example (a): support {(2,3), (3,2)} on the box [0,3]^2
    classes = workloads.closed_classes([(2, 3), (3, 2)], (3, 3))
    want = {(i, j) for i in range(4) for j in range(4)} - {(0, 0), (2, 3), (3, 2), (3, 3)}
    assert classes == [want]


def test_span_gf2():
    assert workloads.span_gf2([(1, 1, 0), (0, 1, 1)]) == {
        (0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)}
