"""Self-time arithmetic, layer attribution and the wrapper install."""

import json
from pathlib import Path

import pytest

import run
import tracing
import workloads
from tracing import Span

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _tree():
    # round [0, 10]
    #   reflect_core.simulate [1, 6]
    #     measures.JointMeasure.sample [2, 4] draws 100
    #       measures.Measure1D.sample [2.5, 3.5] draws 100 (nested: not outermost)
    #     measures.JointMeasure.sample [4.5, 5] draws 50
    #   exact_1d.recurrence_criteria [7, 9]
    #   diagnostics.dimension_transience_probe [9, 9.5] replica_steps 64
    return [
        Span("round", 0.0, 10.0, -1),
        Span("reflect_core.simulate", 1.0, 6.0, 0),
        Span("measures.JointMeasure.sample", 2.0, 4.0, 1, {"draws": 100}),
        Span("measures.Measure1D.sample", 2.5, 3.5, 2, {"draws": 100}),
        Span("measures.JointMeasure.sample", 4.5, 5.0, 1, {"draws": 50}),
        Span("exact_1d.recurrence_criteria", 7.0, 9.0, 0),
        Span("diagnostics.dimension_transience_probe", 9.0, 9.5, 0,
             {"replica_steps": 64}),
    ]


def test_self_times():
    assert tracing.self_times(_tree()) == pytest.approx(
        [10 - 5 - 2 - 0.5, 5 - 2 - 0.5, 2 - 1, 1, 0.5, 2, 0.5])


def test_layer_metrics_attribution():
    m = tracing.layer_metrics(_tree(), 0)
    assert m["reflect_core.simulate.self_s"] == pytest.approx(2.5)
    assert m["measures.JointMeasure.sample.self_s"] == pytest.approx(1.5)
    assert m["measures.Measure1D.sample.self_s"] == pytest.approx(1.0)
    assert m["measures.JointMeasure.sample.calls"] == 2
    assert m["reflect_core.simulate.replica_steps"] == 150      # outermost draws only
    assert m["diagnostics.dimension_transience_probe.replica_steps"] == 64
    assert m["measures.draws_per_call"] == pytest.approx(75.0)
    assert m["measures.draws_per_s"] == pytest.approx(150 / 2.5)
    assert m["reflect_core.replica_steps_per_s"] == pytest.approx(150 / 5.0)
    assert m["bench.self_s"] == pytest.approx(2.5)
    assert m["trace.wall_s"] == 10.0
    total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert total == pytest.approx(m["trace.wall_s"])


def test_layer_metrics_ignore_other_rounds():
    spans = _tree() + [Span("round", 11.0, 12.0, -1),
                       Span("reflect_core.simulate", 11.0, 11.5, 7)]
    assert tracing.layer_metrics(spans, 0) == tracing.layer_metrics(_tree(), 0)
    assert tracing.layer_metrics(spans, 7)["reflect_core.simulate.calls"] == 1


def test_install_records_nested_calls_and_restores():
    from reflectwalk import exact_1d, measures, reflect_core
    import reflectwalk
    originals = (reflect_core.backward_sample, reflectwalk.backward_sample,
                 exact_1d.classify_positive_recurrence, measures.JointMeasure.sample)
    law = measures.JointMeasure.product(
        (1, 0, 0, 0), [measures.Measure1D.lattice({1: 0.5, 2: 0.5})])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("round"):
            reflectwalk.backward_sample(reflect_core.WalkSpec(law), [0], 50, 1,
                                        n_samples=10)
    finally:
        tracer.uninstall()
    assert (reflect_core.backward_sample, reflectwalk.backward_sample,
            exact_1d.classify_positive_recurrence,
            measures.JointMeasure.sample) == originals
    parent = {i: tracer.spans[s.parent].name for i, s in enumerate(tracer.spans)
              if s.parent >= 0}
    names = [s.name for s in tracer.spans]
    assert names[1] == "reflect_core.backward_sample"
    assert parent[names.index("exact_1d.classify_positive_recurrence")] == \
        "reflect_core.backward_sample"
    m = tracing.layer_metrics(tracer.spans, 0)
    assert m["reflect_core.backward_sample.converged_frac"] == 1.0
    assert m["reflect_core.backward_sample.replica_steps"] == \
        m["measures.JointMeasure.sample.draws"] > 0


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads(BENCHMARK.read_text())
    rounds = [dict(traced=True, wall_s=10.0, root=0, measurements={}),
              dict(traced=False, wall_s=9.0)]
    names = run.per_layer_metrics(rounds, _tree(), workloads.PROBE_FAMILIES)
    assert [m["name"] for m in spec["per_layer"]] == list(names)
    assert all(m["unit"] == run._unit(m["name"]) for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
