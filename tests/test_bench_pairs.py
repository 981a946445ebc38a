"""The summary arithmetic of tools/bench_pairs.py."""

import importlib.util
from types import SimpleNamespace
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bp = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bp)


def test_quartiles_interpolate_between_order_statistics():
    assert bp.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bp.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bp.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_counts_wins_and_ties_by_the_better_direction():
    base = [10.0, 10.0, 10.0, 10.0]
    head = [9.0, 11.0, 10.0, 8.0]
    lower = bp.summarize(base, head, "lower", 0.1)
    assert (lower["wins"], lower["ties"], lower["pairs"]) == (2, 1, 4)
    higher = bp.summarize(base, head, "higher", 0.1)
    assert (higher["wins"], higher["ties"]) == (1, 1)


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_base_iqr():
    base = [48.6, 48.7, 48.5, 48.8, 48.6, 48.7, 48.9, 48.6, 48.5, 48.7]
    head = [46.5] * 9 + [49.0]                      # 9 wins of 10
    s = bp.summarize(base, head, "lower", 0.1)
    assert s["wins"] == 9 and s["gain"]
    assert s["base_iqr"] == pytest.approx(0.1, abs=1e-12)
    assert s["median_delta"] == pytest.approx(46.5 - 48.65)
    assert not bp.summarize(base, [46.5] * 8 + [49.0] * 2, "lower", 0.1)["gain"]
    # every pair won, but by less than the base's own spread
    close = [v - 0.05 for v in base]
    assert not bp.summarize(base, close, "lower", 0.1)["gain"]


def test_within_bound_reads_the_bound_as_a_fraction_of_the_base_median():
    base = [1.0, 1.0, 1.0]
    assert bp.summarize(base, [1.2, 1.2, 1.2], "lower", 0.25)["within_bound"]
    assert not bp.summarize(base, [1.3, 1.3, 1.3], "lower", 0.25)["within_bound"]
    assert bp.summarize(base, [0.5, 0.5, 0.5], "lower", 0.0)["within_bound"]
    assert not bp.summarize(base, [0.7, 0.7, 0.7], "higher", 0.25)["within_bound"]


def test_steady_needs_both_sides_to_spread_less_than_the_bound():
    base = [76.0, 76.2, 75.9, 76.1]                 # IQR 0.15; bound 10% -> 7.6
    assert bp.summarize(base, [69.0, 69.5, 68.8, 69.2], "lower", 0.1)["steady"]
    bimodal = bp.summarize(base, [68.5, 77.0, 68.6, 77.1], "lower", 0.1)
    assert bimodal["change_iqr"] == pytest.approx(77.025 - 68.575, abs=1e-9)
    assert bimodal["within_bound"] and not bimodal["steady"]
    assert not bp.summarize(bimodal["change"], base, "lower", 0.05)["steady"]


def test_summary_refuses_unpaired_values():
    with pytest.raises(ValueError):
        bp.summarize([1.0, 2.0], [1.0], "lower", 0.1)
    with pytest.raises(ValueError):
        bp.summarize([], [], "lower", 0.1)


def test_per_job_rows_read_memory_once_and_time_the_warm_rounds(monkeypatch):
    # a fake clock: each job moves it by its next duration, the warm-up first
    clock = [0.0]
    durations = {"a": [9.0, 1.0, 3.0, 2.0], "b": [7.0, 4.0, 6.0, 5.0]}
    calls = {"a": 0, "b": 0}

    def job(name, fail=False):
        def run():
            clock[0] += durations[name][calls[name]]
            calls[name] += 1
            if fail:
                raise RuntimeError("refused")
        return run

    monkeypatch.setattr(bp.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(bp, "_rss_mb", lambda: (10.0 + clock[0], 20.0 + clock[0]))
    rows = bp.time_jobs([("a", job("a")), ("b", job("b", fail=True))], rounds=3)
    assert calls == {"a": 4, "b": 4}
    # memory after each job of the warm-up round; the median of the timed rounds
    assert rows == [["a", 19.0, 29.0, 2.0], ["b (raised RuntimeError)", 26.0, 36.0, 5.0]]


def test_peak_rss_is_never_below_the_current_rss(monkeypatch):
    # a lagging ru_maxrss (here 1 KB) reads as the current value
    monkeypatch.setattr(bp.resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=1))
    current, peak = bp._rss_mb()
    assert current > 1e-3 and peak == current
