"""The pieces that make a run's figures repeat: fixed work and quiet rounds.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.tracing.events import Trace

import harness
import offline


def suite(lengths):
    return SimpleNamespace(
        traces=[Trace("p", f"case-{i}", list(range(n))) for i, n in enumerate(lengths)]
    )


def test_budget_cuts_the_suite_to_a_fixed_event_count(monkeypatch):
    monkeypatch.setitem(offline.EVENT_BUDGET, "p", 10)
    traces, generated = offline.budget_traces(
        SimpleNamespace(name="p"), 0, lambda program, n, seed: suite([4, 4, 4, 4])
    )
    assert [len(t) for t in traces] == [4, 4, 2]
    assert generated == 16
    assert traces[2].events == [0, 1]


def test_budget_reruns_a_short_suite_with_more_cases(monkeypatch):
    monkeypatch.setitem(offline.EVENT_BUDGET, "p", 10)
    asked = []

    def generate(program, n_cases, seed):
        asked.append(n_cases)
        return suite([3] * (n_cases // offline.N_CASES) * 2)

    traces, generated = offline.budget_traces(SimpleNamespace(name="p"), 0, generate)
    assert asked == [offline.N_CASES, 2 * offline.N_CASES]
    assert sum(len(t) for t in traces) == 10 and generated == 12


def test_fastest_pass_sums_each_steps_fastest_repeat():
    passes = [
        offline.PassResult(6.0, 1, [], [1.0, 5.0]),
        offline.PassResult(5.0, 1, [], [2.0, 3.0]),
    ]
    assert offline.fastest_pass_s(passes) == pytest.approx(4.0)


def test_round_figures_come_from_the_quiet_rounds():
    # Twelve rounds at the slow speed and eight at the fast one: the median
    # round is a slow one, the quiet rounds are fast.
    walls = [2.0] * 12 + [1.0] * 8
    latency = [w / 10 for w in walls for _ in range(20)]
    marks = [20 * (i + 1) for i in range(len(walls))]
    figures = harness.round_metrics(walls, latency, marks, 100)
    assert figures["wall_s"] == pytest.approx(1.0)
    assert figures["events_per_s"] == pytest.approx(100.0)
    assert figures["latency_p50_ms"] == pytest.approx(100.0)
    assert figures["latency_p90_ms"] == pytest.approx(100.0)
