"""Each correctness check registers a failed operation when it should.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.streaming import StreamingScorer
from repro.hmm import random_model
from repro.hmm.model import HiddenMarkovModel

import gateway
import offline
from harness import Checks, Tracer, build_ledger

ALPHABET = [f"call_{i}" for i in range(12)]


def perturbed(model: HiddenMarkovModel) -> HiddenMarkovModel:
    """The same model with its first transition row shifted slightly."""
    transition = model.transition.copy()
    transition[0] = np.roll(transition[0], 1)
    return HiddenMarkovModel(
        transition=transition,
        emission=model.emission.copy(),
        initial=model.initial.copy(),
        symbols=list(model.symbols),
    )


def symbol_streams(n: int, length: int, seed: int) -> list[list[str]]:
    rng = np.random.default_rng(seed)
    return [
        [ALPHABET[i] for i in rng.integers(0, len(ALPHABET), size=length)]
        for _ in range(n)
    ]


# -- gateway_stream --------------------------------------------------------


def served_phase(model, streams) -> gateway.Phase:
    """What a faithful gateway would have answered for ``streams``."""
    phase = gateway.Phase()
    for index, symbols in enumerate(streams):
        log = gateway.SessionLog(f"s{index}", symbols)
        scorer = StreamingScorer(model, window=gateway.WINDOW)
        for symbol in symbols:
            log.surprise.append(scorer.observe(symbol))
            log.windowed.append(
                scorer.windowed_score if scorer.window_full else math.nan
            )
        log.statuses = [200] * (len(symbols) + 2)  # open, each event, close
        phase.sessions.append(log)
    return phase


def gateway_failures(phase, model) -> int:
    checks = Checks()
    gateway.check_phase(phase, model, checks)
    return checks.failed


def test_gateway_check_passes_faithful_responses():
    model = random_model(ALPHABET, n_states=6, seed=1)
    assert gateway_failures(served_phase(model, symbol_streams(3, 40, 0)), model) == 0


def test_gateway_check_catches_perturbed_model():
    model = random_model(ALPHABET, n_states=6, seed=1)
    phase = served_phase(perturbed(model), symbol_streams(3, 40, 0))
    assert gateway_failures(phase, model) > 0


def test_gateway_check_catches_dropped_response():
    model = random_model(ALPHABET, n_states=6, seed=1)
    phase = served_phase(model, symbol_streams(3, 40, 0))
    phase.sessions[0].statuses[5] = 503
    phase.sessions[1].surprise[7] = math.nan
    assert gateway_failures(phase, model) == 2


# -- offline_train ---------------------------------------------------------


def fake_pass(auc: float = 0.97, n_states: int = 10) -> offline.PassResult:
    detector = offline.DetectorResult(
        "gzip", "libcall", n_states, 4, auc, np.array([-1.0, -2.0]), np.array([-9.0])
    )
    return offline.PassResult(1.0, 100, [detector], [1.0])


EXPECTED = {
    "seed": 0,
    "auc_digits": 6,
    "auc_floor": 0.85,
    "detectors": {"gzip/libcall": {"n_states": 10, "iterations": 4, "auc": 0.97}},
}


def offline_failures(result, reference, seed) -> int:
    checks = Checks()
    offline.check_pass(result, reference, seed, EXPECTED, checks)
    return checks.failed


def test_offline_check_passes_recorded_values():
    assert offline_failures(fake_pass(), fake_pass(), 0) == 0


@pytest.mark.parametrize(
    "result, seed",
    [
        (fake_pass(n_states=11), 0),  # a different state count at the recorded seed
        (fake_pass(auc=0.96), 0),  # a different AUC at the recorded seed
        (fake_pass(auc=0.5), 3),  # AUC under the floor at any seed
    ],
)
def test_offline_check_catches_wrong_results(result, seed):
    assert offline_failures(result, None, seed) == 1


def test_offline_check_catches_non_finite_and_drifting_scores():
    broken = fake_pass()
    broken.detectors[0].normal_scores[0] = -np.inf
    assert offline_failures(broken, fake_pass(), 3) == 1


# -- the ledger --------------------------------------------------------------


def test_ledger_subtracts_replays_and_names_the_residue():
    tracer = Tracer()
    pump = tracer.record("service.pump", "service", 0.0, 1.0)
    root = tracer.record("service.pump.replay", "service", 1.0, 1.7, pump, 0, True)
    tracer.record("hmm.kernels.fleet", "hmm.kernels", 1.1, 1.6, root, 0, True)
    tracer.record("bench.collect", "bench", 1.7, 1.9)
    ledger = build_ledger(tracer, 2.5 - tracer.replay_time())
    assert ledger.layers == pytest.approx({"service": 0.5, "hmm.kernels": 0.5})
    assert ledger.unattributed_share == pytest.approx(1 - 1.0 / 1.8)
