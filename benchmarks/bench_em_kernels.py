"""EM-kernel and duplicate-aware-scoring throughput — the PR 5 fast paths.

Not a paper table: this bench pins the two hot-path rewrites in
``repro.hmm.kernels`` against verbatim copies of the implementations they
replaced (kept in this file as the "before" baselines):

* one Baum-Welch iteration of the *old* no-holdout train loop (unfused
  E-step materializing full alpha/beta/gamma arrays, plus the redundant
  monitoring pass over the training set) versus the fused
  ``em_forward``/``em_update`` pair on a bound ``EMWorkspace`` — target
  >= 2x iterations/s at B=4096, T=15, N=32;
* bulk window scoring of a 50 %-duplicate population through the old
  full-batch ``log_likelihood`` versus the dedup-and-scatter
  ``log_likelihood_unique`` — target >= 3x windows/s.

Two bit-identity gates make the speedups trustworthy (exit code 1 on any
divergence):

* the fused E-step must reproduce an in-file naive per-timestep reference
  exactly (same operation order, fresh arrays);
* the dedup scoring path must reproduce the current full-batch scoring
  exactly (the scoring kernel is batch-invariant by construction).

Usage::

    python benchmarks/bench_em_kernels.py [--smoke] [--out BENCH_em.json]

``--smoke`` runs fewer EM iterations and scoring repetitions (same
shapes) for CI; each EM side is still timed best-of-3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.hmm import HiddenMarkovModel, TrainingConfig, random_model
from repro.hmm.forward import log_likelihood
from repro.hmm.kernels import (
    SCALE_FLOOR,
    EMWorkspace,
    em_forward,
    em_update,
    log_likelihood_unique,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import (  # noqa: E402
    bench_host_metadata,
    bench_output_path,
    best_of,
    print_block,
    shape_line,
)

# Bench shape: the ISSUE's reference point — a realistic training batch
# (4096 deduplicated 15-call segments) over a mid-sized state space.
N_STATES = 32
N_SYMBOLS = 64
LENGTH = 15
BATCH = 4096
DUPLICATE_FRACTION = 0.5

EM_TARGET = 2.0
SCORING_TARGET = 3.0


# ---------------------------------------------------------------------------
# "Before" baselines — verbatim copies of the replaced implementations
# ---------------------------------------------------------------------------


def _legacy_forward(model, obs):
    """The unfused batch-major forward pass the seed shipped."""
    batch, length = obs.shape
    n = model.n_states
    emission_t = model.emission.T
    alpha = np.zeros((batch, length, n))
    scales = np.zeros((batch, length))
    current = model.initial[None, :] * emission_t[obs[:, 0]]
    norm = np.maximum(current.sum(axis=1), SCALE_FLOOR)
    alpha[:, 0] = current / norm[:, None]
    scales[:, 0] = norm
    for t in range(1, length):
        current = (alpha[:, t - 1] @ model.transition) * emission_t[obs[:, t]]
        norm = np.maximum(current.sum(axis=1), SCALE_FLOOR)
        alpha[:, t] = current / norm[:, None]
        scales[:, t] = norm
    return alpha, scales


def _legacy_backward(model, obs, scales):
    batch, length = obs.shape
    n = model.n_states
    emission_t = model.emission.T
    beta = np.zeros((batch, length, n))
    beta[:, length - 1] = 1.0
    for t in range(length - 2, -1, -1):
        weighted = beta[:, t + 1] * emission_t[obs[:, t + 1]]
        beta[:, t] = (weighted @ model.transition.T) / scales[:, t + 1][:, None]
    return beta


def _legacy_log_likelihood(model, obs):
    _, scales = _legacy_forward(model, obs)
    return np.log(scales).sum(axis=1)


def _legacy_em_step(model, obs, weights, config):
    """One unfused EM iteration: full alpha/beta/gamma materialization."""
    batch, length = obs.shape
    n, m = model.n_states, model.n_symbols
    alpha, scales = _legacy_forward(model, obs)
    beta = _legacy_backward(model, obs, scales)
    loglik = float(np.average(np.log(scales).sum(axis=1), weights=weights))
    gamma = alpha * beta
    gamma_norm = np.maximum(gamma.sum(axis=2, keepdims=True), SCALE_FLOOR)
    gamma = gamma / gamma_norm
    emission_t = model.emission.T
    w = weights[:, None]
    xi_sum = np.zeros((n, n))
    for t in range(length - 1):
        right = (
            beta[:, t + 1]
            * emission_t[obs[:, t + 1]]
            / scales[:, t + 1][:, None]
        )
        xi_sum += (alpha[:, t] * w).T @ right
    xi_sum *= model.transition
    emit_sum = np.zeros((n, m))
    weighted_gamma = gamma * w[:, :, None]
    flat_obs = obs.reshape(-1)
    flat_gamma = weighted_gamma.reshape(-1, n)
    np.add.at(emit_sum.T, flat_obs, flat_gamma)
    new_a = xi_sum + config.transition_floor
    new_a /= new_a.sum(axis=1, keepdims=True)
    new_b = emit_sum + config.emission_floor
    new_b /= new_b.sum(axis=1, keepdims=True)
    if config.update_initial:
        new_pi = np.average(gamma[:, 0], axis=0, weights=weights)
        new_pi = np.maximum(new_pi, 0)
        new_pi /= new_pi.sum()
    else:
        new_pi = model.initial
    updated = HiddenMarkovModel(
        transition=new_a,
        emission=new_b,
        initial=new_pi,
        symbols=model.symbols,
        state_labels=model.state_labels,
    )
    return updated, loglik


# ---------------------------------------------------------------------------
# Naive reference for the bit-identity gate (mirrors the kernel's op order)
# ---------------------------------------------------------------------------


def _reference_em_step(model, obs, weights, config):
    """Per-timestep reference with fresh arrays, same operation order as
    the fused kernel — the bench's ground truth for bit-identity."""
    batch, length = obs.shape
    n, m = model.n_states, model.n_symbols
    emission_t = model.emission.T
    transition_t = np.ascontiguousarray(model.transition.T)
    alpha = np.empty((length, batch, n))
    scales = np.empty((batch, length))
    current = model.initial[None, :] * emission_t[obs[:, 0]]
    norm = np.maximum(current.sum(axis=1), SCALE_FLOOR)
    alpha[0] = current / norm[:, None]
    scales[:, 0] = norm
    for t in range(1, length):
        current = (alpha[t - 1] @ model.transition) * emission_t[obs[:, t]]
        norm = np.maximum(current.sum(axis=1), SCALE_FLOOR)
        alpha[t] = current / norm[:, None]
        scales[:, t] = norm
    loglik = float(np.average(np.log(scales).sum(axis=1), weights=weights))

    xi = np.zeros((n, n))
    emit_sum = np.zeros((n, m))
    initial_raw = None
    w_col = weights[:, None]

    def accumulate(t, ab):
        nonlocal initial_raw
        gamma_norm = np.maximum(ab.sum(axis=1), SCALE_FLOOR)
        coeff = weights / gamma_norm
        contrib = ab * coeff[:, None]
        step = np.zeros((n, m))
        np.add.at(step.T, obs[:, t], contrib)
        emit_sum[...] += step
        if t == 0:
            initial_raw = contrib.sum(axis=0)

    beta_next = np.ones((batch, n))
    accumulate(length - 1, alpha[length - 1] * beta_next)
    for t in range(length - 2, -1, -1):
        weighted = beta_next * emission_t[obs[:, t + 1]]
        right = weighted / scales[:, t + 1][:, None]
        xi += (alpha[t] * w_col).T @ right
        beta_t = right @ transition_t
        accumulate(t, alpha[t] * beta_t)
        beta_next = beta_t

    xi *= model.transition
    new_transition = xi + config.transition_floor
    new_transition /= new_transition.sum(axis=1, keepdims=True)
    new_emission = emit_sum + config.emission_floor
    new_emission /= new_emission.sum(axis=1, keepdims=True)
    if config.update_initial:
        new_initial = np.maximum(initial_raw, 0.0)
        new_initial = new_initial / new_initial.sum()
    else:
        new_initial = model.initial
    updated = HiddenMarkovModel(
        transition=new_transition,
        emission=new_emission,
        initial=new_initial,
        symbols=model.symbols,
        state_labels=model.state_labels,
    )
    return updated, loglik


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def _make_training_batch(rng):
    return rng.integers(0, N_SYMBOLS, size=(BATCH, LENGTH))


def _make_window_population(rng):
    """50 %-duplicate windows: each unique row appears exactly twice."""
    n_unique = int(BATCH * (1 - DUPLICATE_FRACTION))
    base = rng.integers(0, N_SYMBOLS, size=(n_unique, LENGTH))
    windows = np.repeat(base, BATCH // n_unique, axis=0)
    return windows[rng.permutation(windows.shape[0])]


def run(smoke: bool, out_path: Path) -> int:
    rng = np.random.default_rng(11)
    model = random_model(
        [f"sym{i}" for i in range(N_SYMBOLS)], n_states=N_STATES, seed=3
    )
    config = TrainingConfig()
    obs = _make_training_batch(rng)
    weights = np.ones(BATCH)
    iters = 2 if smoke else 5
    reps = 3

    # -- bit-identity gates first: a fast kernel that computes the wrong
    # bits is a regression, not a win.
    ref_model, ref_ll = _reference_em_step(model, obs, weights, config)
    ws = EMWorkspace()
    ws.bind(model, obs, weights)
    fused_ll = em_forward(model, ws)
    fused_model = em_update(model, ws, config)
    em_identical = (
        fused_ll == ref_ll
        and np.array_equal(fused_model.transition, ref_model.transition)
        and np.array_equal(fused_model.emission, ref_model.emission)
        and np.array_equal(fused_model.initial, ref_model.initial)
    )

    windows = _make_window_population(rng)
    full_scores = log_likelihood(model, windows)
    dedup_scores = log_likelihood_unique(model, windows)
    scoring_identical = np.array_equal(full_scores, dedup_scores)
    legacy_scores = _legacy_log_likelihood(model, windows)
    legacy_max_abs_diff = float(np.abs(legacy_scores - full_scores).max())

    # -- EM iteration throughput: old loop = unfused E-step + the redundant
    # convergence pass; new loop = fused forward/update, monitor for free.
    def run_legacy_em():
        current = model
        for _ in range(iters):
            current, _ = _legacy_em_step(current, obs, weights, config)
            float(np.average(_legacy_log_likelihood(current, obs), weights=weights))

    def run_fused_em():
        current = model
        ws.bind(model, obs, weights)
        em_forward(current, ws)
        for _ in range(iters):
            current = em_update(current, ws, config)
            em_forward(current, ws)

    run_fused_em()  # warm-up (allocators, BLAS threads)
    legacy_em_s = best_of(reps, run_legacy_em)
    fused_em_s = best_of(reps, run_fused_em)
    em_speedup = legacy_em_s / fused_em_s

    # -- duplicate-aware scoring throughput.
    score_reps = 3 if smoke else 7
    legacy_score_s = best_of(score_reps, lambda: _legacy_log_likelihood(model, windows))
    dedup_score_s = best_of(score_reps, lambda: log_likelihood_unique(model, windows))
    scoring_speedup = legacy_score_s / dedup_score_s

    payload = {
        "bench": "em_kernels",
        "unix_time": time.time(),
        "host": bench_host_metadata(),
        "smoke": smoke,
        "shape": {
            "batch": BATCH,
            "length": LENGTH,
            "n_states": N_STATES,
            "n_symbols": N_SYMBOLS,
            "em_iterations_timed": iters,
        },
        "em": {
            "legacy_iters_per_s": round(iters / legacy_em_s, 3),
            "fused_iters_per_s": round(iters / fused_em_s, 3),
            "speedup": round(em_speedup, 3),
            "target": EM_TARGET,
            "met": em_speedup >= EM_TARGET,
        },
        "scoring": {
            "unique_fraction": 1 - DUPLICATE_FRACTION,
            "legacy_windows_per_s": round(BATCH / legacy_score_s, 1),
            "dedup_windows_per_s": round(BATCH / dedup_score_s, 1),
            "speedup": round(scoring_speedup, 3),
            "target": SCORING_TARGET,
            "met": scoring_speedup >= SCORING_TARGET,
        },
        "bit_identity": {
            "em_fused_vs_reference": bool(em_identical),
            "scoring_dedup_vs_full": bool(scoring_identical),
            "scoring_legacy_max_abs_diff": legacy_max_abs_diff,
        },
        "env": {
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")

    body = "\n".join(
        [
            f"  shape: B={BATCH} T={LENGTH} N={N_STATES} M={N_SYMBOLS}"
            + ("  (smoke)" if smoke else ""),
            f"  EM       legacy {iters / legacy_em_s:7.2f} it/s   "
            f"fused {iters / fused_em_s:7.2f} it/s   {em_speedup:.2f}x",
            f"  scoring  legacy {BATCH / legacy_score_s:9.0f} win/s  "
            f"dedup {BATCH / dedup_score_s:9.0f} win/s  {scoring_speedup:.2f}x",
            f"  -> {out_path}",
            shape_line(
                "fused E-step is bit-identical to the naive reference",
                em_identical,
            ),
            shape_line(
                "dedup scoring is bit-identical to full-batch scoring",
                scoring_identical,
            ),
            shape_line(
                f"EM iteration throughput >= {EM_TARGET}x", em_speedup >= EM_TARGET
            ),
            shape_line(
                f"duplicate-aware scoring throughput >= {SCORING_TARGET}x",
                scoring_speedup >= SCORING_TARGET,
            ),
        ]
    )
    print_block("EM kernels — fused E-step + duplicate-aware scoring", body)

    if not (em_identical and scoring_identical):
        print("bit-identity gate FAILED", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer repetitions (same shapes) for CI smoke runs",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output JSON path (default: BENCH_em.json at the repo root; "
        "see common.bench_output_path)",
    )
    args = parser.parse_args(argv)
    return run(args.smoke, args.out or bench_output_path("BENCH_em.json"))


if __name__ == "__main__":
    raise SystemExit(main())
