"""Scaled forward/backward recursions, batched over equal-length sequences.

The evaluation works on fixed-length 15-call segments, thousands at a time,
so both recursions are vectorized across the batch axis: one (B, N) matrix
product per time step instead of a Python loop per sequence.

Scaling follows Rabiner: the forward variable is renormalized at every step
and the per-step normalizers (``scales``) carry the likelihood, so
``log P(O | λ) = Σ_t log scale_t`` without underflow.

Bulk scoring routes through :mod:`repro.hmm.kernels`: the stacked,
scales-only :func:`~repro.hmm.kernels.score_stacked` kernel runs the same
recursion as :func:`forward` without materializing the (B, T, N) forward
variables, at one fixed GEMM shape so a row's score never depends on its
batch, and :func:`~repro.hmm.kernels.log_likelihood_unique` (re-exported
here) scores each *distinct* window once.  The full recursions below
remain the reference path for consumers that need the forward/backward
variables themselves (posteriors, Viterbi explanations, tests).
"""

from __future__ import annotations

import numpy as np

from .. import telemetry
from .kernels import (
    LOGLIK_BUCKETS,
    SCALE_FLOOR,
    check_obs as _check_obs,
    log_likelihood_unique,
    score_stacked,
)
from .model import HiddenMarkovModel

__all__ = [
    "LOGLIK_BUCKETS",
    "SCALE_FLOOR",
    "backward",
    "forward",
    "log_likelihood",
    "log_likelihood_unique",
    "posterior_states",
]


def forward(
    model: HiddenMarkovModel, obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled forward pass.

    Args:
        model: the HMM.
        obs: (B, T) integer observation array (or (T,) for one sequence).

    Returns:
        ``(alpha, scales)`` where ``alpha`` has shape (B, T, N) with each
        ``alpha[b, t]`` normalized to sum 1, and ``scales`` has shape (B, T)
        holding the normalizers.
    """
    obs = _check_obs(model, obs)
    batch, length = obs.shape
    n = model.n_states
    alpha = np.empty((batch, length, n))
    scales = np.empty((batch, length))

    emission_t = model.emission.T  # (M, N): emission_t[o] = B[:, o]
    current = model.initial[None, :] * emission_t[obs[:, 0]]
    norm = current.sum(axis=1)
    norm = np.maximum(norm, SCALE_FLOOR)
    alpha[:, 0] = current / norm[:, None]
    scales[:, 0] = norm
    for t in range(1, length):
        current = (alpha[:, t - 1] @ model.transition) * emission_t[obs[:, t]]
        norm = current.sum(axis=1)
        norm = np.maximum(norm, SCALE_FLOOR)
        alpha[:, t] = current / norm[:, None]
        scales[:, t] = norm
    return alpha, scales


def backward(
    model: HiddenMarkovModel, obs: np.ndarray, scales: np.ndarray
) -> np.ndarray:
    """Scaled backward pass using the forward pass's normalizers.

    Returns:
        ``beta`` of shape (B, T, N), scaled so that
        ``alpha[b, t] * beta[b, t]`` is proportional to the state posterior.
    """
    obs = _check_obs(model, obs)
    batch, length = obs.shape
    n = model.n_states
    beta = np.empty((batch, length, n))
    beta[:, length - 1] = 1.0
    emission_t = model.emission.T
    for t in range(length - 2, -1, -1):
        weighted = beta[:, t + 1] * emission_t[obs[:, t + 1]]
        beta[:, t] = (weighted @ model.transition.T) / scales[:, t + 1][:, None]
    return beta


def log_likelihood(model: HiddenMarkovModel, obs: np.ndarray) -> np.ndarray:
    """Per-sequence ``log P(O | λ)``, shape (B,).

    Runs the stacked scales-only kernel
    (:func:`repro.hmm.kernels.score_stacked`) as a stack of one model —
    the same recursion as :func:`forward`, without materializing the
    forward variables.

    When telemetry is on, every scored sequence's log-likelihood lands in
    the ``hmm.forward.loglik`` histogram (:data:`LOGLIK_BUCKETS`) — the
    scoring distribution the ISSUE's perf work reads.  The inner
    recursions stay uninstrumented: they are the EM hot loop.
    """
    obs = _check_obs(model, obs)
    loglik = score_stacked([model], [obs])[0]
    if telemetry.enabled():
        telemetry.counter_add("hmm.forward.calls")
        telemetry.counter_add("hmm.forward.sequences", int(loglik.shape[0]))
        telemetry.observe_many(
            "hmm.forward.loglik", loglik.tolist(), boundaries=LOGLIK_BUCKETS
        )
    return loglik


def posterior_states(
    model: HiddenMarkovModel, obs: np.ndarray
) -> np.ndarray:
    """State posteriors ``γ[b, t, i] = P[q_t = i | O_b, λ]``, shape (B, T, N)."""
    obs = _check_obs(model, obs)
    alpha, scales = forward(model, obs)
    beta = backward(model, obs, scales)
    gamma = alpha * beta
    totals = gamma.sum(axis=2, keepdims=True)
    totals = np.maximum(totals, SCALE_FLOOR)
    return gamma / totals
