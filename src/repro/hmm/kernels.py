"""Fused, zero-allocation numpy kernels for the HMM hot paths.

This module is the lowest layer of :mod:`repro.hmm`: everything here takes
already-validated integer observation arrays and writes into preallocated
buffers.  :mod:`repro.hmm.forward` and :mod:`repro.hmm.baumwelch` build the
public API on top of it.

Four things live here:

* :class:`EMWorkspace` + :func:`em_forward`/:func:`em_update` — the
  Baum-Welch E-step split into a forward phase and an update phase.  Every
  per-timestep buffer (the forward variables, per-step normalizers, the
  emission-probability gathers, the ξ and emission accumulators) is
  allocated once per :func:`~repro.hmm.baumwelch.train` call and reused
  across iterations via ``out=``-style writes.  The forward phase returns
  the weighted mean training log-likelihood as a by-product, so the train
  loop never needs a separate monitoring pass over the training set.
* :func:`score_stacked` — the one bulk-scoring kernel: a scales-only
  forward pass over one batch per model.  Every model's rows are cut into
  :data:`SCORE_TILE`-row slices and the slices of all models are stacked,
  so each timestep is one batched 3-D matmul in which every slice is a
  ``(SCORE_TILE, N) @ (N, N)`` product.  One GEMM shape for every scoring
  call makes it **batch-invariant**: a row's score is a pure function of
  the row and its model, so a lone row, a subset, one model's batch and
  a many-model service drain all score the same bits.
* :func:`log_likelihood_stacked` (and its one-model form
  :func:`log_likelihood_unique`) — duplicate-aware scoring: hash rows,
  score each distinct window once, scatter the results back through the
  inverse index.  Sliding windows over repetitive call streams (the eval
  runners' exploit windows, the service's drain batches) are often mostly
  duplicates, so this multiplies bulk-scoring throughput on top of the
  kernel.  Telemetry stays multiplicity-weighted: the scattered
  (full-batch) scores land in the ``hmm.forward.loglik`` histogram, not
  just the unique ones.
* :class:`StreamingState` + :func:`streaming_step` — the incremental
  O(N²)-per-event forward filter for live feeds: the normalized forward
  (belief) state is carried across events in preallocated buffers and a
  ring buffer keeps the last ``window`` per-step log scale factors, so a
  sliding W-call surprisal costs one belief update per event instead of
  re-running the W-step recursion.  Bit-identical to the unfused
  allocating filter it replaced, which lives on only as a reference in
  ``tests/test_streaming_incremental.py`` and the exit-1 gate in
  ``benchmarks/bench_streaming_forward.py``.

Bit-identity notes (the contracts ``tests/test_kernels.py`` pins):

* ξ is accumulated with one ordered GEMM per timestep over precomputed
  contiguous operands.  A single ``einsum('bti,btj->ij')`` over (B, T-1, N)
  operands was measured *slower* than the GEMM loop on OpenBLAS (einsum
  does not dispatch to BLAS for this contraction) and changes the
  floating-point reduction order; the loop is both faster and reproducible
  against a per-timestep reference.
* Emission statistics are accumulated per timestep with per-state
  ``np.bincount`` — bit-identical to ``np.add.at`` (both add in index
  order) and several times faster.  ``np.add.reduceat`` is *not*
  bit-identical (pairwise summation) and is not used.
* Per-step normalizers are stored batch-major, shape (B, T), so the final
  ``np.log(scales).sum(axis=1)`` reduces in exactly the order the
  unfused implementation used.
* BLAS GEMM results are only reproducible per-row at a *fixed* operand
  shape: a single row dispatches to gemv, odd row counts trigger edge
  micro-kernels for some N (observed at N mod 8 in {1, 2, 3}, N ≥ 17),
  and different heights pick different blockings — 8-row and 512-row
  GEMMs already disagree in the last bits at N = 49-60 on OpenBLAS.  So
  the scoring kernel never varies the height: every slice is exactly
  :data:`SCORE_TILE` rows, and a batched 3-D ``np.matmul`` issues one
  GEMM per slice, bit-identical to the 2-D call on that slice.  The EM
  kernels are compared against a reference with identical operand shapes
  and layouts.
"""

from __future__ import annotations

import numpy as np

from .. import telemetry
from ..errors import ModelError
from .model import HiddenMarkovModel

#: Floor applied to per-step normalizers so a zero-probability observation
#: yields a very negative — but finite — log-likelihood.
SCALE_FLOOR = 1e-300

#: Telemetry bucket bounds for raw per-sequence ``log P(O | λ)`` (a normal
#: 15-call segment typically lands in the -40..0 range; anomalies below).
LOGLIK_BUCKETS: tuple[float, ...] = (
    -500.0, -200.0, -100.0, -75.0, -50.0, -40.0, -30.0, -25.0,
    -20.0, -15.0, -10.0, -7.5, -5.0, -2.5, -1.0, 0.0,
)

#: Rows per GEMM slice in :func:`score_stacked`: every scoring matmul is a
#: (SCORE_TILE, N) @ (N, N) product.  Small, so a lone service lane pays
#: for few padding rows.  Batch size never moves a score; changing this
#: constant may, in the last bits.
SCORE_TILE = 32

#: Rows of stacked slices :func:`score_stacked` walks at a time, which
#: bounds its working set to a few (SCORE_CHUNK, N) panels.
SCORE_CHUNK = 512

#: Fixed seed for the row-hash multipliers in :func:`log_likelihood_stacked`
#: — deterministic across processes, so serial and parallel runs dedup (and
#: therefore score) identically.
_DEDUP_SEED = 0x5EED_CA11

__all__ = [
    "LOGLIK_BUCKETS",
    "SCALE_FLOOR",
    "SCORE_CHUNK",
    "SCORE_TILE",
    "EMWorkspace",
    "StreamingState",
    "check_obs",
    "em_forward",
    "em_step",
    "em_update",
    "log_likelihood_stacked",
    "log_likelihood_unique",
    "score_stacked",
    "streaming_rebind",
    "streaming_recent",
    "streaming_reset",
    "streaming_step",
]


def check_obs(model: HiddenMarkovModel, obs: np.ndarray) -> np.ndarray:
    """Validate and normalize an observation array to (B, T) int form."""
    obs = np.asarray(obs)
    if obs.ndim == 1:
        obs = obs[None, :]
    if obs.ndim != 2:
        raise ModelError(f"observations must be (B, T), got shape {obs.shape}")
    if obs.size and (obs.min() < 0 or obs.max() >= model.n_symbols):
        raise ModelError("observation index out of alphabet range")
    return obs


# ---------------------------------------------------------------------------
# Bulk scoring
# ---------------------------------------------------------------------------


def score_stacked(
    models: "list[HiddenMarkovModel]", obs_list: "list[np.ndarray]"
) -> "list[np.ndarray]":
    """Per-sequence ``log P(O | λ_d)`` for one batch per model, in one pass.

    The scales-only forward recursion for every bulk-scoring caller.  Each
    model's rows are cut into :data:`SCORE_TILE`-row slices (the last one
    padded with symbol-0 rows whose scores are discarded), the slices of
    every model are stacked, and each timestep is one 3-D ``np.matmul`` in
    which every slice is a ``(SCORE_TILE, N) @ (N, N)`` product against its
    own model's transition matrix.  The stack is walked
    :data:`SCORE_CHUNK` rows at a time, so the working set stays bounded
    and the (B, T, N) forward variables are never materialized.

    Every scoring GEMM therefore has one shape, whatever the batch size,
    the row's position in it, or the other models in the call: a row's
    score is a pure function of the row and its model.  Scoring a subset,
    a single row, or one model's batch alone is bit-identical to scoring
    it inside any larger stack — what :func:`log_likelihood_stacked`'s
    dedup and the service's cross-lane drain rely on.

    Args:
        models: models sharing one state count ``N``.
        obs_list: one validated (B_d, T) int array per model (see
            :func:`check_obs`), all of one length ``T``; ``B_d`` may be 0.

    Returns:
        One (B_d,) score array per model, aligned with ``models``.
    """
    if not models or len(models) != len(obs_list):
        raise ModelError("stacked scoring needs one observation batch per model")
    n = models[0].n_states
    length = obs_list[0].shape[1]
    if any(model.n_states != n for model in models) or any(
        obs.shape[1] != length for obs in obs_list
    ):
        raise ModelError(
            "stacked scoring needs one state count and one window length"
        )
    batches = [obs.shape[0] for obs in obs_list]
    slices = [-(-batch // SCORE_TILE) for batch in batches]
    total = sum(slices)
    if total == 0 or length == 0:
        return [np.zeros(batch) for batch in batches]
    owner = np.repeat(np.arange(len(models)), slices)
    # Rows index the models' concatenated emission columns, so one gather
    # serves the whole stack; the index is laid out timestep-major.
    emission = np.concatenate(
        [np.ascontiguousarray(model.emission.T) for model in models]
    )
    initial = np.stack([model.initial for model in models])[:, None, :]
    transition = (
        models[0].transition
        if len(models) == 1
        else np.stack([model.transition for model in models])
    )
    index = np.zeros((total * SCORE_TILE, length), dtype=np.int64)
    row = base = 0
    for model, obs, count in zip(models, obs_list, slices):
        index[row : row + obs.shape[0]] = obs
        index[row : row + count * SCORE_TILE] += base
        row += count * SCORE_TILE
        base += model.n_symbols
    index = np.ascontiguousarray(index.T).reshape(length, total, SCORE_TILE)

    # Indices are validated, so take() runs in "clip" mode, which writes
    # straight into ``out`` instead of buffering like the default mode.
    width = min(SCORE_CHUNK // SCORE_TILE, total)
    alpha = np.empty((width, SCORE_TILE, n))
    product = np.empty((width, SCORE_TILE, n))
    gather = np.empty((width, SCORE_TILE, n))
    scales = np.empty((width, SCORE_TILE, length))
    loglik = np.empty((total, SCORE_TILE))
    for first in range(0, total, width):
        last = min(first + width, total)
        owners = owner[first:last]
        step = transition if transition.ndim == 2 else transition[owners]
        a, p, g, s = (buf[: last - first] for buf in (alpha, product, gather, scales))
        np.take(emission, index[0, first:last], axis=0, out=g, mode="clip")
        np.multiply(initial[owners], g, out=a)
        norm = s[:, :, 0]
        np.sum(a, axis=2, out=norm)
        np.maximum(norm, SCALE_FLOOR, out=norm)
        a /= norm[:, :, None]
        for t in range(1, length):
            np.matmul(a, step, out=p)
            np.take(emission, index[t, first:last], axis=0, out=g, mode="clip")
            np.multiply(p, g, out=a)
            norm = s[:, :, t]
            np.sum(a, axis=2, out=norm)
            np.maximum(norm, SCALE_FLOOR, out=norm)
            a /= norm[:, :, None]
        np.log(s, out=s)
        np.sum(s, axis=2, out=loglik[first:last])
    loglik = loglik.reshape(-1)
    out = []
    row = 0
    for batch, count in zip(batches, slices):
        out.append(loglik[row : row + batch])
        row += count * SCORE_TILE
    return out


_MULTIPLIER_CACHE: dict[int, np.ndarray] = {}


def _hash_multipliers(length: int) -> np.ndarray:
    """Fixed odd 64-bit row-hash multipliers for a given row length.

    Cached per length (a benign race: concurrent fills compute the same
    deterministic vector) so repeated dedup calls skip the RNG setup.
    """
    multipliers = _MULTIPLIER_CACHE.get(length)
    if multipliers is None:
        rng = np.random.default_rng(_DEDUP_SEED)
        multipliers = rng.integers(
            1, np.iinfo(np.int64).max, size=length, dtype=np.int64
        ) | np.int64(1)
        _MULTIPLIER_CACHE[length] = multipliers
    return multipliers


def _dedup_rows(obs: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Find duplicate rows: ``(unique_rows, inverse)`` or ``None``.

    Rows are keyed by a 64-bit multiplicative hash (wraparound int64
    arithmetic with fixed odd multipliers — deterministic across
    processes), which costs one GEMV-shaped pass instead of
    ``np.unique(axis=0)``'s lexicographic sort over full rows.  The
    candidate grouping is then *verified* by materializing the
    representative rows; a hash collision (vanishingly unlikely) falls
    back to the exact structured ``np.unique``.  Returns ``None`` when
    deduplication cannot help (fewer than two rows, or all rows unique).
    """
    batch = obs.shape[0]
    if batch < 2:
        return None
    keys = (obs.astype(np.int64, copy=False) * _hash_multipliers(obs.shape[1])).sum(
        axis=1
    )
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if first.size == batch:
        return None
    unique_rows = obs[first]
    if not np.array_equal(unique_rows[inverse], obs):  # pragma: no cover
        unique_rows, inverse = np.unique(obs, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        if unique_rows.shape[0] == batch:
            return None
    return unique_rows, inverse


def log_likelihood_stacked(
    models: "list[HiddenMarkovModel]", obs_list: "list[np.ndarray]"
) -> "list[np.ndarray]":
    """Duplicate-aware ``log P(O | λ_d)`` for one batch per model.

    Validates each batch, hashes its rows (:func:`_dedup_rows`), scores
    every model's *distinct* rows in one :func:`score_stacked` call, and
    scatters the results back through the inverse indices.  The kernel is
    batch-invariant, so the scattered scores are bit-identical to scoring
    every row — duplicates just stop paying for the recursion more than
    once — and each model's scores do not depend on the other models in
    the call.

    Telemetry is recorded per model and stays multiplicity-weighted: the
    *scattered* scores land in the ``hmm.forward.loglik`` histogram and
    the ``hmm.forward.sequences`` counter, exactly as if every row had
    been scored; ``hmm.score.unique_ratio`` reports how much of the batch
    was distinct (1.0 = no duplicates).
    """
    checked = [check_obs(model, obs) for model, obs in zip(models, obs_list)]
    dedups = [_dedup_rows(obs) for obs in checked]
    scored = score_stacked(
        models,
        [obs if dedup is None else dedup[0] for obs, dedup in zip(checked, dedups)],
    )
    out: list[np.ndarray] = []
    for obs, dedup, scores in zip(checked, dedups, scored):
        loglik = scores if dedup is None else scores[dedup[1]]
        if telemetry.enabled():
            batch, n_unique = int(obs.shape[0]), int(scores.shape[0])
            telemetry.counter_add("hmm.forward.calls")
            telemetry.counter_add("hmm.forward.sequences", batch)
            telemetry.observe_many(
                "hmm.forward.loglik", loglik.tolist(), boundaries=LOGLIK_BUCKETS
            )
            telemetry.counter_add("hmm.score.dedup.calls")
            telemetry.counter_add("hmm.score.dedup.sequences", batch)
            telemetry.counter_add("hmm.score.dedup.unique", n_unique)
            if batch:
                telemetry.gauge_set("hmm.score.unique_ratio", n_unique / batch)
        out.append(loglik)
    return out


def log_likelihood_unique(
    model: HiddenMarkovModel, obs: np.ndarray
) -> np.ndarray:
    """Duplicate-aware ``log P(O | λ)`` for one model's (B, T) batch — the
    one-model form of :func:`log_likelihood_stacked`."""
    return log_likelihood_stacked([model], [obs])[0]


# ---------------------------------------------------------------------------
# Incremental streaming forward
# ---------------------------------------------------------------------------


class StreamingState:
    """Carried state for the incremental O(N²)-per-event forward filter.

    Owns everything the per-event update touches, preallocated once:

    * ``belief`` — the normalized forward (filtering) distribution
      ``P[state | history]``;
    * ``ring`` — the last ``window`` per-step **surprisals**
      (``-log scale_t``, the negated log scale factors of the scaled
      forward recursion) in a ring buffer; ``pos`` is the next write slot
      and ``count`` the events since the last reset;
    * contiguous scratch (``predictive``/``joint``/``ordered``) and a
      row-major emission transpose, so :func:`streaming_step` allocates
      nothing.

    The state belongs to exactly one model at a time: after a warm-swap,
    :func:`streaming_rebind` must run before the next step — it restarts
    the belief from the new model's initial distribution (the old
    posterior lives over the old model's renumbered/resized hidden
    states) while the surprisal ring survives for windowed continuity.
    """

    __slots__ = (
        "window",
        "belief",
        "started",
        "ring",
        "count",
        "pos",
        "emission_t",
        "predictive",
        "joint",
        "ordered",
    )

    def __init__(self, model: HiddenMarkovModel, window: int) -> None:
        if window <= 0:
            raise ModelError("window must be positive")
        n = model.n_states
        self.window = int(window)
        self.belief = model.initial.copy()
        self.started = False
        self.ring = np.zeros(self.window)
        self.count = 0
        self.pos = 0
        self.emission_t = np.ascontiguousarray(model.emission.T)
        self.predictive = np.empty(n)
        self.joint = np.empty(n)
        self.ordered = np.empty(self.window)


def streaming_step(
    model: HiddenMarkovModel, state: StreamingState, index: int
) -> float:
    """Consume one encoded symbol; returns its surprise.

    One belief update — a (N,)@(N, N) product, an elementwise emission
    gather/multiply, one normalization — written into ``state``'s
    preallocated buffers.  Operation order matches the unfused allocating
    filter exactly (``@`` *is* ``np.matmul``; the emission row is the same
    values as the strided column slice), so the returned surprisals and
    the carried belief are bit-identical to it — the reference kept in
    ``tests/test_streaming_incremental.py`` and
    ``benchmarks/bench_streaming_forward.py``.
    """
    if state.started:
        np.matmul(state.belief, model.transition, out=state.predictive)
        predictive = state.predictive
    else:
        predictive = state.belief
        state.started = True
    np.multiply(predictive, state.emission_t[index], out=state.joint)
    total = float(state.joint.sum())
    total = max(total, SCALE_FLOOR)
    np.divide(state.joint, total, out=state.belief)
    surprise = -float(np.log(total))
    state.ring[state.pos] = surprise
    state.pos += 1
    if state.pos == state.window:
        state.pos = 0
    state.count += 1
    return surprise


def streaming_recent(state: StreamingState) -> np.ndarray:
    """The last ``min(count, window)`` surprisals, oldest first.

    Stream order matters for bit-identity: ``np.mean`` reduces pairwise in
    element order, and the reference filter's deque holds the surprisals
    in arrival order.  Before the ring wraps this is a contiguous prefix
    view; after wraparound the two ring halves are copied (oldest half
    first) into the preallocated ``ordered`` buffer — O(window) scalar
    copies, no allocation.
    """
    if state.count < state.window:
        return state.ring[: state.count]
    if state.pos == 0:
        return state.ring
    split = state.window - state.pos
    state.ordered[:split] = state.ring[state.pos :]
    state.ordered[split:] = state.ring[: state.pos]
    return state.ordered


def streaming_reset(model: HiddenMarkovModel, state: StreamingState) -> None:
    """Restart the filter in place (process restart / trace gap)."""
    np.copyto(state.belief, model.initial)
    state.started = False
    state.count = 0
    state.pos = 0


def streaming_rebind(model: HiddenMarkovModel, state: StreamingState) -> None:
    """Invalidate the carried forward state for a warm-swapped model.

    The belief restarts from the new model's initial distribution and the
    emission transpose / scratch buffers are rebuilt (reallocated only if
    the state count changed); the surprisal ring, ``count``, and ``pos``
    are deliberately kept so the windowed score stays continuous across
    the swap.
    """
    n = model.n_states
    if state.belief.shape[0] != n:
        state.belief = np.empty(n)
        state.predictive = np.empty(n)
        state.joint = np.empty(n)
    np.copyto(state.belief, model.initial)
    state.started = False
    state.emission_t = np.ascontiguousarray(model.emission.T)


# ---------------------------------------------------------------------------
# Baum-Welch E-step
# ---------------------------------------------------------------------------


class EMWorkspace:
    """Preallocated buffers for the fused Baum-Welch E-step.

    Lifecycle: :meth:`bind` once per :func:`~repro.hmm.baumwelch.train`
    call (allocation is skipped when the batch shape matches the previous
    binding), then alternate :func:`em_forward` / :func:`em_update` across
    iterations — every pass writes into the same buffers, so the EM loop
    allocates nothing per iteration beyond the (small) updated parameter
    matrices themselves.

    A workspace holds statistics for exactly one model at a time:
    :func:`em_update` refuses to run unless :func:`em_forward` was called
    for the same model since the last update, which is what makes sharing
    one workspace across many ``train()`` calls safe.
    """

    def __init__(self) -> None:
        self._shape_key: tuple[int, int, int, int] | None = None
        self._pending: HiddenMarkovModel | None = None
        self._passes_served = 0

    def bind(
        self,
        model: HiddenMarkovModel,
        obs: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        """Attach a training batch; (re)allocate buffers only on shape change."""
        batch, length = obs.shape
        n, m = model.n_states, model.n_symbols
        key = (batch, length, n, m)
        if key != self._shape_key:
            self._shape_key = key
            self.emit_obs = np.empty((length, batch, n))
            self.alpha = np.empty((length, batch, n))
            self.scales = np.empty((batch, length))
            self.log_scales = np.empty((batch, length))
            self.row_loglik = np.empty(batch)
            self.product = np.empty((batch, n))
            self.weighted_alpha = np.empty((batch, n))
            self.right = np.empty((batch, n))
            self.ab = np.empty((batch, n))
            self.beta_a = np.empty((batch, n))
            self.beta_b = np.empty((batch, n))
            self.gamma_norm = np.empty(batch)
            self.coeff = np.empty(batch)
            self.contrib = np.empty((batch, n))
            self.xi = np.empty((n, n))
            self.xi_step = np.empty((n, n))
            self.emit_sum = np.empty((n, m))
        # Timestep-major observation copy: every per-t index column the
        # kernels touch becomes contiguous.
        self.obs_t = np.ascontiguousarray(obs.T)
        self.weights = np.asarray(weights, dtype=float)
        self.weights_col = self.weights[:, None]
        self._pending = None
        self._passes_served = 0


def em_forward(model: HiddenMarkovModel, workspace: EMWorkspace) -> float:
    """Forward phase of one EM iteration.

    Fills the workspace's timestep-major forward variables, per-step
    normalizers, and emission gathers for ``model``, and returns the
    weighted mean training log-likelihood of the bound batch under
    ``model`` — the convergence-monitor value, obtained for free instead
    of via a second forward pass.
    """
    ws = workspace
    if ws._shape_key is None:
        raise ModelError("EMWorkspace.bind() must be called before em_forward")
    length = ws.obs_t.shape[0]
    emission_t = np.ascontiguousarray(model.emission.T)  # (M, N)
    np.take(emission_t, ws.obs_t, axis=0, out=ws.emit_obs)
    current = ws.alpha[0]
    np.multiply(model.initial[None, :], ws.emit_obs[0], out=current)
    norm = ws.scales[:, 0]
    np.sum(current, axis=1, out=norm)
    np.maximum(norm, SCALE_FLOOR, out=norm)
    current /= norm[:, None]
    for t in range(1, length):
        current = ws.alpha[t]
        np.matmul(ws.alpha[t - 1], model.transition, out=current)
        np.multiply(current, ws.emit_obs[t], out=current)
        norm = ws.scales[:, t]
        np.sum(current, axis=1, out=norm)
        np.maximum(norm, SCALE_FLOOR, out=norm)
        current /= norm[:, None]
    np.log(ws.scales, out=ws.log_scales)
    np.sum(ws.log_scales, axis=1, out=ws.row_loglik)
    loglik = float(np.average(ws.row_loglik, weights=ws.weights))
    if ws._passes_served:
        telemetry.counter_add("hmm.em.workspace_reuses")
    ws._passes_served += 1
    ws._pending = model
    return loglik


def em_update(
    model: HiddenMarkovModel,
    workspace: EMWorkspace,
    config,
) -> HiddenMarkovModel:
    """Backward/accumulate/M phase of one EM iteration.

    Consumes the statistics :func:`em_forward` left in the workspace for
    ``model`` and returns the re-estimated model.  The backward recursion,
    ξ accumulation, and emission statistics are fused into a single
    reverse sweep over timesteps — no (B, T, N) backward or posterior
    array is ever materialized.
    """
    ws = workspace
    if ws._pending is not model:
        raise ModelError(
            "em_update requires em_forward() on the same model first "
            "(the workspace holds per-timestep statistics for exactly one "
            "forward phase at a time)"
        )
    length = ws.obs_t.shape[0]
    n, m = model.n_states, model.n_symbols
    transition = model.transition
    transition_t = np.ascontiguousarray(transition.T)
    ws.xi.fill(0.0)
    ws.emit_sum.fill(0.0)
    initial_raw: np.ndarray | None = None

    def accumulate(t: int, ab: np.ndarray) -> None:
        """Fold timestep ``t``'s posterior numerators (γ before
        normalization) into the emission statistics — and, at t=0, the
        initial-distribution numerator."""
        nonlocal initial_raw
        np.sum(ab, axis=1, out=ws.gamma_norm)
        np.maximum(ws.gamma_norm, SCALE_FLOOR, out=ws.gamma_norm)
        np.divide(ws.weights, ws.gamma_norm, out=ws.coeff)
        np.multiply(ab, ws.coeff[:, None], out=ws.contrib)
        observed = ws.obs_t[t]
        for i in range(n):
            ws.emit_sum[i] += np.bincount(
                observed, weights=ws.contrib[:, i], minlength=m
            )
        if t == 0:
            initial_raw = ws.contrib.sum(axis=0)

    # t = T-1: β is all ones, so the posterior numerator is α itself.
    accumulate(length - 1, ws.alpha[length - 1])
    beta_next, beta_current = ws.beta_a, ws.beta_b
    beta_next.fill(1.0)
    for t in range(length - 2, -1, -1):
        scale_next = ws.scales[:, t + 1][:, None]
        np.multiply(beta_next, ws.emit_obs[t + 1], out=ws.product)
        np.divide(ws.product, scale_next, out=ws.right)
        np.multiply(ws.alpha[t], ws.weights_col, out=ws.weighted_alpha)
        np.matmul(ws.weighted_alpha.T, ws.right, out=ws.xi_step)
        ws.xi += ws.xi_step
        np.matmul(ws.right, transition_t, out=beta_current)
        np.multiply(ws.alpha[t], beta_current, out=ws.ab)
        accumulate(t, ws.ab)
        beta_next, beta_current = beta_current, beta_next

    np.multiply(ws.xi, transition, out=ws.xi)
    # The M-step allocates fresh parameter matrices: they become the new
    # model's owned arrays and must not alias reusable workspace buffers.
    new_transition = ws.xi + config.transition_floor
    new_transition /= new_transition.sum(axis=1, keepdims=True)
    new_emission = ws.emit_sum + config.emission_floor
    new_emission /= new_emission.sum(axis=1, keepdims=True)
    if config.update_initial:
        new_initial = np.maximum(initial_raw, 0.0)
        new_initial = new_initial / new_initial.sum()
    else:
        new_initial = model.initial
    ws._pending = None
    return HiddenMarkovModel(
        transition=new_transition,
        emission=new_emission,
        initial=new_initial,
        symbols=model.symbols,
        state_labels=model.state_labels,
    )


def em_step(
    model: HiddenMarkovModel,
    obs: np.ndarray,
    weights: np.ndarray,
    config,
    workspace: EMWorkspace | None = None,
) -> tuple[HiddenMarkovModel, float]:
    """One full EM iteration (bind + forward + update).

    Returns ``(updated_model, loglik)`` where ``loglik`` is the weighted
    mean training log-likelihood under the *input* model — the same
    contract the unfused ``_em_step`` had.  Convenience wrapper for tests
    and one-shot callers; :func:`~repro.hmm.baumwelch.train` drives the
    phases directly so one bind serves every iteration.
    """
    ws = workspace if workspace is not None else EMWorkspace()
    ws.bind(model, obs, weights)
    loglik = em_forward(model, ws)
    return em_update(model, ws, config), loglik
