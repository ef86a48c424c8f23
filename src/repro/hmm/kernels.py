"""Fused, zero-allocation numpy kernels for the HMM hot paths.

This module is the lowest layer of :mod:`repro.hmm`: everything here takes
already-validated integer observation arrays and writes into preallocated
buffers.  :mod:`repro.hmm.forward` and :mod:`repro.hmm.baumwelch` build the
public API on top of it.

Three things live here:

* :class:`EMWorkspace` + :func:`em_forward`/:func:`em_update` — the
  Baum-Welch E-step split into a forward phase and an update phase.  Every
  per-timestep buffer (the forward variables, per-step normalizers, the
  emission-probability gathers, the ξ and emission accumulators) is
  allocated once per :func:`~repro.hmm.baumwelch.train` call and reused
  across iterations via ``out=``-style writes.  The forward phase returns
  the weighted mean training log-likelihood as a by-product, so the train
  loop never needs a separate monitoring pass over the training set.
* :func:`score_sequences` — a tiled, scales-only forward pass for bulk
  scoring.  It keeps only a (tile, N) working set instead of materializing
  the full (B, T, N) forward variables, and is **batch-invariant**: every
  matmul runs at a fixed (tile, N) shape (partial tiles are padded), so a
  row's score is a pure function of the row's content — scoring any subset
  of a batch is bit-identical to scoring the full batch.
* :func:`log_likelihood_unique` — duplicate-aware scoring: hash rows,
  score each distinct window once, scatter the results back through the
  inverse index.  Sliding windows over repetitive call streams (the eval
  runners' exploit windows, the service's drain batches) are often mostly
  duplicates, so this multiplies bulk-scoring throughput on top of the
  tiled kernel.  Telemetry stays multiplicity-weighted: the scattered
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
* :func:`score_fleet` / :func:`log_likelihood_fleet` — cross-detector
  batched scoring for the service drain: same-shape (N, M) detectors'
  transition/emission tensors are stacked into (D, ·, ·) operands and the
  whole fleet's windows walk the recursion through batched 3-D matmuls —
  a handful of kernel launches per drain instead of one GEMM sequence per
  detector, bit-identical per row to :func:`score_sequences`.

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
  and different size regimes pick different blockings — all with
  last-bit differences.  The scoring kernel therefore pins its GEMM
  height (see :func:`score_sequences`); the EM kernels are compared
  against a reference with identical operand shapes and layouts.
* Per-row GEMM results *are* stable across heights once the height is a
  multiple of :data:`FLEET_GEMM_UNIT` (= 8): measured over N in 2..64,
  ``(X @ A)[:h]`` differs from ``X[:h] @ A`` only at h in {1, 2, 3, 5}
  (gemv and the odd-row edge kernels above), and a batched 3-D
  ``np.matmul`` is bit-identical per (H, N) slice to the 2-D call.  That
  is what lets :func:`score_fleet` pad each drain's slice height to a
  multiple of 8 instead of :data:`SCORE_TILE` and stay bit-identical to
  the 512-row tiles — the property is re-verified at runtime by the
  bench's exit-1 gate and the differential suites, so a BLAS that
  breaks it fails loudly instead of scoring differently.
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

#: Rows per tile in :func:`score_sequences`.  Chosen so one tile's working
#: set (a few (tile, N) float panels) stays cache-resident; per-row results
#: are independent of the tile size.
SCORE_TILE = 512

#: Fixed seed for the row-hash multipliers in :func:`log_likelihood_unique`
#: — deterministic across processes, so serial and parallel runs dedup (and
#: therefore score) identically.
_DEDUP_SEED = 0x5EED_CA11

#: GEMM heights that are a multiple of this are per-row bit-identical to
#: any other multiple (including :data:`SCORE_TILE`) on the BLAS builds we
#: target — see the module docstring.  :func:`score_fleet` pads its slice
#: height up to this unit.
FLEET_GEMM_UNIT = 8

__all__ = [
    "FLEET_GEMM_UNIT",
    "LOGLIK_BUCKETS",
    "SCALE_FLOOR",
    "SCORE_TILE",
    "EMWorkspace",
    "StreamingState",
    "check_obs",
    "em_forward",
    "em_step",
    "em_update",
    "log_likelihood_fleet",
    "log_likelihood_unique",
    "score_fleet",
    "score_sequences",
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


def score_sequences(
    model: HiddenMarkovModel, obs: np.ndarray, tile: int = SCORE_TILE
) -> np.ndarray:
    """Per-sequence ``log P(O | λ)`` via a tiled, scales-only forward pass.

    Every row's score is a pure function of that row's content: the
    recursion runs in tiles of *exactly* ``tile`` rows — a partial final
    tile is padded with throwaway rows — so every matmul the kernel issues
    has the same (tile, N) shape no matter how large the batch is.  BLAS
    GEMM results are only reproducible per-row when the operand shapes
    match (a gemv-dispatched single row, or the odd-row edge kernels some
    N trigger, accumulate in a different order), so the fixed tile height
    is what makes scoring *batch-invariant*: scoring a subset of rows is
    bit-identical to scoring them inside any larger batch.
    :func:`log_likelihood_unique` relies on exactly this property.

    It never materializes the (B, T, N) forward variables — each tile
    walks the recursion with a (tile, N) working set written in place.

    ``obs`` must already be validated (see :func:`check_obs`).
    """
    batch, length = obs.shape
    out = np.empty(batch)
    if batch == 0 or length == 0:
        out[:] = 0.0
        return out
    emission_t = np.ascontiguousarray(model.emission.T)  # (M, N)
    initial = model.initial[None, :]
    transition = model.transition
    n = model.n_states
    tile = max(int(tile), 1)
    alpha = np.empty((tile, n))
    product = np.empty((tile, n))
    gather = np.empty((tile, n))
    scales = np.empty((tile, length))
    padded: np.ndarray | None = None
    for start in range(0, batch, tile):
        stop = min(start + tile, batch)
        rows = stop - start
        if rows == tile:
            block = obs[start:stop]
        else:
            # Partial tile: pad with symbol-0 rows so the GEMM height stays
            # fixed; the padding's scores are computed and discarded.
            if padded is None:
                padded = np.zeros((tile, length), dtype=obs.dtype)
            padded[:rows] = obs[start:stop]
            padded[rows:] = 0
            block = padded
        np.take(emission_t, block[:, 0], axis=0, out=gather)
        np.multiply(initial, gather, out=alpha)
        norm = scales[:, 0]
        np.sum(alpha, axis=1, out=norm)
        np.maximum(norm, SCALE_FLOOR, out=norm)
        alpha /= norm[:, None]
        for t in range(1, length):
            np.matmul(alpha, transition, out=product)
            np.take(emission_t, block[:, t], axis=0, out=gather)
            np.multiply(product, gather, out=alpha)
            norm = scales[:, t]
            np.sum(alpha, axis=1, out=norm)
            np.maximum(norm, SCALE_FLOOR, out=norm)
            alpha /= norm[:, None]
        np.log(scales, out=scales)
        np.sum(scales[:rows], axis=1, out=out[start:stop])
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


def _record_score_telemetry(
    loglik: np.ndarray, batch: int, n_unique: int
) -> None:
    """Duplicate-aware scoring telemetry for one scored batch.

    Shared by :func:`log_likelihood_unique` and (per fleet entry)
    :func:`log_likelihood_fleet`, so the fused cross-detector drain emits
    exactly the counters the per-detector path would have.
    """
    telemetry.counter_add("hmm.forward.calls")
    telemetry.counter_add("hmm.forward.sequences", batch)
    telemetry.observe_many(
        "hmm.forward.loglik", loglik.tolist(), boundaries=LOGLIK_BUCKETS
    )
    telemetry.counter_add("hmm.score.dedup.calls")
    telemetry.counter_add("hmm.score.dedup.sequences", batch)
    telemetry.counter_add("hmm.score.dedup.unique", int(n_unique))
    if batch:
        telemetry.gauge_set("hmm.score.unique_ratio", n_unique / batch)


def log_likelihood_unique(
    model: HiddenMarkovModel, obs: np.ndarray
) -> np.ndarray:
    """Duplicate-aware ``log P(O | λ)``, bit-identical to plain scoring.

    Hashes rows, scores each distinct window once with
    :func:`score_sequences`, and scatters the result back through the
    inverse index.  Because the scoring kernel is batch-invariant (fixed
    GEMM height; a row's score depends only on the row's content), the
    scattered scores are bit-identical to scoring the full batch —
    duplicates just stop paying for the recursion more than once.

    Telemetry stays multiplicity-weighted: the *scattered* per-sequence
    scores land in the ``hmm.forward.loglik`` histogram and the
    ``hmm.forward.sequences`` counter, exactly as if every row had been
    scored; ``hmm.score.unique_ratio`` reports how much of the batch was
    distinct (1.0 = no duplicates).
    """
    obs = check_obs(model, obs)
    dedup = _dedup_rows(obs)
    if dedup is None:
        loglik = score_sequences(model, obs)
        n_unique = obs.shape[0]
    else:
        unique_rows, inverse = dedup
        loglik = score_sequences(model, unique_rows)[inverse]
        n_unique = unique_rows.shape[0]
    if telemetry.enabled():
        _record_score_telemetry(loglik, int(obs.shape[0]), n_unique)
    return loglik


# ---------------------------------------------------------------------------
# Cross-detector (fleet) batched scoring
# ---------------------------------------------------------------------------


def score_fleet(
    models: "list[HiddenMarkovModel]", obs_list: "list[np.ndarray]"
) -> "list[np.ndarray]":
    """Per-sequence ``log P(O | λ_d)`` for many same-shape models at once.

    The service's fused drain path: instead of walking the scaled forward
    recursion once per detector (D separate (tile, N) GEMM sequences), the
    fleet's transition/emission tensors are stacked into (D, N, N) /
    (D, M, N) operands and every timestep is **one** batched 3-D
    ``np.matmul`` over a (D, H, N) working set — a handful of kernel
    launches per drain, regardless of fleet size.

    Bit-identity with :func:`score_sequences` (and therefore with the
    per-detector drain) rests on the height-invariance property in the
    module docstring: each model's rows sit in a (H, N) slice whose height
    H is the fleet's max batch padded up to a multiple of
    :data:`FLEET_GEMM_UNIT`, and per-slice batched-matmul results equal
    the 2-D calls the tiled kernel issues.  ``tests/test_kernels.py`` and
    the exit-1 gate in ``benchmarks/bench_streaming_forward.py`` enforce
    this at runtime.

    Args:
        models: fleet sharing one ``(n_states, n_symbols)`` shape.
        obs_list: one validated (B_d, T) int array per model — one shared
            length T, per-model batch sizes.

    Returns:
        One (B_d,) score array per model, aligned with ``models``.
    """
    if not models or len(models) != len(obs_list):
        raise ModelError("score_fleet needs one observation batch per model")
    n, m = models[0].n_states, models[0].n_symbols
    length = obs_list[0].shape[1]
    for model, obs in zip(models, obs_list):
        if model.n_states != n or model.n_symbols != m:
            raise ModelError(
                "score_fleet requires same-shape models; mixed-shape fleets "
                "must be scored per shape group"
            )
        if obs.ndim != 2 or obs.shape[1] != length:
            raise ModelError("score_fleet requires one shared window length")
        if obs.shape[0] == 0:
            raise ModelError("score_fleet batches must be non-empty")
    if length == 0:
        return [np.zeros(obs.shape[0]) for obs in obs_list]
    fleet = len(models)
    batches = [obs.shape[0] for obs in obs_list]
    height = -(-max(batches) // FLEET_GEMM_UNIT) * FLEET_GEMM_UNIT
    # Padding rows are symbol 0, exactly like score_sequences' partial
    # tiles: their scores are computed and discarded.
    block = np.zeros((fleet, height, length), dtype=np.int64)
    for d, obs in enumerate(obs_list):
        block[d, : obs.shape[0]] = obs
    transition = np.stack([model.transition for model in models])
    emission_t = np.stack(
        [np.ascontiguousarray(model.emission.T) for model in models]
    )  # (D, M, N)
    initial = np.stack([model.initial for model in models])[:, None, :]
    didx = np.arange(fleet)[:, None]

    alpha = np.empty((fleet, height, n))
    product = np.empty((fleet, height, n))
    scales = np.empty((fleet, height, length))
    np.multiply(initial, emission_t[didx, block[:, :, 0]], out=alpha)
    norm = scales[:, :, 0]
    np.sum(alpha, axis=2, out=norm)
    np.maximum(norm, SCALE_FLOOR, out=norm)
    alpha /= norm[:, :, None]
    for t in range(1, length):
        np.matmul(alpha, transition, out=product)
        np.multiply(product, emission_t[didx, block[:, :, t]], out=alpha)
        norm = scales[:, :, t]
        np.sum(alpha, axis=2, out=norm)
        np.maximum(norm, SCALE_FLOOR, out=norm)
        alpha /= norm[:, :, None]
    np.log(scales, out=scales)
    return [np.sum(scales[d, :rows], axis=1) for d, rows in enumerate(batches)]


def log_likelihood_fleet(
    models: "list[HiddenMarkovModel]", obs_list: "list[np.ndarray]"
) -> "list[np.ndarray]":
    """Duplicate-aware fleet scoring — the fused drain's entry point.

    Per model: validate, hash-dedup the batch (:func:`_dedup_rows`), then
    score every model's *distinct* rows in one :func:`score_fleet`
    contraction and scatter back through the inverse indices.  Each
    model's scattered scores — and its telemetry — are bit-identical to
    what a :func:`log_likelihood_unique` call per model would produce;
    only the kernel-launch count changes.
    """
    if not models or len(models) != len(obs_list):
        raise ModelError(
            "log_likelihood_fleet needs one observation batch per model"
        )
    uniques: list[np.ndarray] = []
    inverses: list[np.ndarray | None] = []
    checked: list[np.ndarray] = []
    for model, obs in zip(models, obs_list):
        obs = check_obs(model, obs)
        checked.append(obs)
        dedup = _dedup_rows(obs)
        if dedup is None:
            uniques.append(obs)
            inverses.append(None)
        else:
            unique_rows, inverse = dedup
            uniques.append(unique_rows)
            inverses.append(inverse)
    scored = score_fleet(models, uniques)
    out: list[np.ndarray] = []
    for obs, unique_scores, inverse in zip(checked, scored, inverses):
        loglik = unique_scores if inverse is None else unique_scores[inverse]
        if telemetry.enabled():
            _record_score_telemetry(
                loglik, int(obs.shape[0]), int(unique_scores.shape[0])
            )
        out.append(loglik)
    return out


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
