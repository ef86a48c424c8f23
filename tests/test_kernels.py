"""Property tests for the fused HMM kernels (repro.hmm.kernels).

Three contracts, each pinned bit-for-bit:

* the fused E-step equals a naive per-timestep reference implementation
  kept in this file (same operation order, plain numpy, fresh arrays);
* duplicate-aware scoring equals plain scoring for arbitrary duplicated
  batches, including the all-duplicate and all-unique extremes;
* an :class:`~repro.hmm.kernels.EMWorkspace` shared across ``train()``
  calls of *different* shapes never leaks state between calls.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hmm import (
    EMWorkspace,
    HiddenMarkovModel,
    TrainingConfig,
    log_likelihood,
    log_likelihood_unique,
    random_model,
    train,
)
from repro.hmm.kernels import SCALE_FLOOR, SCORE_TILE, em_step, score_stacked

# ---------------------------------------------------------------------------
# Naive reference implementation of one EM iteration
# ---------------------------------------------------------------------------


def _reference_em_step(model, obs, weights, config):
    """Readable per-timestep reference for one EM iteration.

    Plain numpy with fresh arrays everywhere — no workspaces, no ``out=``
    writes, no fused loops — mirroring the kernel's *operation order*
    (t-descending ξ/emission accumulation, divide-before-GEMM backward),
    so the fused path must reproduce it bit for bit.
    """
    batch, length = obs.shape
    n, m = model.n_states, model.n_symbols
    weights = np.asarray(weights, dtype=float)
    emission_t = model.emission.T  # (M, N)
    # Contiguous like the kernel's operand: a strided transpose view makes
    # BLAS pick a different (trans) kernel with a different accumulation
    # order for small operands.
    transition_t = np.ascontiguousarray(model.transition.T)

    # Scaled forward pass.
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

    # Backward sweep with fused accumulation, t = T-1 .. 0.
    xi = np.zeros((n, n))
    emit_sum = np.zeros((n, m))
    initial_raw = None
    w_col = weights[:, None]

    def accumulate(t, ab):
        nonlocal initial_raw
        gamma_norm = np.maximum(ab.sum(axis=1), SCALE_FLOOR)
        coeff = weights / gamma_norm
        contrib = ab * coeff[:, None]
        # One fresh per-timestep accumulator, folded into the running total
        # afterwards — each symbol bin is summed over the batch in index
        # order before touching emit_sum, matching the kernel's per-step
        # bincount exactly.
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
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def em_case(draw):
    n_states = draw(st.integers(min_value=1, max_value=6))
    n_symbols = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    model = random_model(
        [f"s{i}" for i in range(n_symbols)], n_states=n_states, seed=seed
    )
    batch = draw(st.integers(min_value=1, max_value=40))
    length = draw(st.integers(min_value=1, max_value=10))
    rng = np.random.default_rng(seed + 1)
    obs = rng.integers(0, n_symbols, size=(batch, length))
    weights = rng.integers(1, 5, size=batch).astype(float)
    update_initial = draw(st.booleans())
    return model, obs, weights, TrainingConfig(update_initial=update_initial)


@st.composite
def duplicated_batch(draw):
    n_symbols = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    model = random_model(
        [f"s{i}" for i in range(n_symbols)],
        n_states=draw(st.integers(min_value=1, max_value=5)),
        seed=seed,
    )
    length = draw(st.integers(min_value=1, max_value=10))
    n_unique = draw(st.integers(min_value=1, max_value=6))
    multiplicities = draw(
        st.lists(
            st.integers(min_value=1, max_value=5),
            min_size=n_unique,
            max_size=n_unique,
        )
    )
    rng = np.random.default_rng(seed + 1)
    base = rng.integers(0, n_symbols, size=(n_unique, length))
    obs = np.repeat(base, multiplicities, axis=0)
    obs = obs[rng.permutation(obs.shape[0])]
    return model, obs


# ---------------------------------------------------------------------------
# (a) fused E-step ≡ naive reference, bit for bit
# ---------------------------------------------------------------------------


class TestFusedEmStep:
    @settings(max_examples=60, deadline=None)
    @given(em_case())
    def test_bit_identical_to_reference(self, case):
        model, obs, weights, config = case
        expected, expected_ll = _reference_em_step(model, obs, weights, config)
        actual, actual_ll = em_step(model, obs, weights, config)
        assert actual_ll == expected_ll
        assert np.array_equal(actual.transition, expected.transition)
        assert np.array_equal(actual.emission, expected.emission)
        assert np.array_equal(actual.initial, expected.initial)

    def test_bit_identical_at_scale(self):
        """One deterministic large case (batch ≫ internal tile sizes)."""
        rng = np.random.default_rng(3)
        model = random_model([f"s{i}" for i in range(32)], n_states=16, seed=5)
        obs = rng.integers(0, 32, size=(1500, 15))
        weights = rng.integers(1, 4, size=1500).astype(float)
        config = TrainingConfig()
        expected, expected_ll = _reference_em_step(model, obs, weights, config)
        actual, actual_ll = em_step(model, obs, weights, config)
        assert actual_ll == expected_ll
        assert np.array_equal(actual.transition, expected.transition)
        assert np.array_equal(actual.emission, expected.emission)
        assert np.array_equal(actual.initial, expected.initial)


# ---------------------------------------------------------------------------
# (b) duplicate-aware scoring ≡ plain scoring, bit for bit
# ---------------------------------------------------------------------------


class TestLogLikelihoodUnique:
    @settings(max_examples=60, deadline=None)
    @given(duplicated_batch())
    def test_matches_plain_scoring(self, case):
        model, obs = case
        assert np.array_equal(
            log_likelihood_unique(model, obs), log_likelihood(model, obs)
        )

    def test_all_duplicates(self):
        model = random_model(["a", "b", "c"], n_states=3, seed=0)
        obs = np.tile(np.array([[0, 1, 2, 1, 0]]), (50, 1))
        assert np.array_equal(
            log_likelihood_unique(model, obs), log_likelihood(model, obs)
        )

    def test_all_unique(self):
        rng = np.random.default_rng(1)
        model = random_model([f"s{i}" for i in range(16)], n_states=4, seed=2)
        obs = rng.permutation(16 ** 2)[:200]  # distinct 2-symbol rows
        obs = np.stack([obs // 16, obs % 16], axis=1)
        assert np.array_equal(
            log_likelihood_unique(model, obs), log_likelihood(model, obs)
        )

    def test_single_row(self):
        model = random_model(["a", "b"], n_states=2, seed=3)
        obs = np.array([[0, 1, 1, 0]])
        assert np.array_equal(
            log_likelihood_unique(model, obs), log_likelihood(model, obs)
        )

    def test_scoring_is_batch_invariant(self):
        """A row's score is a pure function of the row and its model:
        scoring any subset of rows — whatever its size or position
        relative to the fixed-height tiles — or stacking another model's
        batch beside it is bit-identical to scoring the full batch alone.
        n_states=17 deliberately hits the BLAS odd-row edge kernels that
        make *variable*-height GEMMs position-dependent; 57-114 are the
        corpus libcall sizes, where differently tall GEMMs disagree."""
        rng = np.random.default_rng(4)
        symbols = [f"s{i}" for i in range(24)]
        rows = SCORE_TILE * 3 + 5
        for n_states in (17, 57, 58, 59, 74, 90, 98, 114):
            model = random_model(symbols, n_states=n_states, seed=6)
            other = random_model(symbols, n_states=n_states, seed=7)
            obs = rng.integers(0, 24, size=(rows, 12))
            other_obs = rng.integers(0, 24, size=(SCORE_TILE + 1, 12))
            full = score_stacked([model], [obs])[0]
            for subset in (
                np.arange(1),  # single row
                np.arange(SCORE_TILE // 2, 2 * SCORE_TILE + 3),  # straddles a tile boundary
                rng.permutation(rows)[: SCORE_TILE + 7],  # scattered odd count
                np.arange(rows),  # identity
            ):
                scored = score_stacked([model], [obs[subset]])[0]
                assert np.array_equal(scored, full[subset]), n_states
            stacked, stacked_other = score_stacked([model, other], [obs, other_obs])
            assert np.array_equal(stacked, full), n_states
            assert np.array_equal(
                stacked_other, score_stacked([other], [other_obs])[0]
            ), n_states


# ---------------------------------------------------------------------------
# (c) workspace reuse never leaks state between train() calls
# ---------------------------------------------------------------------------


@st.composite
def train_cases(draw):
    """A short sequence of differently-shaped training problems."""
    cases = []
    for index in range(draw(st.integers(min_value=2, max_value=3))):
        n_symbols = draw(st.integers(min_value=2, max_value=6))
        seed = draw(st.integers(min_value=0, max_value=10_000)) + index
        model = random_model(
            [f"s{i}" for i in range(n_symbols)],
            n_states=draw(st.integers(min_value=1, max_value=4)),
            seed=seed,
        )
        rng = np.random.default_rng(seed + 1)
        batch = draw(st.integers(min_value=2, max_value=20))
        length = draw(st.integers(min_value=2, max_value=8))
        obs = rng.integers(0, n_symbols, size=(batch, length))
        with_holdout = draw(st.booleans())
        holdout = (
            rng.integers(0, n_symbols, size=(3, length)) if with_holdout else None
        )
        cases.append((model, obs, holdout))
    return cases


class TestWorkspaceReuse:
    @settings(max_examples=25, deadline=None)
    @given(train_cases())
    def test_shared_workspace_matches_fresh(self, cases):
        config = TrainingConfig(max_iterations=4)
        shared = EMWorkspace()
        for model, obs, holdout in cases:
            with_shared, report_shared = train(
                model, obs, holdout_obs=holdout, config=config, workspace=shared
            )
            fresh, report_fresh = train(
                model, obs, holdout_obs=holdout, config=config
            )
            assert np.array_equal(with_shared.transition, fresh.transition)
            assert np.array_equal(with_shared.emission, fresh.emission)
            assert np.array_equal(with_shared.initial, fresh.initial)
            assert report_shared.iterations == report_fresh.iterations
            assert (
                report_shared.train_log_likelihood
                == report_fresh.train_log_likelihood
            )
            assert (
                report_shared.holdout_log_likelihood
                == report_fresh.holdout_log_likelihood
            )
            assert report_shared.converged == report_fresh.converged
