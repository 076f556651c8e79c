"""Stochastic window transforms: identities, involutions, batch views."""

import numpy as np
import pytest

from metareplay.augment import (AugmentError, ChannelShuffle, Jitter, Negate,
                                Permute, Rotate3D, Scale, TimeFlip,
                                default_multitask_kinds, default_simclr_pipeline,
                                kind_from_config, kind_name, paired_views_batch,
                                sample_task_batch)


@pytest.fixture
def rng():
    return np.random.default_rng(77)


@pytest.fixture
def win(rng):
    return rng.uniform(-0.8, 0.8, size=(3, 64)).astype(np.float32)


def _views(pipeline, win, rng):
    """Both views of one window: the pipeline applied to two copies of it,
    then clamped."""
    return paired_views_batch(win[None], pipeline, rng)


# ---------------------------------------------------------------------------
# identities and involutions

def test_jitter_sigma_zero_is_identity(win, rng):
    for out in _views((Jitter(sigma=0.0),), win, rng):
        np.testing.assert_array_equal(out, win)


def test_scale_factor_one_is_identity(win, rng):
    for out in _views((Scale(low=1.0, high=1.0),), win, rng):
        np.testing.assert_allclose(out, win, atol=1e-7)


def test_permute_one_segment_is_identity(win, rng):
    for out in _views((Permute(n_segments=1),), win, rng):
        np.testing.assert_array_equal(out, win)


def test_negate_is_involution(win, rng):
    for once in _views((Negate(),), win, rng):
        np.testing.assert_array_equal(once, -win)
    for twice in _views((Negate(), Negate()), win, rng):
        np.testing.assert_array_equal(twice, win)


def test_time_flip_is_involution(win, rng):
    for once in _views((TimeFlip(),), win, rng):
        np.testing.assert_array_equal(once, win[:, ::-1])
    for twice in _views((TimeFlip(), TimeFlip()), win, rng):
        np.testing.assert_array_equal(twice, win)


def test_output_clamped(rng):
    vals = np.full((3, 32), 0.99, dtype=np.float32)
    out = _views((Scale(low=3.0, high=3.0),), vals, rng)
    np.testing.assert_array_equal(out, 1.0)
    out, _ = sample_task_batch(vals[None], (Scale(low=3.0, high=3.0),), rng, p=1.0)
    np.testing.assert_array_equal(out, 1.0)


# ---------------------------------------------------------------------------
# rotation (per-timestep norms stay below 1, so the clamp never acts)

def test_rotate3d_preserves_per_timestep_norms(win, rng):
    small = 0.5 * win
    for out in _views((Rotate3D(max_angle_deg=30.0),), small, rng):
        np.testing.assert_allclose(np.linalg.norm(out, axis=0),
                                   np.linalg.norm(small, axis=0), atol=1e-5)


def test_rotate3d_applies_one_matrix_for_all_timesteps(win, rng):
    small = 0.5 * win
    for out in _views((Rotate3D(45.0),), small, rng):
        # recover the matrix from 3 timesteps, check it maps the rest too
        a = small[:, :3].astype(np.float64)
        b = out[:, :3].astype(np.float64)
        r = b @ np.linalg.inv(a)
        np.testing.assert_allclose(r @ small, out, atol=1e-4)


def test_rotate3d_needs_three_channels(rng):
    two = np.zeros((1, 2, 16), dtype=np.float32)
    with pytest.raises(AugmentError, match="3 channels"):
        paired_views_batch(two, (Rotate3D(30.0),), rng)
    with pytest.raises(AugmentError, match="3 channels"):
        sample_task_batch(two, (Rotate3D(30.0),), rng, p=1.0)


def test_permute_preserves_channel_multisets(win, rng):
    for out in _views((Permute(n_segments=4),), win, rng):
        for c in range(3):
            np.testing.assert_array_equal(np.sort(out[c]), np.sort(win[c]))


def test_channel_shuffle_permutes_rows(win, rng):
    want = {win[i].tobytes() for i in range(3)}
    for out in _views((ChannelShuffle(),), win, rng):
        assert {out[i].tobytes() for i in range(3)} == want


# ---------------------------------------------------------------------------
# parameter validation

def test_invalid_parameters_raise():
    with pytest.raises(AugmentError):
        Jitter(sigma=-0.1)
    with pytest.raises(AugmentError):
        Scale(low=1.2, high=0.9)
    with pytest.raises(AugmentError):
        Permute(n_segments=0)
    with pytest.raises(AugmentError):
        Rotate3D(max_angle_deg=-5.0)


def test_kind_config_round_trip():
    for kind in default_multitask_kinds() + (ChannelShuffle(),):
        name = kind_name(kind)
        assert kind_from_config({"kind": name}) == type(kind)() \
            or kind_from_config({"kind": name}).__class__ is kind.__class__
    assert kind_from_config("negate") == Negate()
    with pytest.raises(AugmentError):
        kind_from_config({"kind": "warp"})


# ---------------------------------------------------------------------------
# views

def test_two_views_identity_pipeline_equals_source(rng):
    wins = rng.uniform(-0.5, 0.5, size=(3, 3, 32)).astype(np.float32)
    out = paired_views_batch(wins, (Jitter(0.0), Scale(1.0, 1.0), Permute(1)), rng)
    np.testing.assert_allclose(out[0::2], wins, atol=1e-7)
    np.testing.assert_allclose(out[1::2], wins, atol=1e-7)


def test_two_views_same_seed_identical(win):
    pipeline = default_simclr_pipeline()
    a = paired_views_batch(win[None], pipeline, np.random.default_rng(5))
    b = paired_views_batch(win[None], pipeline, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    # and the two draws differ from each other
    assert not np.array_equal(a[0], a[1])


def test_two_views_negate_only(win, rng):
    v1, v2 = paired_views_batch(win[None], (Negate(),), rng)
    np.testing.assert_array_equal(v1, -win)
    np.testing.assert_array_equal(v2, -win)


def test_two_views_empty_pipeline_raises(win, rng):
    with pytest.raises(AugmentError):
        paired_views_batch(win[None], (), rng)


def test_paired_views_layout(rng):
    wins = rng.uniform(-0.5, 0.5, size=(4, 3, 32)).astype(np.float32)
    out = paired_views_batch(wins, (Negate(),), rng)
    assert out.shape == (8, 3, 32)
    for i in range(4):
        np.testing.assert_array_equal(out[2 * i], -wins[i])
        np.testing.assert_array_equal(out[2 * i + 1], -wins[i])


def test_paired_views_deterministic(rng):
    wins = rng.uniform(-0.5, 0.5, size=(3, 3, 32)).astype(np.float32)
    a = paired_views_batch(wins, default_simclr_pipeline(),
                           np.random.default_rng(9))
    b = paired_views_batch(wins, default_simclr_pipeline(),
                           np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)
    # and the two draws of one window differ from each other
    for i in range(3):
        assert not np.array_equal(a[2 * i], a[2 * i + 1])


# ---------------------------------------------------------------------------
# detection batches

def test_task_batch_probability_zero(rng):
    wins = rng.uniform(-0.5, 0.5, size=(5, 3, 32)).astype(np.float32)
    out, labels = sample_task_batch(wins, default_multitask_kinds(), rng, p=0.0)
    np.testing.assert_array_equal(labels, 0.0)
    np.testing.assert_array_equal(out, wins)


def test_task_batch_probability_one_negate(rng):
    wins = rng.uniform(-0.5, 0.5, size=(5, 3, 32)).astype(np.float32)
    out, labels = sample_task_batch(wins, (Negate(),), rng, p=1.0)
    np.testing.assert_array_equal(labels, 1.0)
    np.testing.assert_array_equal(out, -wins)


def test_task_batch_label_shape(rng):
    wins = rng.uniform(-0.5, 0.5, size=(7, 3, 32)).astype(np.float32)
    kinds = default_multitask_kinds()
    _, labels = sample_task_batch(wins, kinds, rng)
    assert labels.shape == (7, len(kinds))
    assert set(np.unique(labels)).issubset({0.0, 1.0})


def test_task_batch_rates_near_half():
    rng = np.random.default_rng(123)
    wins = rng.uniform(-0.5, 0.5, size=(200, 3, 16)).astype(np.float32)
    _, labels = sample_task_batch(wins, (Negate(), TimeFlip()), rng, p=0.5)
    rate = labels.mean(axis=0)
    assert np.all(np.abs(rate - 0.5) < 0.12)


def test_task_batch_labels_reflect_application(rng):
    # with deterministic involutions the label tells exactly what happened
    wins = rng.uniform(-0.4, 0.4, size=(50, 3, 16)).astype(np.float32)
    out, labels = sample_task_batch(wins, (Negate(),), rng, p=0.5)
    for i in range(50):
        expect = -wins[i] if labels[i, 0] else wins[i]
        np.testing.assert_array_equal(out[i], expect)


def _stochastic(kind):
    """One [C, 64] window of distinct values, with enough channels for
    ChannelShuffle that two rows' permutations practically never meet."""
    c = 16 if isinstance(kind, ChannelShuffle) else 3
    return np.random.default_rng(1).uniform(-0.5, 0.5, size=(c, 64)).astype(np.float32)


@pytest.mark.parametrize("kind", [Jitter(0.1), Scale(0.8, 1.2), Rotate3D(40.0),
                                  Permute(16), ChannelShuffle()], ids=kind_name)
def test_identical_windows_get_pairwise_different_rows(kind):
    # one draw broadcast to the whole batch would make rows equal
    wins = np.repeat(_stochastic(kind)[None], 6, axis=0)
    views = paired_views_batch(wins, (kind,), np.random.default_rng(3))
    detected, _ = sample_task_batch(wins, (kind,), np.random.default_rng(3), p=1.0)
    for out in (views, detected):
        rows = {r.tobytes() for r in out}
        assert len(rows) == len(out)


def test_scale_rows_are_input_times_one_factor_in_range():
    wins = np.random.default_rng(2).uniform(-0.5, 0.5, size=(8, 3, 32)).astype(np.float32)
    out = paired_views_batch(wins, (Scale(0.8, 1.2),), np.random.default_rng(4))
    for x, y in zip(np.repeat(wins, 2, axis=0), out):
        f = float(np.sum(x * y) / np.sum(x * x))
        assert 0.8 - 1e-6 <= f <= 1.2 + 1e-6
        np.testing.assert_allclose(y, f * x, rtol=1e-6, atol=1e-7)


def test_rotate3d_rows_are_proper_rotations_within_max_angle():
    wins = np.random.default_rng(2).uniform(-0.5, 0.5, size=(8, 3, 32)).astype(np.float32)
    out = paired_views_batch(wins, (Rotate3D(40.0),), np.random.default_rng(4))
    for x, y in zip(np.repeat(wins, 2, axis=0).astype(np.float64), out):
        r = y @ np.linalg.pinv(x)
        np.testing.assert_allclose(r @ x, y, atol=1e-5)
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-5)
        assert abs(np.linalg.det(r) - 1.0) < 1e-5
        angle = np.arccos(np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0))
        assert angle <= np.deg2rad(40.0) + 1e-4


def test_task_batch_labels_independent_of_transform_draws():
    # the coin matrix is drawn first, whatever the kinds consume afterwards
    wins = np.random.default_rng(2).uniform(-0.5, 0.5, size=(9, 3, 32)).astype(np.float32)
    _, a = sample_task_batch(wins, (Jitter(0.1), Rotate3D(30.0)), np.random.default_rng(4))
    _, b = sample_task_batch(wins, (Negate(), TimeFlip()), np.random.default_rng(4))
    np.testing.assert_array_equal(a, b)
