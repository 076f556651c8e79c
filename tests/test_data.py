"""Windowing, normalization, splits, the synthetic generator, file formats."""

import hashlib
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from metareplay.data import (DataError, Dataset, DomainRecipe, SplitPlan,
                             SynthSpec, apply_norm, compute_norm_stats,
                             default_synth_spec, exclude_small_domains,
                             make_split, normalize, pool_split,
                             read_csv_dataset, read_dataset,
                             stratified_shot_split, synth_generate,
                             windowize, write_csv_dataset, write_dataset)
from metareplay.data import _axis_rotation, _class_directions
from metareplay.harness import load_plan


def small_synth(seed=3, spc=12, n_domains=3):
    return synth_generate(default_synth_spec(n_domains=n_domains,
                                             samples_per_class=spc), seed)


# ---------------------------------------------------------------------------
# windowing

def test_windowize_count_and_content():
    series = np.arange(2 * 700, dtype=np.float32).reshape(2, 700)
    ws = windowize(series, window=256, overlap=128)
    # step 128: (700 - 256) // 128 + 1
    assert ws.shape == (4, 2, 256) and ws.dtype == np.float32
    np.testing.assert_array_equal(ws[0], series[:, :256])
    np.testing.assert_array_equal(ws[1], series[:, 128:384])
    np.testing.assert_array_equal(ws[3], series[:, 384:640])


def test_windowize_no_overlap():
    series = np.zeros((3, 512), dtype=np.float32)
    assert len(windowize(series, window=256, overlap=0)) == 2


def test_windowize_short_series_raises():
    with pytest.raises(DataError, match="shorter than window"):
        windowize(np.zeros((3, 100), dtype=np.float32), window=256)


def test_windowize_bad_overlap_raises():
    with pytest.raises(DataError):
        windowize(np.zeros((3, 600), dtype=np.float32), window=256, overlap=256)


# ---------------------------------------------------------------------------
# normalization

def test_norm_maps_channel_extremes_to_unit_interval():
    rng = np.random.default_rng(0)
    vals = rng.uniform(-5, 9, size=(20, 3, 16)).astype(np.float32)
    ds = Dataset(vals, np.zeros(20, dtype=np.int16), np.zeros(20, dtype=np.uint16),
                 ("d0",), 1)
    out = normalize(ds)
    for c in range(3):
        ch = out.values[:, c, :]
        assert ch.min() == pytest.approx(-1.0, abs=1e-6)
        assert ch.max() == pytest.approx(1.0, abs=1e-6)


def test_norm_constant_channel_goes_to_zero():
    vals = np.ones((5, 3, 8), dtype=np.float32)
    vals[:, 1, :] = 7.0                      # constant channel
    vals[0, 0, 0] = -1.0
    vals[0, 2, 3] = 2.0
    ds = Dataset(vals, np.zeros(5, dtype=np.int16), np.zeros(5, dtype=np.uint16),
                 ("d0",), 1)
    out = normalize(ds)
    np.testing.assert_array_equal(out.values[:, 1, :], 0.0)


def test_norm_is_idempotent():
    ds = small_synth()
    once = normalize(ds)
    twice = normalize(once)
    np.testing.assert_allclose(once.values, twice.values, atol=1e-6)


def test_apply_norm_clips_out_of_pool_values():
    pool = np.zeros((4, 3, 8), dtype=np.float32)
    pool[0, :, 0] = 1.0
    pool[0, :, 1] = -1.0
    stats = compute_norm_stats(pool)
    wild = Dataset(np.full((2, 3, 8), 50.0, dtype=np.float32),
                   np.zeros(2, dtype=np.int16), np.zeros(2, dtype=np.uint16),
                   ("d0",), 1)
    out = apply_norm(wild, stats)
    assert out.values.max() <= 1.0
    assert out.values.min() >= -1.0


def test_apply_norm_matches_the_expression_and_leaves_input_alone():
    ds = small_synth(spc=4)
    before = ds.values.copy()
    stats = compute_norm_stats(ds.values[:20])      # other windows leave [-1, 1]
    mid, scale = stats.mid[None, :, None], stats.scale[None, :, None]
    unclipped = (ds.values - mid) * scale
    assert np.abs(unclipped).max() > 1.0
    out = apply_norm(ds, stats)
    assert out.values.dtype == np.float32
    assert out.values.tobytes() == \
        np.clip(unclipped, -1.0, 1.0).astype(np.float32).tobytes()
    np.testing.assert_array_equal(ds.values, before)


def test_norm_rejects_nan():
    bad = np.zeros((2, 3, 4), dtype=np.float32)
    bad[0, 0, 0] = np.nan
    with pytest.raises(DataError):
        compute_norm_stats(bad)


def test_exclude_small_domains_reindexes_densely():
    vals = np.zeros((21, 3, 8), dtype=np.float32)
    domains = np.array([0] * 10 + [1] * 3 + [2] * 8, dtype=np.uint16)
    ds = Dataset(vals, np.zeros(21, dtype=np.int16), domains,
                 ("a", "b", "c"), 1)
    out = exclude_small_domains(ds, min_count=5)
    assert out.n_windows == 18
    assert out.n_domains == 2
    assert out.domain_tags == ("a", "c")
    assert set(np.unique(out.domains)) == {0, 1}


def test_exclude_small_domains_all_dropped_raises():
    ds = small_synth(spc=2)
    with pytest.raises(DataError):
        exclude_small_domains(ds, min_count=10**6)


# ---------------------------------------------------------------------------
# splits

def test_pool_split_sizes_floor_arithmetic():
    rng = np.random.default_rng(5)
    train, val, rest = pool_split(np.arange(1000), rng)
    assert (len(train), len(val), len(rest)) == (630, 70, 300)
    combined = np.sort(np.concatenate([train, val, rest]))
    np.testing.assert_array_equal(combined, np.arange(1000))


def test_pool_split_tiny_pool():
    rng = np.random.default_rng(5)
    train, val, rest = pool_split(np.arange(10), rng)
    assert (len(train), len(val), len(rest)) == (6, 1, 3)


def test_make_split_partitions_domains_correctly():
    ds = small_synth()
    plan = make_split(ds, target=1, k=3, seed=17)
    plan.validate_against(ds)
    assert not np.any(ds.domains[plan.pretrain_train] == 1)
    assert not np.any(ds.domains[plan.pretrain_val] == 1)
    for name in ("finetune_shots", "target_val", "target_test"):
        assert np.all(ds.domains[getattr(plan, name)] == 1)
    # k shots for each class present in the target domain
    labs = ds.labels[plan.finetune_shots]
    for c in range(ds.n_classes):
        assert (labs == c).sum() == 3
    assert abs(len(plan.target_val) - len(plan.target_test)) <= 1


def test_make_split_is_bit_exact_reproducible():
    ds = small_synth()
    a = make_split(ds, target=2, k=2, seed=99)
    b = make_split(ds, target=2, k=2, seed=99)
    for name, idx in a.index_sets().items():
        np.testing.assert_array_equal(idx, getattr(b, name))
    c = make_split(ds, target=2, k=2, seed=100)
    assert any(not np.array_equal(getattr(a, n), getattr(c, n))
               for n in a.index_sets())


def test_make_split_too_few_shots_raises():
    ds = small_synth(spc=4)
    with pytest.raises(DataError, match="class"):
        make_split(ds, target=0, k=5, seed=0)   # only 4 windows per class
    with pytest.raises(DataError, match="val/test"):
        make_split(ds, target=0, k=4, seed=0)   # shots eat the whole domain


def test_split_plan_rejects_overlap():
    ds = small_synth()
    plan = make_split(ds, target=0, k=2, seed=1)
    with pytest.raises(DataError, match="overlap"):
        SplitPlan(pretrain_train=plan.pretrain_train,
                  pretrain_val=plan.pretrain_val,
                  finetune_shots=plan.finetune_shots,
                  target_val=plan.target_val,
                  target_test=np.concatenate([plan.target_test,
                                              plan.finetune_shots[:1]]),
                  target_domain=plan.target_domain, seed=1)


def test_split_plan_validate_catches_domain_leak():
    ds = small_synth()
    plan = make_split(ds, target=0, k=2, seed=1)
    target_win = plan.finetune_shots[0]
    leaked = SplitPlan(pretrain_train=np.concatenate([plan.pretrain_train,
                                                      [target_win]]),
                       pretrain_val=plan.pretrain_val,
                       finetune_shots=plan.finetune_shots[1:],
                       target_val=plan.target_val,
                       target_test=plan.target_test,
                       target_domain=plan.target_domain, seed=1)
    with pytest.raises(DataError, match="held-out"):
        leaked.validate_against(ds)


def test_split_plan_json_round_trip(tmp_path):
    ds = small_synth()
    plan = make_split(ds, target=1, k=2, seed=42)
    p = tmp_path / "split.json"
    plan.save_json(p)
    back = SplitPlan.load_json(p)
    for name, idx in plan.index_sets().items():
        np.testing.assert_array_equal(idx, getattr(back, name))
    assert back.target_domain == plan.target_domain
    assert back.seed == plan.seed


def test_stratified_shot_split_needs_labels():
    vals = np.zeros((10, 3, 8), dtype=np.float32)
    ds = Dataset(vals, np.full(10, -1, dtype=np.int16),
                 np.zeros(10, dtype=np.uint16), ("d0",), 2)
    with pytest.raises(DataError, match="no labeled"):
        stratified_shot_split(ds, np.arange(10), 1,
                              np.random.default_rng(0), "pool")


# ---------------------------------------------------------------------------
# synthetic generator

def test_synth_labels_balanced():
    ds = small_synth(spc=9)
    for d in range(ds.n_domains):
        counts = np.bincount(ds.labels[ds.domains == d], minlength=ds.n_classes)
        np.testing.assert_array_equal(counts, 9)


def test_synth_identity_recipes_share_windows():
    ident = DomainRecipe()           # rotation 0, gain 1, sigma 0, phase 0
    spec = SynthSpec(domains=(ident, ident), n_classes=3, samples_per_class=5,
                     timesteps=64)
    ds = synth_generate(spec, seed=11)
    a = ds.values[ds.domains == 0]
    b = ds.values[ds.domains == 1]
    np.testing.assert_array_equal(a, b)


def test_synth_rotation_preserves_per_timestep_norms():
    base = DomainRecipe()
    rot = DomainRecipe(rotation_deg=57.0, rotation_axis=1)
    spec = SynthSpec(domains=(base, rot), n_classes=2, samples_per_class=4,
                     timesteps=64)
    ds = synth_generate(spec, seed=5)
    n0 = np.linalg.norm(ds.values[ds.domains == 0], axis=1)
    n1 = np.linalg.norm(ds.values[ds.domains == 1], axis=1)
    np.testing.assert_allclose(n0, n1, atol=1e-4)


def test_synth_gain_scales_norms():
    base = DomainRecipe()
    gained = DomainRecipe(gain=1.7)
    spec = SynthSpec(domains=(base, gained), n_classes=2, samples_per_class=3,
                     timesteps=64)
    ds = synth_generate(spec, seed=5)
    n0 = np.linalg.norm(ds.values[ds.domains == 0], axis=1)
    n1 = np.linalg.norm(ds.values[ds.domains == 1], axis=1)
    np.testing.assert_allclose(n1, 1.7 * n0, rtol=1e-4)


def test_synth_deterministic_per_seed():
    spec = default_synth_spec(samples_per_class=4)
    a = synth_generate(spec, seed=8)
    b = synth_generate(spec, seed=8)
    np.testing.assert_array_equal(a.values, b.values)
    c = synth_generate(spec, seed=9)
    assert not np.array_equal(a.values, c.values)


def _reference_window(spec, recipe, seed, d, c, s):
    """One window computed on its own, drawing its template from the
    (seed, c, s) stream exactly as synth_generate does once per draw."""
    t = np.linspace(0.0, 2.0 * np.pi, spec.timesteps, endpoint=False)
    rng = np.random.default_rng([seed, c, s])
    da1, da2 = 0.3 * rng.standard_normal(2)
    u1, u2 = _class_directions(c, spec.n_classes, da1, da2)
    f1 = 4.0 + 0.15 * c
    f2 = 7.5 + 0.2 * c
    p1, p2, pe = rng.uniform(0.0, 2.0 * np.pi, size=3)
    j1, j2 = 1.0 + 0.08 * rng.standard_normal(2)
    amp = 1.0 + 0.3 * rng.standard_normal()
    x = (u1[:, None] * np.sin(f1 * j1 * t[None, :] + p1 + recipe.phase)
         + 0.8 * u2[:, None] * np.sin(f2 * j2 * t[None, :] + p2 + recipe.phase))
    env = 0.7 + 0.3 * np.sin(t + pe)
    x = amp * x * env[None, :]
    rot = _axis_rotation(recipe.rotation_axis, recipe.rotation_deg)
    cg = np.asarray(recipe.channel_gains, dtype=np.float64)[:, None]
    x = recipe.gain * cg * (rot @ x)
    if recipe.noise_sigma > 0:
        rng_n = np.random.default_rng([seed, 7919, d, c, s])
        x = x + recipe.noise_sigma * rng_n.standard_normal(x.shape)
    return x.astype(np.float32)


def test_synth_matches_per_window_reference():
    spec = SynthSpec(domains=(
        DomainRecipe(rotation_deg=40.0, rotation_axis=0, gain=1.3,
                     channel_gains=(0.7, 1.2, 2.0), noise_sigma=0.1, phase=0.4),
        DomainRecipe(rotation_deg=-75.0, rotation_axis=1, gain=0.6,
                     channel_gains=(1.5, 0.5, 1.1), noise_sigma=0.0, phase=-1.3),
        DomainRecipe(rotation_deg=110.0, rotation_axis=2, gain=1.1,
                     channel_gains=(1.0, 0.8, 1.4), noise_sigma=0.3, phase=2.2)),
        n_classes=3, samples_per_class=5, timesteps=48)
    seed = 17
    ds = synth_generate(spec, seed)
    i = 0
    for d, recipe in enumerate(spec.domains):
        for c in range(spec.n_classes):
            for s in range(spec.samples_per_class):
                assert ds.labels[i] == c and ds.domains[i] == d
                assert np.array_equal(ds.values[i],
                                      _reference_window(spec, recipe, seed, d, c, s))
                i += 1
    assert i == ds.n_windows


FIXTURES = Path(__file__).parent / "fixtures"

# sha256 of values, labels and domains of the fixture plans' dataset
FIXTURE_DIGESTS = (
    "fa3411daa4d0972ab768c0ba379e1764a5bfe26cc353e71fc5f9dbe45d0b7252",
    "ddcce7b12f3ce01bcf4f3335bb3699f2a71559bdbc8409e929249a01d18cef59",
    "d81a548a7ffd13598e4ca0cb72005aeb5753a417f15f90809e72880c91d6f7fb",
)


@pytest.mark.parametrize("name", ["transfer_plan", "study_plan"])
def test_synth_fixture_datasets_are_pinned(name):
    plan = load_plan(FIXTURES / f"{name}.json")
    ds = synth_generate(plan.synth_spec, plan.synth_seed)
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest()
                 for a in (ds.values, ds.labels, ds.domains)) == FIXTURE_DIGESTS


def test_synth_recipe_validation():
    with pytest.raises(DataError):
        DomainRecipe(rotation_axis=3)
    with pytest.raises(DataError):
        DomainRecipe(gain=0.0)
    with pytest.raises(DataError):
        DomainRecipe(noise_sigma=-0.1)


# ---------------------------------------------------------------------------
# dataset invariants

def test_dataset_rejects_label_out_of_range():
    vals = np.zeros((3, 3, 8), dtype=np.float32)
    labels = np.array([0, 1, 5], dtype=np.int16)
    with pytest.raises(DataError):
        Dataset(vals, labels, np.zeros(3, dtype=np.uint16), ("d0",), 2)


def test_dataset_rejects_length_mismatch():
    vals = np.zeros((3, 3, 8), dtype=np.float32)
    with pytest.raises(DataError):
        Dataset(vals, np.zeros(2, dtype=np.int16),
                np.zeros(3, dtype=np.uint16), ("d0",), 1)


def test_dataset_domain_indices_and_counts():
    ds = small_synth(spc=6)
    idx = ds.domain_indices(1)
    assert np.all(ds.domains[idx] == 1)
    assert len(idx) == 6 * ds.n_classes


# ---------------------------------------------------------------------------
# on-disk formats

def test_binary_dataset_round_trip_bit_exact(tmp_path):
    ds = replace(small_synth(spc=5), domain_tags=("synth0", "Zürich-wrist", "手首"))
    p = tmp_path / "ds.bin"
    write_dataset(ds, p)
    back = read_dataset(p)
    assert back.values.tobytes() == ds.values.tobytes()
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.domains, ds.domains)
    assert back.n_classes == ds.n_classes
    assert back.n_domains == ds.n_domains
    assert back.domain_tags == ("synth0", "Zürich-wrist", "手首")
    assert struct.unpack_from("<H", p.read_bytes(), 4) == (2,)   # format version


def test_binary_dataset_write_read_write_identical_bytes(tmp_path):
    ds = replace(small_synth(spc=4), domain_tags=("a", "", "ß"))
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_dataset(ds, p1)
    write_dataset(read_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def _version1_bytes(ds):
    """A version-1 file, laid out by hand: header, then the records."""
    head = b"ADS1" + struct.pack("<HIHHHH", 1, ds.n_windows, ds.channels,
                                 ds.timesteps, ds.n_domains, ds.n_classes)
    body = b"".join(struct.pack("<hH", int(ds.labels[i]), int(ds.domains[i]))
                    + ds.values[i].astype("<f4").tobytes()
                    for i in range(ds.n_windows))
    return head + body


def test_binary_dataset_reads_version1(tmp_path):
    ds = small_synth(spc=2)
    p = tmp_path / "v1.bin"
    p.write_bytes(_version1_bytes(ds))
    back = read_dataset(p)
    assert back.values.tobytes() == ds.values.tobytes()
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.domains, ds.domains)
    assert back.n_classes == ds.n_classes
    assert back.domain_tags == ("domain0", "domain1", "domain2")


def test_binary_dataset_truncated_tag_block(tmp_path):
    p = tmp_path / "ds.bin"
    write_dataset(small_synth(spc=2), p)
    blob = p.read_bytes()
    second = 4 + struct.calcsize("<HIHHHH") + 2 + len(b"synth0")
    # cut inside the second tag's length field, then inside its text
    for cut in (second + 1, second + 2 + 3):
        p.write_bytes(blob[:cut])
        with pytest.raises(DataError, match="truncated domain tag"):
            read_dataset(p)


def test_binary_dataset_overlong_tag_block(tmp_path):
    p = tmp_path / "ds.bin"
    write_dataset(small_synth(spc=2), p)
    blob = bytearray(p.read_bytes())
    first = 4 + struct.calcsize("<HIHHHH")
    # a tag length running past the end of the file
    struct.pack_into("<H", blob, first, 0xFFFF)
    p.write_bytes(bytes(blob[:first + 100]))
    with pytest.raises(DataError, match="truncated domain tag"):
        read_dataset(p)
    # a tag length that stays inside the file eats into the records
    struct.pack_into("<H", blob, first, len(b"synth0") + 4)
    p.write_bytes(bytes(blob))
    with pytest.raises(DataError):
        read_dataset(p)


def test_binary_dataset_rejects_unwritable_tag(tmp_path):
    ds = replace(small_synth(spc=2), domain_tags=("x" * 70000, "b", "c"))
    with pytest.raises(DataError, match="tag"):
        write_dataset(ds, tmp_path / "ds.bin")


def test_binary_dataset_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(DataError, match="magic"):
        read_dataset(p)


def test_binary_dataset_truncated(tmp_path):
    ds = small_synth(spc=3)
    p = tmp_path / "ds.bin"
    write_dataset(ds, p)
    blob = p.read_bytes()
    p.write_bytes(blob[:-7])
    with pytest.raises(DataError, match="bytes"):
        read_dataset(p)


def test_binary_dataset_trailing_garbage(tmp_path):
    ds = small_synth(spc=3)
    p = tmp_path / "ds.bin"
    write_dataset(ds, p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(DataError, match="bytes"):
        read_dataset(p)


def test_csv_round_trip_exact(tmp_path):
    ds = small_synth(spc=2)
    p = tmp_path / "ds.csv"
    write_csv_dataset(ds, p)
    back = read_csv_dataset(p)
    np.testing.assert_array_equal(back.values, ds.values)
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.domains, ds.domains)
    # read_dataset reads a .csv path, given as a Path or a str, as CSV
    for path in (p, str(p)):
        again = read_dataset(path)
        assert again.values.tobytes() == back.values.tobytes()
        assert again.domain_tags == back.domain_tags


def test_csv_header_validated(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("foo,bar,c0t0\n0,1,0.5\n")
    with pytest.raises(DataError, match="header"):
        read_csv_dataset(p)


def test_csv_column_order_validated(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("domain,label,c0t1,c0t0\n0,1,0.5,0.5\n")
    with pytest.raises(DataError):
        read_csv_dataset(p)


def test_csv_round_trip_keeps_tags_and_class_count(tmp_path):
    # class 3 absent, domain 2 empty, tags with a comma, a quote and non-ASCII
    full = small_synth(spc=2)
    assert full.n_classes == 4 and full.n_domains == 3
    keep = (full.labels != 3) & (full.domains != 2)
    ds = Dataset(values=full.values[keep], labels=full.labels[keep],
                 domains=full.domains[keep],
                 domain_tags=("synth0", 'phone, "left"', "Straße"), n_classes=4)
    p = tmp_path / "ds.csv"
    write_csv_dataset(ds, p)
    back = read_csv_dataset(p)
    assert back.domain_tags == ds.domain_tags
    assert back.n_classes == 4
    np.testing.assert_array_equal(back.values, ds.values)
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.domains, ds.domains)


def test_csv_without_metadata_rows_still_loads(tmp_path):
    p = tmp_path / "old.csv"
    p.write_text("domain,label,c0t0,c0t1\n1,2,0.5,-0.25\n0,0,1.0,0.0\n")
    ds = read_csv_dataset(p)
    assert ds.domain_tags == ("domain0", "domain1")
    assert ds.n_classes == 3
    np.testing.assert_array_equal(ds.values[0], [[0.5, -0.25]])


@pytest.mark.parametrize("meta", ["#n_classes,x\n", "#n_classes,-1\n", "#n_classes,2,3\n",
                                  "#n_classes,1\n", "#domain_tags,only0\n",
                                  "#colour,red\n", "#n_classes,4\n#n_classes,4\n"])
def test_csv_bad_metadata_rows_raise(tmp_path, meta):
    # n_classes 1 is below label 2, one tag cannot cover domain 1
    p = tmp_path / "bad.csv"
    p.write_text(meta + "domain,label,c0t0\n1,2,0.5\n")
    with pytest.raises(DataError):
        read_csv_dataset(p)
