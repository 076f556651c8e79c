"""Named parameter vectors: algebra, gradient collection, the binary format."""

import numpy as np
import pytest

from metareplay import tensor as T
from metareplay.params import (ParamFormatError, ParamMismatchError,
                               ParamVector, grad_of)
from metareplay.tensor import Tensor


def make_pv(rng=None):
    rng = rng or np.random.default_rng(0)
    return ParamVector([
        ("enc.w", Tensor(rng.standard_normal((3, 4)).astype(np.float32),
                         requires_grad=True)),
        ("enc.b", Tensor(rng.standard_normal(4).astype(np.float32),
                         requires_grad=True)),
        ("clf.w", Tensor(np.zeros((4, 2), dtype=np.float32), requires_grad=True)),
    ])


def test_order_preserved_and_lookup():
    pv = make_pv()
    assert pv.names() == ("enc.w", "enc.b", "clf.w")
    assert pv["enc.b"].shape == (4,)
    assert "clf.w" in pv and "missing" not in pv
    with pytest.raises(KeyError):
        pv["nope"]


def test_duplicate_names_rejected():
    t = Tensor(np.zeros(2, dtype=np.float32))
    with pytest.raises(ParamMismatchError):
        ParamVector([("a", t), ("a", t)])


def test_algebra_add_scale():
    pv = make_pv()
    doubled = pv.add(pv)
    for name, t in pv:
        np.testing.assert_allclose(doubled[name].data, 2 * t.data, rtol=1e-6)
    halved = pv.scale(0.5)
    for name, t in pv:
        np.testing.assert_allclose(halved[name].data, 0.5 * t.data, rtol=1e-6)


def test_zip_map_shape_mismatch_raises():
    pv = make_pv()
    other = ParamVector([("enc.w", Tensor(np.zeros((3, 4), dtype=np.float32)))])
    with pytest.raises(ParamMismatchError):
        pv.add(other)


def test_grads_fills_zero_for_untouched_params():
    pv = make_pv()
    loss = T.sum_(T.mul(pv["enc.w"], pv["enc.w"]))
    g = grad_of(loss, pv)
    np.testing.assert_allclose(g["enc.w"].data, 2 * pv["enc.w"].data, rtol=1e-5)
    np.testing.assert_array_equal(g["enc.b"].data, 0.0)
    np.testing.assert_array_equal(g["clf.w"].data, 0.0)


def test_grad_of_collects_and_restores():
    pv = make_pv()
    loss = T.add(T.sum_(T.mul(pv["enc.w"], 3.0)), T.mean(pv["enc.b"]))
    g = grad_of(loss, pv)
    np.testing.assert_allclose(g["enc.w"].data, 3.0, rtol=1e-6)
    np.testing.assert_allclose(g["enc.b"].data, 0.25, rtol=1e-6)


def test_select_and_merge_overrides():
    pv = make_pv()
    enc_only = pv.select(lambda n: n.startswith("enc."))
    assert enc_only.names() == ("enc.w", "enc.b")
    bumped = enc_only.map(lambda n, a: a + 1.0)
    merged = pv.merge_overrides(bumped)
    assert merged.names() == pv.names()
    np.testing.assert_allclose(merged["enc.w"].data, pv["enc.w"].data + 1.0)
    # untouched entries are the same objects, not copies
    assert merged["clf.w"] is pv["clf.w"]


def test_allclose_and_max_abs_diff():
    pv = make_pv()
    other = pv.map(lambda n, a: a + 1e-6)
    assert pv.max_abs_diff(other) == pytest.approx(1e-6, rel=0.2)


# ---------------------------------------------------------------------------
# binary format

def test_save_load_round_trip_bit_exact(tmp_path):
    pv = make_pv()
    p = tmp_path / "params.bin"
    pv.save(p)
    back = ParamVector.load(p)
    assert back.names() == pv.names()
    for name, t in pv:
        assert back[name].data.tobytes() == t.data.tobytes()
        assert back[name].data.shape == t.data.shape


def test_save_load_save_identical_bytes(tmp_path):
    pv = make_pv()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    pv.save(p1)
    ParamVector.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ParamFormatError, match="magic"):
        ParamVector.load(p)


def test_load_rejects_bad_version(tmp_path):
    pv = make_pv()
    p = tmp_path / "params.bin"
    pv.save(p)
    blob = bytearray(p.read_bytes())
    blob[4] = 99                       # little-endian u16 version
    p.write_bytes(bytes(blob))
    with pytest.raises(ParamFormatError, match="version"):
        ParamVector.load(p)


def test_load_rejects_truncation(tmp_path):
    pv = make_pv()
    p = tmp_path / "params.bin"
    pv.save(p)
    p.write_bytes(p.read_bytes()[:-5])
    with pytest.raises(ParamFormatError):
        ParamVector.load(p)


def test_load_rejects_trailing_bytes(tmp_path):
    pv = make_pv()
    p = tmp_path / "params.bin"
    pv.save(p)
    p.write_bytes(p.read_bytes() + b"\x01\x02")
    with pytest.raises(ParamFormatError, match="trailing"):
        ParamVector.load(p)


def test_loaded_params_require_grad(tmp_path):
    pv = make_pv()
    p = tmp_path / "params.bin"
    pv.save(p)
    back = ParamVector.load(p)
    loss = T.sum_(T.mul(back["enc.w"], back["enc.w"]))
    (g,) = T.backward(loss, [back["enc.w"]])
    assert g is not None
