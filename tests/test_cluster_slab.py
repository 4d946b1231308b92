"""The shared-memory slab codec: a ColumnBatch must survive
encode -> attach-in-a-real-child -> decode bit-identically, and a
hypothesis sweep drives mixed schemas through the round trip."""

import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.slab import (
    EXACT_INT_BOUND,
    MANAGER,
    attach_slab,
    decode_slab,
    encode_batch,
    slab_size,
)
from repro.compute.columnar.batch import ColumnBatch
from repro.errors import ClusterError


def _batch(dims, aggs):
    return ColumnBatch.from_columns(dims, aggs)


def _assert_roundtrip(batch, slab):
    assert slab.n_rows == batch.n_rows
    assert len(slab.dims) == len(batch.dims)
    assert len(slab.aggs) == len(batch.aggs)
    for dim, got in zip(batch.dims, slab.dims):
        assert got.name == dim.name
        assert got.cardinality == dim.cardinality
        assert list(got.codes) == list(dim.codes)
    for agg, got in zip(batch.aggs, slab.aggs):
        assert got.name == agg.name
        assert got.numeric == agg.numeric
        assert got.n_valid == agg.n_valid
        assert got.n_float == agg.n_float
        assert bytes(got.valid) == bytes(agg.valid)
        assert bytes(got.nan) == bytes(agg.nan)
        assert bytes(got.floats) == bytes(agg.floats)
        if agg.data is None:
            assert got.data is None
        else:
            # byte compare: float64 bit-identity, NaN payloads included
            assert bytes(got.data) == bytes(agg.data)


class TestCodecRoundTrip:
    def test_in_process_round_trip(self):
        batch = _batch(
            {"d0": ["a", "b", "a", None, "b"], "d1": [1, 1, 2, 2, 3]},
            {"m0": [10, None, 3.5, float("nan"), -7],
             "m1": ["x", "y", None, "x", "z"]})
        buf = bytearray(slab_size(batch))
        written = encode_batch(batch, buf)
        assert written == slab_size(batch)
        _assert_roundtrip(batch, decode_slab(buf))

    def test_row_slice_decodes_the_window(self):
        batch = _batch({"d": list("abcdef")},
                       {"m": [1, 2.5, None, 4, float("nan"), 6]})
        buf = bytearray(slab_size(batch))
        encode_batch(batch, buf)
        window = decode_slab(buf, 2, 5)
        assert window.n_rows == 3
        assert list(window.dims[0].codes) == list(batch.dims[0].codes)[2:5]
        assert bytes(window.aggs[0].valid) == bytes(batch.aggs[0].valid[2:5])
        assert bytes(window.aggs[0].data) == bytes(batch.aggs[0].data[2:5])

    def test_non_numeric_column_ships_masks_only(self):
        batch = _batch({"d": [0, 1]}, {"m": ["red", None]})
        assert batch.aggs[0].data is None
        buf = bytearray(slab_size(batch))
        encode_batch(batch, buf)
        slab = decode_slab(buf)
        assert slab.aggs[0].data is None
        assert list(slab.aggs[0].valid) == [1, 0]


class TestCodecErrors:
    def test_magic_mismatch_raises(self):
        with pytest.raises(ClusterError, match="magic"):
            decode_slab(bytearray(b"NOPE" + bytes(64)))

    def test_undersized_buffer_raises(self):
        batch = _batch({"d": [1, 2, 3]}, {"m": [1, 2, 3]})
        with pytest.raises(ClusterError, match="too small"):
            encode_batch(batch, bytearray(16))

    def test_bad_slice_raises(self):
        batch = _batch({"d": [1, 2]}, {"m": [1, 2]})
        buf = bytearray(slab_size(batch))
        encode_batch(batch, buf)
        with pytest.raises(ClusterError, match="out of range"):
            decode_slab(buf, 1, 3)


def _child_attach(name, conn):
    """Runs in a real child process: attach by name, ship primitives."""
    try:
        slab = attach_slab(name)
        conn.send({
            "n_rows": slab.n_rows,
            "dims": [(d.name, d.cardinality, list(d.codes))
                     for d in slab.dims],
            "aggs": [(a.name, bytes(a.valid), bytes(a.nan), bytes(a.floats),
                      None if a.data is None else bytes(a.data))
                     for a in slab.aggs],
        })
    finally:
        conn.close()


class TestSharedMemoryTransport:
    def test_attach_in_child_process_is_bit_identical(self):
        batch = _batch(
            {"d0": ["p", "q", "p", "r"], "d1": [None, 4, 4, 5]},
            {"m0": [1, 2.5, None, float("nan")], "m1": [7, 7, 7, 7]})
        shm = MANAGER.create_for(batch)
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        parent, child = ctx.Pipe()
        try:
            process = ctx.Process(target=_child_attach,
                                  args=(shm.name, child))
            process.start()
            child.close()
            got = parent.recv()
            process.join(timeout=10)
            assert process.exitcode == 0
        finally:
            parent.close()
            MANAGER.release(shm.name)
        assert got["n_rows"] == batch.n_rows
        for dim, (name, cardinality, codes) in zip(batch.dims, got["dims"]):
            assert (name, cardinality) == (dim.name, dim.cardinality)
            assert codes == list(dim.codes)
        for agg, (name, valid, nan, floats, data) in zip(batch.aggs,
                                                         got["aggs"]):
            assert name == agg.name
            assert valid == bytes(agg.valid)
            assert nan == bytes(agg.nan)
            assert floats == bytes(agg.floats)
            if agg.data is None:
                assert data is None
            else:
                assert data == bytes(agg.data)

    def test_manager_release_is_idempotent_and_leakproof(self):
        batch = _batch({"d": [1]}, {"m": [1]})
        shm = MANAGER.create_for(batch)
        assert MANAGER.active() == 1
        MANAGER.release(shm.name)
        MANAGER.release(shm.name)  # second release: no-op, no raise
        assert MANAGER.active() == 0

    def test_release_all_sweeps_everything(self):
        batch = _batch({"d": [1, 2]}, {"m": [3, 4]})
        for _ in range(3):
            MANAGER.create_for(batch)
        assert MANAGER.active() == 3
        MANAGER.release_all()
        assert MANAGER.active() == 0


_DIM_VALUE = st.one_of(st.none(), st.integers(-5, 5),
                       st.sampled_from(["a", "b", "c"]))
_MEASURE = st.one_of(
    st.none(),
    st.integers(-EXACT_INT_BOUND, EXACT_INT_BOUND),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from(["red", "blue"]))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_round_trip_property_over_mixed_schemas(data):
    """Any mix of dimension and measure types survives the codec."""
    n = data.draw(st.integers(1, 24), label="n_rows")
    dims = {f"d{i}": data.draw(
        st.lists(_DIM_VALUE, min_size=n, max_size=n), label=f"d{i}")
        for i in range(data.draw(st.integers(1, 3), label="n_dims"))}
    aggs = {f"m{i}": data.draw(
        st.lists(_MEASURE, min_size=n, max_size=n), label=f"m{i}")
        for i in range(data.draw(st.integers(1, 3), label="n_aggs"))}
    batch = _batch(dims, aggs)
    buf = bytearray(slab_size(batch))
    assert encode_batch(batch, buf) == len(buf)
    _assert_roundtrip(batch, decode_slab(buf))
    start = data.draw(st.integers(0, n), label="start")
    end = data.draw(st.integers(start, n), label="end")
    window = decode_slab(buf, start, end)
    assert window.n_rows == end - start
    for dim, got in zip(batch.dims, window.dims):
        assert list(got.codes) == list(dim.codes)[start:end]
