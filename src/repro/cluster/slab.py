"""Shared-memory slabs: the zero-pickle transport for ColumnBatches.

Section 5 of the paper prescribes partition-then-combine parallelism;
for that to beat the GIL the partitions must reach worker *processes*
without serializing every row.  A :class:`~repro.compute.columnar.batch.
ColumnBatch` is already flat -- int64 dimension codes plus float64
aggregate buffers and byte-wide validity masks -- so a batch ships as
one ``multiprocessing.shared_memory`` segment:

``[magic | header-length | JSON header | 8-aligned buffers...]``

The header is *structural only* (row count, per-column offsets, counts
and flags); the dictionary decode lists -- arbitrary python objects --
never cross the process boundary.  Workers group and aggregate on the
integer codes alone and return ``(code-tuple, handle-list)`` pairs plus
each group's first row index; the parent, which kept the task rows,
reads values back from those rows.  No pickle bytes are ever produced
for row data.

**Attach semantics.**  A worker attaches by name and copies only its
``[start, end)`` row slice out of the segment (one ``memcpy`` per
buffer), then closes immediately -- no cross-process buffer lifetimes
to manage, and the slab can be released the moment every worker has
answered.  On Python < 3.13 ``SharedMemory`` has no ``track=False``;
:data:`UNREGISTER_ON_ATTACH` keeps spawn-started workers' resource
trackers from unlinking a segment the parent still owns.

**Leak-proofing.**  Every segment is created through the module-level
:class:`SlabManager`, which unlinks on release, on manager shutdown,
and from an ``atexit`` hook -- so even a parent dying mid-query leaves
no ``/dev/shm`` debris (asserted by the graceful-shutdown tests).

For aggregate columns the float64 image is the only copy shipped, so
the python-kernel fallback rebuilds ``raw`` from ``data``/``floats``:
exact for every int with ``|v| <= 2**53`` (the eligibility check in
:mod:`repro.cluster.algorithm` falls back to the thread pool beyond
that).
"""

from __future__ import annotations

import atexit
import json
import os
import secrets
import struct
import threading
from array import array
from multiprocessing import resource_tracker, shared_memory

from repro.errors import ClusterError

__all__ = [
    "MANAGER",
    "SlabAgg",
    "SlabDim",
    "SlabManager",
    "attach_slab",
    "encode_batch",
    "slab_size",
]

_MAGIC = b"RSB1"
_ALIGN = 8

#: the largest int that survives the float64 round trip exactly
EXACT_INT_BOUND = 2 ** 53


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


class SlabDim:
    """Worker-side image of one dimension column: codes only.

    The decode list (python objects) stays in the parent, which is the
    whole point -- grouping needs just the dense integer codes.
    """

    __slots__ = ("name", "cardinality", "codes")

    def __init__(self, name: str, cardinality: int, codes: array) -> None:
        self.name = name
        self.cardinality = cardinality
        self.codes = codes

    def codes_np(self, xp):
        return xp.frombuffer(self.codes, dtype=xp.int64)


class SlabAgg:
    """Worker-side image of one aggregate column.

    Mirrors :class:`~repro.compute.columnar.batch.AggColumn`'s kernel
    surface (``valid``/``nan``/``floats``/``data`` plus the ``*_np``
    views).  ``raw`` is rebuilt lazily -- only the pure-python kernels
    read it -- from the float64 image and the type masks, which is
    exact for the columns the eligibility check lets through.
    """

    __slots__ = ("name", "numeric", "n_valid", "n_float",
                 "valid", "nan", "floats", "data", "_raw")

    def __init__(self, name: str, numeric: bool, n_valid: int, n_float: int,
                 valid: bytearray, nan: bytearray, floats: bytearray,
                 data: array | None) -> None:
        self.name = name
        self.numeric = numeric
        self.n_valid = n_valid
        self.n_float = n_float
        self.valid = valid
        self.nan = nan
        self.floats = floats
        self.data = data
        self._raw: list | None = None

    @property
    def raw(self) -> list:
        if self._raw is None:
            n = len(self.valid)
            raw: list = [None] * n
            if self.data is not None:
                data = self.data
                floats = self.floats
                valid = self.valid
                for i in range(n):
                    if valid[i]:
                        raw[i] = data[i] if floats[i] else int(data[i])
            self._raw = raw
        return self._raw

    def valid_np(self, xp):
        return xp.frombuffer(self.valid, dtype=xp.uint8).astype(bool)

    def nan_np(self, xp):
        return xp.frombuffer(self.nan, dtype=xp.uint8).astype(bool)

    def floats_np(self, xp):
        return xp.frombuffer(self.floats, dtype=xp.uint8).astype(bool)

    def data_np(self, xp):
        return xp.frombuffer(self.data, dtype=xp.float64)


class SlabBatch:
    """What :func:`attach_slab` returns: a row-sliced columnar view."""

    __slots__ = ("n_rows", "dims", "aggs")

    def __init__(self, n_rows: int, dims: list, aggs: list) -> None:
        self.n_rows = n_rows
        self.dims = dims
        self.aggs = aggs


def _layout(batch) -> tuple[dict, int]:
    """The slab header and total byte size for one ColumnBatch."""
    n = batch.n_rows
    offset = 0

    def claim(nbytes: int) -> int:
        nonlocal offset
        at = offset
        offset += _aligned(nbytes)
        return at

    dims = []
    for column in batch.dims:
        dims.append({"name": column.name,
                     "cardinality": column.cardinality,
                     "codes": claim(8 * n)})
    aggs = []
    for column in batch.aggs:
        entry = {"name": column.name,
                 "numeric": bool(column.numeric),
                 "n_valid": column.n_valid,
                 "n_float": column.n_float,
                 "valid": claim(n),
                 "nan": claim(n),
                 "floats": claim(n),
                 "data": claim(8 * n) if column.data is not None else None}
        aggs.append(entry)
    header = {"n_rows": n, "dims": dims, "aggs": aggs}
    return header, offset


def _header_bytes(header: dict) -> bytes:
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    prefix = _MAGIC + struct.pack("<I", len(payload))
    return prefix + payload


def slab_size(batch) -> int:
    """Total bytes one batch needs in shared memory."""
    header, body = _layout(batch)
    return _aligned(len(_header_bytes(header))) + body


def encode_batch(batch, buf) -> int:
    """Write a ColumnBatch into ``buf`` (a shared-memory buffer).

    Returns the number of bytes written.  Pure buffer copies: the
    dictionary decode lists are deliberately *not* written.
    """
    header, body = _layout(batch)
    head = _header_bytes(header)
    base = _aligned(len(head))
    total = base + body
    if len(buf) < total:
        raise ClusterError(
            f"slab buffer too small: need {total} bytes, have {len(buf)}")
    buf[:len(head)] = head

    def put(at: int, raw: bytes) -> None:
        buf[base + at:base + at + len(raw)] = raw

    for column, entry in zip(batch.dims, header["dims"]):
        put(entry["codes"], bytes(column.codes))
    for column, entry in zip(batch.aggs, header["aggs"]):
        put(entry["valid"], bytes(column.valid))
        put(entry["nan"], bytes(column.nan))
        put(entry["floats"], bytes(column.floats))
        if entry["data"] is not None:
            put(entry["data"], bytes(column.data))
    return total


def _read_header(buf) -> tuple[dict, int]:
    if bytes(buf[:4]) != _MAGIC:
        raise ClusterError("slab header magic mismatch: not a repro slab")
    (length,) = struct.unpack("<I", bytes(buf[4:8]))
    header = json.loads(bytes(buf[8:8 + length]).decode("utf-8"))
    return header, _aligned(8 + length)


def decode_slab(buf, start: int = 0, end: int | None = None) -> SlabBatch:
    """Rebuild the ``[start, end)`` row slice of a slab as columns.

    Copies each buffer slice out (one memcpy per buffer) so the caller
    can close the shared-memory segment immediately after.
    """
    header, base = _read_header(buf)
    n = header["n_rows"]
    if end is None:
        end = n
    if not 0 <= start <= end <= n:
        raise ClusterError(
            f"slab slice [{start}, {end}) out of range for {n} rows")
    dims = []
    for entry in header["dims"]:
        at = base + entry["codes"]
        codes = array("q")
        codes.frombytes(bytes(buf[at + 8 * start:at + 8 * end]))
        dims.append(SlabDim(entry["name"], entry["cardinality"], codes))
    aggs = []
    for entry in header["aggs"]:
        def mask(at: int) -> bytearray:
            at = base + at
            return bytearray(buf[at + start:at + end])
        data = None
        if entry["data"] is not None:
            at = base + entry["data"]
            data = array("d")
            data.frombytes(bytes(buf[at + 8 * start:at + 8 * end]))
        aggs.append(SlabAgg(entry["name"], entry["numeric"],
                            entry["n_valid"], entry["n_float"],
                            mask(entry["valid"]), mask(entry["nan"]),
                            mask(entry["floats"]), data))
    return SlabBatch(end - start, dims, aggs)


#: Set True in *spawn-started* workers only (see ``pool._worker_main``).
#: Python < 3.13 has no ``SharedMemory(track=False)``, so attaching
#: registers the segment with the process's resource tracker.  A spawn
#: worker has its own tracker, which would unlink the parent's segment
#: when the worker exits -- those workers must unregister after attach.
#: A fork worker shares the parent's tracker (the pipe fd survives the
#: fork), where the registration is the parent's own: unregistering
#: there would make the parent's later ``unlink`` a double-unregister.
UNREGISTER_ON_ATTACH = False


def attach_slab(name: str, start: int = 0, end: int | None = None) -> SlabBatch:
    """Child-side attach: open the segment by name, copy the row slice
    out, and close.  See :data:`UNREGISTER_ON_ATTACH` for the tracker
    dance."""
    shm = shared_memory.SharedMemory(name=name)
    if UNREGISTER_ON_ATTACH:
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
    try:
        return decode_slab(shm.buf, start, end)
    finally:
        shm.close()


class SlabManager:
    """Parent-side segment lifecycle: create, track, always unlink.

    ``release``/``release_all`` are idempotent and exception-proof; the
    module-level :data:`MANAGER` additionally unlinks everything from an
    ``atexit`` hook, so a crashing parent cannot leak ``/dev/shm``
    segments.
    """

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._lock = threading.Lock()

    def create(self, nbytes: int) -> shared_memory.SharedMemory:
        from repro.obs import instrument
        name = f"repro_slab_{os.getpid()}_{secrets.token_hex(4)}"
        shm = shared_memory.SharedMemory(name=name, create=True,
                                         size=max(nbytes, 1))
        with self._lock:
            self._segments[shm.name] = shm
            active = len(self._segments)
        instrument.set_cluster_segments(active)
        return shm

    def create_for(self, batch) -> shared_memory.SharedMemory:
        """Create a segment sized for ``batch`` and encode it in."""
        shm = self.create(slab_size(batch))
        try:
            encode_batch(batch, shm.buf)
        except BaseException:
            self.release(shm.name)
            raise
        return shm

    def release(self, name: str) -> None:
        from repro.obs import instrument
        with self._lock:
            shm = self._segments.pop(name, None)
            active = len(self._segments)
        if shm is None:
            return
        try:
            shm.close()
        except Exception:  # pragma: no cover - close is best-effort
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        instrument.set_cluster_segments(active)

    def release_all(self) -> None:
        with self._lock:
            names = list(self._segments)
        for name in names:
            self.release(name)

    def active(self) -> int:
        with self._lock:
            return len(self._segments)


#: process-wide manager; every slab the cluster backend ships goes
#: through it so shutdown paths (SIGTERM drain, atexit) can sweep
MANAGER = SlabManager()
atexit.register(MANAGER.release_all)
