"""The wire protocol of the networked serving layer (frame level).

Everything that crosses a socket between :class:`repro.serve.client.
StencilClient` and the TCP front-end (:func:`repro.serve.net.serve_tcp`)
is a **length-prefixed frame**::

    +-------+------+----------+----------------+
    | magic | type |  length  |    payload     |
    | 4 B   | 1 B  | 4 B (BE) | `length` bytes |
    +-------+------+----------+----------------+

``magic`` is ``b"RPS2"`` (protocol version 2; the lease frames and
entries below were added without a bump, since an inline-only frame is
byte-identical to before); ``type`` is one of the ``T_*`` constants
below; ``length`` is the payload size in bytes.  The payload is one
Python object pickled at protocol 5 with its array buffers **out of
band** (:func:`pack_parts`)::

    +----------+-------+-------------------+------+---------------------+
    | meta_len | n_buf | entry x n_buf     | meta | inline buffers      |
    | u32 (BE) | u32   | (see below)       | pkl  | each 64-B aligned   |
    +----------+-------+-------------------+------+---------------------+

``meta`` is the pickle stream without the array bytes.  Each buffer's
table entry says where its bytes live:

* **inline** — one u64 (BE), the buffer's size.  The bytes follow the
  meta, starting at the next payload offset that is a multiple of
  :data:`ALIGN` (zero padding in between), and the last inline buffer
  ends exactly at ``length``.  A sender writes them straight from the
  live arrays; a receiver reads the payload into one writable buffer and
  :func:`unpack` returns arrays that are views into it, so a grid
  crosses the wire with no copy at either end.
* **leased** — three u64s: ``LEASED | size`` (the top bit set), a lease
  id and an offset.  The bytes are already in that **lease**: a
  shared-memory segment the server created for this one connection
  (``T_LEASE``), mapped by both ends.  The frame carries none of them,
  and :func:`unpack` returns a view into the receiver's mapping.  The
  offset is a multiple of :data:`ALIGN`, the buffer ends inside the
  lease, and no two buffers of a frame overlap.

A frame whose entries are all inline is exactly the frame of a peer that
knows no leases.  Arrays always cross by value: a shared
:class:`~repro.language.array.PochoirArray` pickles its bytes, and a
segment descriptor in a received pickle is refused as ``invalid``
(:func:`~repro.language.array.arrays_by_value`), so the only memory a
frame can point at is a lease the server issued to that connection.

A received pickle may name only the wire types (:data:`WIRE_GLOBALS`):
the ``repro`` expression, language and report classes and NumPy's
array and dtype reconstructors.  Any other global — ``os.system``, a
``SharedMemory`` that would attach a segment by name, any module-level
function, a ``PythonBoundary`` and its callable — is refused as
``invalid`` before anything is called.  A wire type can still be built
with hostile field values, so the transport remains meant for peers on a
controlled network.

Frame types:

==============  =========================================================
``T_SUBMIT``    client -> server: one job — ``{"key", "deadline",
                "problem"}`` where ``key`` is the client's idempotency
                key (any string; retries of one job MUST reuse it),
                ``deadline`` is the remaining time budget in seconds at
                send time (``None`` = no deadline) and ``problem`` is a
                prepared :class:`~repro.language.stencil.Problem`
                carrying the full input state.  An optional ``"last":
                True`` ends the connection's burst: the server runs
                the groups it joined now, not when their batch window
                expires.  The job runs under the
                server's run options; a submit that carries its own
                ``options`` is refused as ``invalid``.
``T_RESULT``    server -> client: ``{"key", "report", "arrays",
                "replayed"}`` — the job's ``RunReport``, every result
                array's modular buffer (an ndarray), and whether the
                response was served from the idempotent result journal
                instead of a fresh execution.
``T_ERROR``     server -> client: ``{"key", "code", "message", ...}`` —
                a typed failure; ``code`` selects the exception the
                client raises (see :func:`repro.serve.client.
                error_to_exception`) and extra fields ride along
                (``retry_after``/``pending_jobs``/``pending_points``
                for ``"busy"``).
``T_HEALTH``    client -> server: liveness/readiness probe (empty
                payload allowed).
``T_HEALTH_OK`` server -> client: ``{"accepting", "draining",
                "pending_jobs", "pending_points", "stats", ...}``.
``T_LEASE``     client -> server: ``{"size", "release"}`` — give back
                the idle leases of this connection listed in
                ``release`` (ids), then ask for a lease of ``size``
                bytes (0: none).  Releasing a lease that is not this
                connection's, or has a job in flight, is a protocol
                error.
``T_LEASE_OK``  server -> client: ``{"lease", "name", "size"}`` — the
                lease id and its segment's name, or ``{"lease": None,
                "reason"}`` when the server refuses (a peer that is not
                on this host, the connection's or the server's lease
                byte bound, a draining server); the client then sends
                inline.
==============  =========================================================

A SUBMIT may put its grids in a lease; the server runs the job in place
on its mapping of the lease, and the RESULT refers to the same regions.

Robustness contract: a reader that sees a bad magic (an ``RPS1`` peer
included), an unknown type, a length beyond its ``max_frame`` bound, or
a payload whose buffer table does not tile it exactly (or names a
lease the connection does not hold, or a busy one) raises
:class:`ProtocolError` — the server answers with a best-effort
``T_ERROR`` frame and closes **that connection only** (a malformed
peer poisons its own connection, never the server); the client treats
it as a failed attempt.  A grid that unpickles into a
:class:`~repro.language.array.PochoirArray` breaking the layout
contract raises ``SpecificationError`` instead, which the server answers
as a typed ``invalid`` error under the same rule.  A short read (torn
frame, dropped connection) surfaces as ``asyncio.IncompleteReadError`` /
:class:`ConnectionError` and is retryable — the idempotency key makes
the retry safe.
"""

from __future__ import annotations

import io
import ipaddress
import pickle
import struct
import socket

import numpy as np

from repro.errors import SpecificationError
from repro.expr import nodes
from repro.language import boundary
from repro.language.array import ConstArray, PochoirArray, arrays_by_value
from repro.language.shape import Shape
from repro.language.stencil import Problem, RunOptions, RunReport

try:
    from numpy._core import multiarray as _np_multiarray, numeric as _np_numeric
except ImportError:  # NumPy 1.x
    from numpy.core import multiarray as _np_multiarray, numeric as _np_numeric

MAGIC = b"RPS2"

#: Frame types (the ``type`` byte).
T_SUBMIT = 1
T_RESULT = 2
T_ERROR = 3
T_HEALTH = 4
T_HEALTH_OK = 5
T_LEASE = 6
T_LEASE_OK = 7

FRAME_TYPES = (
    T_SUBMIT, T_RESULT, T_ERROR, T_HEALTH, T_HEALTH_OK, T_LEASE, T_LEASE_OK
)

HEADER = struct.Struct("!4sBI")

#: Default bound on a single frame's payload (server and client side).
#: Generous enough for multi-hundred-MB grids, small enough that a
#: garbage length field cannot make a reader try to buffer the moon.
MAX_FRAME = 256 * 1024 * 1024

#: The payload's buffer table: ``meta_len``, ``n_buf`` (each buffer's
#: entry follows).
TABLE = struct.Struct("!II")

#: An inline buffer's entry: its size.
_U64 = struct.Struct("!Q")

#: A leased buffer's entry: ``LEASED | size``, lease id, offset.
_LEASE_ENTRY = struct.Struct("!QQQ")

#: The size-word flag of a lease entry.
LEASED = 1 << 63

#: Every out-of-band buffer starts at a payload offset divisible by this.
ALIGN = 64

#: Cap on the iovecs handed to one ``sendmsg`` (Linux's ``IOV_MAX``).
_IOV_MAX = 1024


def _wire_globals() -> dict[tuple[str, str], object]:
    classes = (
        Problem, RunReport, RunOptions, Shape, PochoirArray, ConstArray,
        boundary.PeriodicBoundary, boundary.NeumannBoundary,
        boundary.ConstantBoundary, boundary.DirichletBoundary,
        boundary.MixedBoundary,
        nodes.Axis, nodes.AffineIndex, nodes.Const, nodes.Param,
        nodes.IndexValue, nodes.GridRead, nodes.GridWrite,
        nodes.ConstArrayRead, nodes.LocalRead, nodes.BinOp, nodes.UnOp,
        nodes.Compare, nodes.BoolOp, nodes.NotOp, nodes.Where, nodes.Call,
        nodes.Assign, nodes.Let,
        np.ndarray, np.dtype,
    )
    table: dict[tuple[str, str], object] = {
        (cls.__module__, cls.__qualname__): cls for cls in classes
    }
    # NumPy's reconstructors, under the module names of NumPy 1 and 2.
    for core in ("numpy.core", "numpy._core"):
        table[core + ".numeric", "_frombuffer"] = _np_numeric._frombuffer
        table[core + ".multiarray", "_reconstruct"] = _np_multiarray._reconstruct
        table[core + ".multiarray", "scalar"] = _np_multiarray.scalar
    return table


#: ``(module, name)`` -> object: every global a received pickle may name.
WIRE_GLOBALS = _wire_globals()


class _WireUnpickler(pickle.Unpickler):
    """Resolves the globals of :data:`WIRE_GLOBALS` and refuses the rest."""

    def find_class(self, module: str, name: str) -> object:
        try:
            return WIRE_GLOBALS[module, name]
        except KeyError:
            raise SpecificationError(
                f"a frame may not name {module}.{name}: not a wire type"
            ) from None


class ProtocolError(RuntimeError):
    """The peer sent bytes that are not a well-formed frame."""


class FrameTooLarge(ProtocolError):
    """A frame header announced a payload beyond the reader's bound."""


class RemoteError(RuntimeError):
    """A job failed on the server with a non-protocol error.

    Carries the remote exception's type name and message; the job may
    have executed (its response is journaled server-side), so a retry
    with the same key replays this same error instead of re-executing.
    """

    def __init__(self, message: str, *, remote_type: str = "Exception"):
        super().__init__(message)
        self.remote_type = remote_type


class DeadlineExceeded(RuntimeError):
    """The client-side deadline expired before a response arrived.

    Raised by :class:`~repro.serve.client.StencilClient` when the
    request budget (connect + retries + backoff + response wait) is
    exhausted.  Whether the job executed server-side is unknowable from
    here — a later retry with the *same* idempotency key is safe and
    resolves the ambiguity via the result journal.
    """


def _address(buf) -> int:
    """The address of a buffer's first byte."""
    return np.frombuffer(buf, dtype=np.uint8).__array_interface__["data"][0]


def pack_parts(obj: object, leases=None, *, stage: int | None = None) -> list:
    """Serialize one frame payload as wire-ready parts, never joined.

    The first part holds the buffer table and the meta pickle; every
    inline out-of-band buffer follows as a ``memoryview`` of the object's
    own memory (``PickleBuffer.raw()``), preceded by zero padding where
    its offset needs aligning.  The views stay live: send before mutating
    the arrays they show.

    ``leases`` maps lease ids to the writable buffers of this
    connection's leases.  A buffer that lies inside one of them is sent
    as a lease entry, with no bytes.  With ``stage`` (one of those ids),
    every other buffer is first copied into that lease, packed from its
    start at aligned offsets, and sent the same way.
    """
    buffers: list[pickle.PickleBuffer] = []
    with arrays_by_value():
        meta = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    views = [buf.raw() for buf in buffers]
    if leases:
        table, views = _place(views, leases, stage)
    else:
        table = struct.pack(f"!{len(views)}Q", *(v.nbytes for v in views))
    parts: list = [TABLE.pack(len(meta), len(buffers)) + table + meta]
    offset = len(parts[0])
    for view in views:
        pad = -offset % ALIGN
        if pad:
            parts.append(bytes(pad))
        parts.append(view)
        offset += pad + view.nbytes
    return parts


def _place(views: list, leases, stage: int | None) -> tuple[bytes, list]:
    """The table entries of ``views`` given a connection's ``leases``
    (see :func:`pack_parts`), and the views that stay inline."""
    regions = {
        lid: (_address(buf), memoryview(buf).cast("B"))
        for lid, buf in leases.items()
    }
    free = 0
    entries: list[bytes] = []
    inline: list = []
    for view in views:
        n = view.nbytes
        placed = None
        if n:
            at = _address(view)
            for lid, (base, region) in regions.items():
                if base <= at and at + n <= base + region.nbytes:
                    placed = (lid, at - base)
                    break
            if placed is None and stage is not None:
                free += -free % ALIGN
                regions[stage][1][free:free + n] = view
                placed, free = (stage, free), free + n
        if placed is None:
            entries.append(_U64.pack(n))
            inline.append(view)
        else:
            entries.append(_LEASE_ENTRY.pack(LEASED | n, *placed))
    return b"".join(entries), inline


def pack(obj: object) -> bytes:
    """Serialize one frame payload into one ``bytes`` (joined
    :func:`pack_parts`)."""
    return b"".join(pack_parts(obj))


def unpack(payload, leases=None) -> object:
    """Deserialize one frame payload (raises ProtocolError on garbage,
    and SpecificationError for a global outside :data:`WIRE_GLOBALS` or
    a grid that breaks the layout contract or arrives as a shared-memory
    descriptor).

    Inline arrays come back as writable views into ``payload`` when it is
    writable (the ``bytearray`` a frame was received into); a read-only
    payload is first copied once into a new buffer.  A lease entry is
    looked up in ``leases`` (lease id -> writable buffer; the lookup may
    raise ProtocolError to refuse a lease) and comes back as a view into
    that lease.  A lease entry must start at an aligned offset, end
    inside its lease and overlap no other buffer of the frame.
    """
    view = memoryview(payload)
    if view.readonly:
        view = memoryview(bytearray(view))
    size = view.nbytes
    if size < TABLE.size:
        raise ProtocolError(f"payload of {size} bytes has no buffer table")
    meta_len, n_buf = TABLE.unpack_from(view)
    if TABLE.size + _U64.size * n_buf > size:
        raise ProtocolError(
            f"buffer table of {n_buf} entries overruns a {size}-byte payload"
        )
    entries = struct.unpack_from(f"!{n_buf}Q", view, TABLE.size)
    pos = TABLE.size + _U64.size * n_buf
    if any(word & LEASED for word in entries):
        entries, pos = _lease_table(view, n_buf)
    meta_start = pos
    offset = meta_start + meta_len
    if offset > size:
        raise ProtocolError(
            f"meta of {meta_len} bytes overruns a {size}-byte payload"
        )
    buffers = []
    spans: dict[int, list] = {}
    regions: dict[int, memoryview] = {}
    for entry in entries:
        if isinstance(entry, int):
            start = offset + (-offset % ALIGN)
            offset = start + entry
            buffers.append(view[start:offset])
            continue
        n, lid, at = entry
        if lid not in regions:
            if leases is None:
                raise ProtocolError(f"lease {lid} named on a connection without leases")
            try:
                regions[lid] = memoryview(leases[lid]).cast("B")
            except KeyError:
                raise ProtocolError(f"lease {lid} is not held here") from None
        region = regions[lid]
        if at % ALIGN or at + n > region.nbytes:
            raise ProtocolError(
                f"buffer of {n} bytes at offset {at} does not fit lease {lid} "
                f"of {region.nbytes} bytes"
            )
        spans.setdefault(lid, []).append((at, at + n))
        buffers.append(region[at:at + n])
    if offset != size:
        raise ProtocolError(
            f"buffer table covers {offset} bytes of a {size}-byte payload"
        )
    for lid, ranges in spans.items():
        ranges.sort()
        for (_, end), (start, _) in zip(ranges, ranges[1:]):
            if start < end:
                raise ProtocolError(f"buffers overlap in lease {lid}")
    meta = view[meta_start:meta_start + meta_len]
    try:
        with arrays_by_value():
            return _WireUnpickler(io.BytesIO(meta), buffers=buffers).load()
    except SpecificationError:
        raise
    except Exception as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from None


def _lease_table(view: memoryview, n_buf: int) -> tuple[list, int]:
    """Parse a buffer table holding lease entries: each entry is a size
    or a ``(size, lease, offset)``; returns them and the meta's start."""
    size = view.nbytes
    entries: list = []
    pos = TABLE.size
    for _ in range(n_buf):
        if pos + _U64.size > size:
            raise ProtocolError(f"buffer table overruns a {size}-byte payload")
        (word,) = _U64.unpack_from(view, pos)
        if word & LEASED:
            if pos + _LEASE_ENTRY.size > size:
                raise ProtocolError(f"lease entry overruns a {size}-byte payload")
            word, lid, at = _LEASE_ENTRY.unpack_from(view, pos)
            entries.append((word & ~LEASED, lid, at))
            pos += _LEASE_ENTRY.size
        else:
            entries.append(word)
            pos += _U64.size
    return entries, pos


def is_loopback(peername) -> bool:
    """Whether a socket's peer address (``getpeername()``) is this host's
    loopback: the only peers a lease is issued to."""
    try:
        return ipaddress.ip_address(peername[0]).is_loopback
    except (TypeError, ValueError, IndexError):
        return False


def _header(ftype: int, length: int) -> bytes:
    if ftype not in FRAME_TYPES:
        raise ValueError(f"unknown frame type {ftype}")
    return HEADER.pack(MAGIC, ftype, length)


def encode_frame(ftype: int, payload: bytes) -> bytes:
    """One wire-ready frame."""
    return _header(ftype, len(payload)) + payload


def frame_parts(
    ftype: int, obj: object, leases=None, *, stage: int | None = None
) -> list:
    """One wire-ready frame as parts: the frame header joined to the
    first part of :func:`pack_parts` (which places the buffers), then
    the inline buffer views."""
    parts = pack_parts(obj, leases, stage=stage)
    parts[0] = _header(ftype, sum(len(p) for p in parts)) + parts[0]
    return parts


def parse_header(header: bytes, *, max_frame: int = MAX_FRAME) -> tuple[int, int]:
    """Validate a 9-byte header; return ``(type, payload_length)``."""
    magic, ftype, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if ftype not in FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {ftype}")
    if length > max_frame:
        raise FrameTooLarge(
            f"frame of {length} bytes exceeds the {max_frame}-byte bound"
        )
    return ftype, length


def send_parts(sock: socket.socket, parts: list) -> None:
    """Blocking write of a frame's parts with ``sendmsg`` (sync client
    side): the buffers go to the kernel straight from their memory."""
    views = [memoryview(p) for p in parts if len(p)]
    while views:
        sent = sock.sendmsg(views[:_IOV_MAX])
        while sent:
            if sent < views[0].nbytes:
                views[0] = views[0][sent:]
                break
            sent -= views.pop(0).nbytes


def recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Blocking read of exactly ``n`` bytes into one new buffer (sync
    client side).

    Honors the socket's timeout; raises :class:`ConnectionError` on a
    peer that closed mid-frame (the torn-frame signature the client
    retries on).
    """
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            raise ConnectionError(
                f"connection closed mid-frame ({got}/{n} bytes)"
            )
        got += k
    return buf


def recv_frame(
    sock: socket.socket, *, max_frame: int = MAX_FRAME
) -> tuple[int, bytearray]:
    """Blocking read of one frame (sync client side); the payload is
    received in place, ready for a zero-copy :func:`unpack`."""
    ftype, length = parse_header(
        recv_exact(sock, HEADER.size), max_frame=max_frame
    )
    return ftype, recv_exact(sock, length)
