"""The wire protocol of the networked serving layer (frame level).

Everything that crosses a socket between :class:`repro.serve.client.
StencilClient` and the TCP front-end (:func:`repro.serve.net.serve_tcp`)
is a **length-prefixed frame**::

    +-------+------+----------+----------------+
    | magic | type |  length  |    payload     |
    | 4 B   | 1 B  | 4 B (BE) | `length` bytes |
    +-------+------+----------+----------------+

``magic`` is ``b"RPS2"`` (protocol version 2); ``type`` is one of the
``T_*`` constants below; ``length`` is the payload size in bytes.  The
payload is one Python object pickled at protocol 5 with its array
buffers **out of band** (:func:`pack_parts`)::

    +----------+-------+-------------------+------+---------------------+
    | meta_len | n_buf | size x n_buf      | meta | buffers             |
    | u32 (BE) | u32   | u64 (BE) each     | pkl  | each 64-B aligned   |
    +----------+-------+-------------------+------+---------------------+

``meta`` is the pickle stream without the array bytes; each ndarray's
memory follows as raw bytes, starting at the next payload offset that
is a multiple of :data:`ALIGN` (zero padding in between), and the last
buffer ends exactly at ``length``.  A sender writes the buffers straight
from the live arrays; a receiver reads the payload into one writable
buffer and :func:`unpack` returns arrays that are views into it, so a
grid crosses the wire with no copy at either end.  Both endpoints are
this library — the transport is for *trusted* peers on a controlled
network, exactly like the supervised-worker pipes; never expose it to
untrusted input.

Frame types:

==============  =========================================================
``T_SUBMIT``    client -> server: one job — ``{"key", "deadline",
                "problem", "options"}`` where ``key`` is the client's
                idempotency key (any string; retries of one job MUST
                reuse it), ``deadline`` is the remaining time budget in
                seconds at send time (``None`` = no deadline) and
                ``problem`` is a prepared
                :class:`~repro.language.stencil.Problem` carrying the
                full input state.
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
==============  =========================================================

Robustness contract: a reader that sees a bad magic (an ``RPS1`` peer
included), an unknown type, a length beyond its ``max_frame`` bound, or
a payload whose buffer table does not tile it exactly raises
:class:`ProtocolError` — the server answers with a best-effort
``T_ERROR`` frame and closes **that connection only** (a malformed
peer poisons its own connection, never the server); the client treats
it as a failed attempt.  A short read (torn frame, dropped connection)
surfaces as ``asyncio.IncompleteReadError`` / :class:`ConnectionError`
and is retryable — the idempotency key makes the retry safe.
"""

from __future__ import annotations

import pickle
import struct
import socket

MAGIC = b"RPS2"

#: Frame types (the ``type`` byte).
T_SUBMIT = 1
T_RESULT = 2
T_ERROR = 3
T_HEALTH = 4
T_HEALTH_OK = 5

FRAME_TYPES = (T_SUBMIT, T_RESULT, T_ERROR, T_HEALTH, T_HEALTH_OK)

HEADER = struct.Struct("!4sBI")

#: Default bound on a single frame's payload (server and client side).
#: Generous enough for multi-hundred-MB grids, small enough that a
#: garbage length field cannot make a reader try to buffer the moon.
MAX_FRAME = 256 * 1024 * 1024

#: The payload's buffer table: ``meta_len``, ``n_buf`` (each buffer's
#: u64 size follows).
TABLE = struct.Struct("!II")

#: Every out-of-band buffer starts at a payload offset divisible by this.
ALIGN = 64

#: Cap on the iovecs handed to one ``sendmsg`` (Linux's ``IOV_MAX``).
_IOV_MAX = 1024


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


def pack_parts(obj: object) -> list:
    """Serialize one frame payload as wire-ready parts, never joined.

    The first part holds the buffer table and the meta pickle; every
    out-of-band buffer follows as a ``memoryview`` of the object's own
    memory (``PickleBuffer.raw()``), preceded by zero padding where its
    offset needs aligning.  The views stay live: send before mutating
    the arrays they show.
    """
    buffers: list[pickle.PickleBuffer] = []
    meta = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    views = [buf.raw() for buf in buffers]
    sizes = struct.pack(f"!{len(views)}Q", *(v.nbytes for v in views))
    parts: list = [TABLE.pack(len(meta), len(views)) + sizes + meta]
    offset = len(parts[0])
    for view in views:
        pad = -offset % ALIGN
        if pad:
            parts.append(bytes(pad))
        parts.append(view)
        offset += pad + view.nbytes
    return parts


def pack(obj: object) -> bytes:
    """Serialize one frame payload into one ``bytes`` (joined
    :func:`pack_parts`)."""
    return b"".join(pack_parts(obj))


def unpack(payload) -> object:
    """Deserialize one frame payload (raises ProtocolError on garbage).

    Arrays come back as writable views into ``payload`` when it is
    writable (the ``bytearray`` a frame was received into); a read-only
    payload is first copied once into a new buffer.
    """
    view = memoryview(payload)
    if view.readonly:
        view = memoryview(bytearray(view))
    size = view.nbytes
    if size < TABLE.size:
        raise ProtocolError(f"payload of {size} bytes has no buffer table")
    meta_len, n_buf = TABLE.unpack_from(view)
    meta_start = TABLE.size + 8 * n_buf
    if meta_start > size:
        raise ProtocolError(
            f"buffer table of {n_buf} entries overruns a {size}-byte payload"
        )
    offset = meta_start + meta_len
    if offset > size:
        raise ProtocolError(
            f"meta of {meta_len} bytes overruns a {size}-byte payload"
        )
    buffers = []
    for n in struct.unpack_from(f"!{n_buf}Q", view, TABLE.size):
        start = offset + (-offset % ALIGN)
        offset = start + n
        buffers.append(view[start:offset])
    if offset != size:
        raise ProtocolError(
            f"buffer table covers {offset} bytes of a {size}-byte payload"
        )
    meta = view[meta_start:meta_start + meta_len]
    try:
        return pickle.loads(meta, buffers=buffers)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from None


def _header(ftype: int, length: int) -> bytes:
    if ftype not in FRAME_TYPES:
        raise ValueError(f"unknown frame type {ftype}")
    return HEADER.pack(MAGIC, ftype, length)


def encode_frame(ftype: int, payload: bytes) -> bytes:
    """One wire-ready frame."""
    return _header(ftype, len(payload)) + payload


def frame_parts(ftype: int, obj: object) -> list:
    """One wire-ready frame as parts: the frame header joined to the
    first part of :func:`pack_parts`, then the buffer views."""
    parts = pack_parts(obj)
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
