"""The payload codec: arrays ride out of band, with no copy at either end.

A submit's parts must show the live arrays' memory (the client sends
from them), a payload received into a writable buffer must unpickle into
arrays that are views of it (the server runs the job there), and a
read-only payload must still give writable arrays.  Around that: the
buffer table tiles the payload exactly at 64-byte-aligned offsets, an
``RPS1`` peer is refused typed, and ``send_parts`` survives partial
``sendmsg`` writes.
"""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from repro.apps.heat import build_heat
from repro.serve import protocol
from repro.serve.protocol import T_RESULT, T_SUBMIT


def _submit(seed=0, size=(16, 16)):
    app = build_heat(size, 4, seed=seed)
    problem = app.stencil.prepare(app.steps, app.kernel)
    return problem, {
        "key": "k",
        "deadline": None,
        "problem": problem,
        "options": None,
    }


def _views(parts):
    return [np.frombuffer(p, np.uint8) for p in parts if isinstance(p, memoryview)]


def test_pack_parts_sends_from_the_live_arrays():
    problem, msg = _submit()
    data = problem.arrays["u"].data
    views = _views(protocol.pack_parts(msg))
    assert any(np.shares_memory(v, data) for v in views)


def test_unpack_of_a_writable_payload_is_zero_copy():
    problem, msg = _submit()
    payload = bytearray(protocol.pack(msg))
    data = protocol.unpack(payload)["problem"].arrays["u"].data
    assert data.flags.writeable
    assert np.shares_memory(data, np.frombuffer(payload, np.uint8))
    assert np.array_equal(data, problem.arrays["u"].data)
    # The job runs on the view: writes land in the received buffer.
    data[...] = 7.0
    again = protocol.unpack(payload)["problem"].arrays["u"].data
    assert (again == 7.0).all()


def test_unpack_of_bytes_gives_writable_arrays():
    problem, msg = _submit()
    payload = protocol.pack(msg)
    for buf in (payload, memoryview(payload)):
        data = protocol.unpack(buf)["problem"].arrays["u"].data
        assert data.flags.writeable
        assert np.array_equal(data, problem.arrays["u"].data)
        data[...] = 1.0  # would raise on a read-only view
    assert protocol.unpack(payload)["key"] == "k"


def test_buffers_sit_at_aligned_offsets_and_tile_the_payload():
    arrays = {
        "a": np.arange(3.0),
        "b": np.arange(5, dtype=np.int32),
        "c": np.zeros(0),
    }
    parts = protocol.pack_parts({"arrays": arrays})
    payload = b"".join(parts)
    assert protocol.pack({"arrays": arrays}) == payload
    meta_len, n_buf = protocol.TABLE.unpack_from(payload)
    assert n_buf == 3
    offset = 0
    for part in parts:
        if isinstance(part, memoryview):
            assert offset % protocol.ALIGN == 0
        offset += len(part)
    assert offset == len(payload)
    out = protocol.unpack(bytearray(payload))["arrays"]
    for name, arr in arrays.items():
        assert out[name].dtype == arr.dtype
        assert np.array_equal(out[name], arr)


def test_frame_parts_header_counts_every_part():
    _, msg = _submit()
    parts = protocol.frame_parts(T_SUBMIT, msg)
    frame = b"".join(parts)
    ftype, length = protocol.parse_header(frame[: protocol.HEADER.size])
    assert (ftype, length) == (T_SUBMIT, len(frame) - protocol.HEADER.size)
    assert frame == protocol.encode_frame(T_SUBMIT, protocol.pack(msg))


def test_version_one_peer_gets_bad_magic():
    old = protocol.HEADER.pack(b"RPS1", T_SUBMIT, 0)
    with pytest.raises(protocol.ProtocolError, match="bad frame magic"):
        protocol.parse_header(old)


def test_send_parts_survives_partial_writes():
    # A 2 MB grid through a socket with a small send buffer: sendmsg
    # returns short counts mid-view, and the receiver still gets the
    # frame byte for byte.
    arr = np.arange(1 << 18, dtype=np.float64)
    parts = protocol.frame_parts(T_RESULT, {"key": "big", "a": arr})
    left, right = socket.socketpair()
    left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 14)
    left.settimeout(30)
    right.settimeout(30)
    sender = threading.Thread(target=protocol.send_parts, args=(left, parts))
    sender.start()
    try:
        ftype, payload = protocol.recv_frame(right)
    finally:
        sender.join(timeout=30)
        left.close()
        right.close()
    assert ftype == T_RESULT
    msg = protocol.unpack(payload)
    assert msg["key"] == "big"
    assert np.array_equal(msg["a"], arr)
