"""The TCP front-end: framed protocol, client robustness, replay.

The networked contract mirrors the in-process one bit for bit: a job
submitted through :class:`StencilClient` must leave the local arrays
exactly as ``stencil.run`` would, no matter how many wire attempts it
took.  Around that core: health probes answer, deadlines shed typed,
``ServerBusy`` crosses the wire with its backpressure fields, malformed
or oversized frames poison one connection but never the server, and the
bounded result journal deduplicates retried idempotency keys so a job
executes exactly once.  A hostile buffer table gets a typed answer and
kills only its own connection; a client refuses result arrays that do
not fit its stencil.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading

import numpy as np
import pytest

from repro import RunOptions
from repro.apps.heat import build_heat
from repro.language.stencil import RunReport
from repro.serve import (
    DeadlineExceeded,
    JobExpired,
    LoopbackServer,
    ServeOptions,
    ServerBusy,
    StencilClient,
)
from repro.serve import net, protocol
from repro.serve.protocol import ProtocolError, T_ERROR, T_RESULT, T_SUBMIT
from tests.conftest import has_c_backend

MODE = "c" if has_c_backend() else "split_pointer"


def _build(seed):
    return build_heat((16, 16), 4, seed=seed)


def _ref(seed):
    app = _build(seed)
    app.run(mode=MODE)
    return app.result()


def _client(lb, **kw):
    kw.setdefault("request_timeout", 60.0)
    kw.setdefault("backoff", 0.02)
    return StencilClient(lb.host, lb.port, **kw)


def _raw(lb, timeout=15.0):
    sock = socket.create_connection((lb.host, lb.port), timeout=timeout)
    sock.settimeout(timeout)
    return sock


def _submit_frame(app, key, *, deadline=None, options=None):
    problem = app.stencil.prepare(app.steps, app.kernel)
    frame = protocol.encode_frame(
        T_SUBMIT,
        protocol.pack(
            {
                "key": key,
                "deadline": deadline,
                "problem": problem,
                "options": options,
            }
        ),
    )
    return problem, frame


# -- round trips are bitwise-identical to local runs ----------------------


def test_loopback_submit_matches_local_run():
    with LoopbackServer(ServeOptions(max_batch=4, batch_window=0.02)) as lb:
        app = _build(0)
        with _client(lb) as client:
            report = client.submit(
                app.stencil, app.steps, app.kernel, RunOptions(mode=MODE)
            )
        assert np.array_equal(app.result(), _ref(0))
        assert report.transport == "tcp"
        assert report.attempts == 1
        assert not report.replayed
        assert report.mode == MODE
        assert lb.server.stats["completed"] == 1
        assert lb.net.stats["requests"] == 1


def test_submit_many_pipelines_into_one_batched_dispatch():
    K = 4
    with LoopbackServer(ServeOptions(max_batch=8, batch_window=0.2)) as lb:
        apps = [_build(s) for s in range(K)]
        with _client(lb) as client:
            reports = client.submit_many(
                [(a.stencil, a.steps, a.kernel) for a in apps],
                RunOptions(mode=MODE),
            )
        # Remote options arrive as distinct unpickled objects per
        # request; value-keyed batching must still group the jobs.
        assert lb.server.stats["batches"] == 1
        assert lb.server.stats["batched_jobs"] == K
        for rep in reports:
            assert rep.batch_size == K
            assert rep.transport == "tcp"
        for s, app in enumerate(apps):
            assert np.array_equal(app.result(), _ref(s))


def test_no_toolchain_remote_jobs_batch_on_numpy(monkeypatch):
    # The wire keeps working without a toolchain: remote jobs batch on
    # NumPy, as local runs of them would, and land bitwise-equal locally.
    from repro.compiler import codegen_c

    monkeypatch.setattr(codegen_c, "find_c_compiler", lambda: None)
    K = 3
    with LoopbackServer(ServeOptions(max_batch=K, batch_window=0.1)) as lb:
        apps = [_build(s) for s in range(K)]
        with _client(lb) as client:
            reports = client.submit_many(
                [(a.stencil, a.steps, a.kernel) for a in apps]
            )
        assert lb.server.stats["completed"] == K
        assert lb.server.stats["batches"] == 1
    for s, (app, rep) in enumerate(zip(apps, reports)):
        ref = _build(s)
        ref.run(mode="split_pointer")
        assert np.array_equal(app.result(), ref.result())
        assert rep.transport == "tcp"
        assert rep.mode == "split_pointer"
        assert rep.batch_size == K
        assert rep.degradations == []


def test_health_probe():
    with LoopbackServer() as lb:
        with _client(lb) as client:
            health = client.health()
        assert health["accepting"] is True
        assert health["draining"] is False
        assert health["pending_jobs"] == 0
        assert health["retry_after"] > 0.0
        assert health["stats"]["completed"] == 0
        assert health["net_stats"]["health_probes"] == 1


# -- deadlines and backpressure over the wire -----------------------------


def test_remote_deadline_sheds_queued_job_typed():
    # The window is far wider than the job's budget: the deadline timer
    # must shed it while queued, answering a typed "expired" error.
    with LoopbackServer(ServeOptions(max_batch=8, batch_window=1.0)) as lb:
        app = _build(0)
        _, frame = _submit_frame(app, "deadline-key", deadline=0.05)
        sock = _raw(lb)
        try:
            sock.sendall(frame)
            ftype, payload = protocol.recv_frame(sock)
        finally:
            sock.close()
        assert ftype == T_ERROR
        msg = protocol.unpack(payload)
        assert msg["code"] == "expired"
        assert msg["key"] == "deadline-key"
        assert lb.server.stats["expired"] == 1
        assert lb.server.stats["completed"] == 0


def test_server_busy_crosses_the_wire_with_fields():
    opts = ServeOptions(max_batch=8, batch_window=0.3, max_pending=1)
    with LoopbackServer(opts) as lb:
        first, second = _build(0), _build(1)
        _, f1 = _submit_frame(first, "busy-1")
        _, f2 = _submit_frame(second, "busy-2")
        sock = _raw(lb)
        try:
            sock.sendall(f1 + f2)
            ftype, payload = protocol.recv_frame(sock)
            assert ftype == T_ERROR
            busy = protocol.unpack(payload)
            assert busy["key"] == "busy-2"
            assert busy["code"] == "busy"
            assert busy["pending_jobs"] == 1
            assert busy["pending_points"] > 0
            assert busy["retry_after"] > 0.0
            # The accepted job is not a casualty: its result follows.
            ftype, payload = protocol.recv_frame(sock)
            assert ftype == T_RESULT
            assert protocol.unpack(payload)["key"] == "busy-1"
        finally:
            sock.close()


def test_client_retries_busy_until_accepted():
    opts = ServeOptions(max_batch=1, batch_window=0.01, max_pending=1)
    with LoopbackServer(opts) as lb:
        apps = [_build(s) for s in range(3)]
        with _client(lb, retries=10) as client:
            reports = client.submit_many(
                [(a.stencil, a.steps, a.kernel) for a in apps],
                RunOptions(mode=MODE),
            )
        assert len(reports) == 3
        # Busy rejections were retried, not re-executed: exactly once.
        assert lb.server.stats["completed"] == 3
        for s, app in enumerate(apps):
            assert np.array_equal(app.result(), _ref(s))
        assert any(r.attempts > 1 for r in reports)
        assert any("net:retried" in r.degradations for r in reports)


def test_client_deadline_exhaustion_is_typed():
    with LoopbackServer() as lb:
        app = _build(0)
        with _client(lb, retries=10, backoff=0.2) as client:
            with pytest.raises(DeadlineExceeded):
                # A budget this small expires in the retry machinery
                # before any server answer can land.
                client.submit(
                    app.stencil, app.steps, app.kernel, timeout=0.0005
                )


def test_client_connection_refused_after_retries():
    # Bind-then-close yields a port with no listener.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    app = _build(0)
    with StencilClient(
        "127.0.0.1", port, retries=2, backoff=0.01, request_timeout=10.0
    ) as client:
        with pytest.raises(ConnectionError):
            client.submit(app.stencil, app.steps, app.kernel)


# -- malformed input poisons one connection, never the server -------------


def _assert_poisoned_then_healthy(lb, bad_bytes):
    sock = _raw(lb)
    try:
        sock.sendall(bad_bytes)
        ftype, payload = protocol.recv_frame(sock)
        assert ftype == T_ERROR
        assert protocol.unpack(payload)["code"] == "protocol"
        # The connection is dead: the server hung up after answering.
        with pytest.raises((ConnectionError, TimeoutError, OSError)):
            protocol.recv_frame(sock)
    finally:
        sock.close()
    # The server survived: a fresh connection serves a real job.
    app = _build(0)
    with _client(lb) as client:
        client.submit(app.stencil, app.steps, app.kernel, RunOptions(mode=MODE))
    assert np.array_equal(app.result(), _ref(0))
    assert lb.net.stats["protocol_errors"] >= 1


def test_garbage_magic_poisons_connection_only():
    with LoopbackServer() as lb:
        _assert_poisoned_then_healthy(lb, b"GET / HTTP/1.1\r\n\r\n" * 2)


def test_oversized_frame_poisons_connection_only():
    with LoopbackServer(max_frame=64 * 1024) as lb:
        huge = protocol.HEADER.pack(protocol.MAGIC, T_SUBMIT, 2**31 - 1)
        _assert_poisoned_then_healthy(lb, huge)


def test_garbage_payload_in_valid_frame_poisons_connection_only():
    with LoopbackServer() as lb:
        frame = protocol.encode_frame(T_SUBMIT, b"\x80\x05 not a pickle")
        _assert_poisoned_then_healthy(lb, frame)


def _hostile_payload(case):
    """A SUBMIT payload whose buffer table lies about the payload."""
    table = protocol.TABLE
    valid = protocol.pack({"key": "hostile", "a": np.arange(8.0)})
    meta_len, n_buf = table.unpack_from(valid)
    (size,) = struct.unpack_from("!Q", valid, table.size)
    sizes_at = slice(table.size, table.size + 8)
    if case == "truncated-table":
        return valid[: table.size - 3]
    if case == "truncated-sizes":
        return table.pack(0, 2) + struct.pack("!Q", 8)
    if case == "n_buf-beyond-payload":
        return table.pack(meta_len, 2**32 - 1) + valid[table.size:]
    if case in ("sizes-sum-over", "sizes-sum-under"):
        wrong = size + 8 if case == "sizes-sum-over" else size - 8
        out = bytearray(valid)
        out[sizes_at] = struct.pack("!Q", wrong)
        return bytes(out)
    assert case == "meta-overruns"
    return table.pack(len(valid), n_buf) + valid[table.size:]


HOSTILE_TABLES = [
    "truncated-table",
    "truncated-sizes",
    "n_buf-beyond-payload",
    "sizes-sum-over",
    "sizes-sum-under",
    "meta-overruns",
]


@pytest.mark.parametrize("case", HOSTILE_TABLES)
def test_hostile_buffer_table_poisons_connection_only(case):
    payload = _hostile_payload(case)
    with pytest.raises(ProtocolError):
        protocol.unpack(payload)
    with LoopbackServer(ServeOptions(max_batch=4, batch_window=0.1)) as lb:
        _, good_frame = _submit_frame(_build(0), "neighbor-good")
        healthy, poisoned = _raw(lb), _raw(lb)
        try:
            healthy.sendall(good_frame)
            poisoned.sendall(protocol.encode_frame(T_SUBMIT, payload))
            ftype, reply = protocol.recv_frame(poisoned)
            assert ftype == T_ERROR
            assert protocol.unpack(reply)["code"] == "protocol"
            with pytest.raises((ConnectionError, TimeoutError, OSError)):
                protocol.recv_frame(poisoned)
            ftype, reply = protocol.recv_frame(healthy)
            assert ftype == T_RESULT
            assert protocol.unpack(reply)["key"] == "neighbor-good"
        finally:
            healthy.close()
            poisoned.close()
        assert lb.net.stats["protocol_errors"] == 1
        assert lb.server.stats["completed"] == 1


def test_poisoned_connection_leaves_neighbor_untouched():
    with LoopbackServer(ServeOptions(max_batch=4, batch_window=0.1)) as lb:
        app = _build(0)
        _, good_frame = _submit_frame(app, "neighbor-good")
        healthy, poisoned = _raw(lb), _raw(lb)
        try:
            # The healthy connection's job is queued, THEN the neighbor
            # sends garbage; its death must not disturb the queued job.
            healthy.sendall(good_frame)
            poisoned.sendall(b"\x00" * 64)
            ftype, payload = protocol.recv_frame(poisoned)
            assert ftype == T_ERROR
            ftype, payload = protocol.recv_frame(healthy)
            assert ftype == T_RESULT
            assert protocol.unpack(payload)["key"] == "neighbor-good"
        finally:
            healthy.close()
            poisoned.close()
        assert lb.server.stats["completed"] == 1


# -- idempotent replay from the bounded journal ---------------------------


def test_duplicate_key_replays_without_reexecution():
    with LoopbackServer(ServeOptions(max_batch=1, batch_window=0.01)) as lb:
        app = _build(0)
        _, frame = _submit_frame(app, "replay-key")
        sock = _raw(lb)
        try:
            sock.sendall(frame)
            ftype, payload = protocol.recv_frame(sock)
            assert ftype == T_RESULT
            first = protocol.unpack(payload)
            assert first["replayed"] is False
            # Same idempotency key again (a client retry): the recorded
            # response replays — the job does NOT run twice.
            sock.sendall(frame)
            ftype, payload = protocol.recv_frame(sock)
            assert ftype == T_RESULT
            second = protocol.unpack(payload)
        finally:
            sock.close()
        assert second["replayed"] is True
        assert first["arrays"].keys() == second["arrays"].keys()
        for name, arr in first["arrays"].items():
            assert np.array_equal(second["arrays"][name], arr)
        assert lb.server.stats["completed"] == 1
        assert lb.net.stats["requests"] == 2
        assert lb.net.stats["replayed"] == 1


def test_journal_is_bounded_lru():
    opts = ServeOptions(max_batch=1, batch_window=0.01)
    with LoopbackServer(opts, journal_limit=2) as lb:
        frames = {}
        sock = _raw(lb)
        try:
            for i, key in enumerate(["j-1", "j-2", "j-3"]):
                _, frames[key] = _submit_frame(_build(i), key)
                sock.sendall(frames[key])
                ftype, _ = protocol.recv_frame(sock)
                assert ftype == T_RESULT
            assert lb.server.stats["completed"] == 3
            # "j-1" was evicted by the 2-entry bound: its retry is a
            # fresh execution (the frame carries pristine input state,
            # so the result is still correct), not a replay.
            sock.sendall(frames["j-1"])
            ftype, _ = protocol.recv_frame(sock)
            assert ftype == T_RESULT
        finally:
            sock.close()
        assert lb.server.stats["completed"] == 4
        assert lb.net.stats["replayed"] == 0


def test_busy_rejection_is_not_journaled():
    # A pre-execution rejection must not be replayed to a retry: the
    # retry deserves a fresh admission decision.
    opts = ServeOptions(max_batch=8, batch_window=0.2, max_pending=1)
    with LoopbackServer(opts) as lb:
        blocker, rejected = _build(0), _build(1)
        _, f1 = _submit_frame(blocker, "adm-1")
        _, f2 = _submit_frame(rejected, "adm-2")
        sock = _raw(lb)
        try:
            sock.sendall(f1 + f2)
            ftype, payload = protocol.recv_frame(sock)
            assert protocol.unpack(payload)["code"] == "busy"
            # Drain the blocker's result; capacity is now free.
            ftype, payload = protocol.recv_frame(sock)
            assert ftype == T_RESULT
            # The SAME key retries and is admitted this time.
            sock.sendall(f2)
            ftype, payload = protocol.recv_frame(sock)
            assert ftype == T_RESULT
            msg = protocol.unpack(payload)
            assert msg["key"] == "adm-2"
            assert msg["replayed"] is False
        finally:
            sock.close()
        assert lb.server.stats["completed"] == 2


def test_journal_is_bounded_by_bytes(monkeypatch):
    # Room for two and a half results: the third evicts the oldest by
    # bytes alone (the entry bound is the default 256).
    nbytes = _build(0).stencil.arrays["u"].data.nbytes
    monkeypatch.setattr(net, "JOURNAL_BYTES", int(2.5 * nbytes))
    opts = ServeOptions(max_batch=1, batch_window=0.01)
    with LoopbackServer(opts) as lb:
        frames = {}
        sock = _raw(lb)
        try:
            for i, key in enumerate(["b-1", "b-2", "b-3"]):
                _, frames[key] = _submit_frame(_build(i), key)
                sock.sendall(frames[key])
                ftype, _ = protocol.recv_frame(sock)
                assert ftype == T_RESULT
            sock.sendall(frames["b-3"])
            ftype, payload = protocol.recv_frame(sock)
            assert protocol.unpack(payload)["replayed"] is True
            sock.sendall(frames["b-1"])
            ftype, payload = protocol.recv_frame(sock)
            assert protocol.unpack(payload)["replayed"] is False
        finally:
            sock.close()
        assert lb.server.stats["completed"] == 4
        assert lb.net.stats["replayed"] == 1


# -- the client checks what comes back -------------------------------------


def _stub_server(arrays_for):
    """A one-connection server thread: it answers the first SUBMIT with
    a RESULT whose arrays are ``arrays_for(submitted_u)``."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(15)

    def serve():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(15)
            _, payload = protocol.recv_frame(conn)
            msg = protocol.unpack(payload)
            problem = msg["problem"]
            body = {
                "key": msg["key"],
                "report": RunReport(
                    "trap", MODE, problem.t_start, problem.t_end
                ),
                "arrays": arrays_for(problem.arrays["u"].data),
                "replayed": False,
            }
            protocol.send_parts(conn, protocol.frame_parts(T_RESULT, body))
            conn.recv(1)  # until the client hangs up

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread


@pytest.mark.parametrize(
    "arrays_for",
    [
        lambda u: {"v": u},
        lambda u: {"u": u.view(np.int64)},
        lambda u: {"u": u[:1]},
    ],
    ids=["unknown-name", "wrong-dtype", "wrong-size"],
)
def test_client_rejects_mismatched_result_arrays(arrays_for):
    listener, thread = _stub_server(arrays_for)
    app = _build(0)
    before = app.stencil.arrays["u"].data.copy()
    try:
        with StencilClient(
            "127.0.0.1", listener.getsockname()[1], retries=0,
            request_timeout=15.0,
        ) as client:
            with pytest.raises(ProtocolError):
                client.submit(app.stencil, app.steps, app.kernel)
    finally:
        thread.join(timeout=15)
        listener.close()
    assert np.array_equal(app.stencil.arrays["u"].data, before)
    assert app.stencil.cursor is None


# -- the server's in-place frame reader ------------------------------------


class _FakeTransport:
    def __init__(self):
        self.paused = False

    def pause_reading(self):
        self.paused = True

    def resume_reading(self):
        self.paused = False


@pytest.mark.parametrize("chunk", [1, 7, 4096, (1 << 18) + 3, 1 << 30])
def test_frame_reader_survives_any_split(chunk):
    # Small frames parse out of the stage (compacting partial ones), a
    # payload larger than the stage fills its own buffer in place, and
    # an empty payload is a frame too — however the reads are split.
    big = np.arange(1 << 16, dtype=np.float64)  # 512 KiB, above the stage
    bodies = [
        {"n": 0},
        {"n": 1, "a": big},
        {},
        {"n": 2, "a": np.arange(9.0)},
        {"n": 3, "a": big[::-1].copy()},
    ]
    frames = [protocol.frame_parts(T_SUBMIT, b) for b in bodies]
    frames.insert(2, [protocol.encode_frame(protocol.T_HEALTH, b"")])
    stream = b"".join(b"".join(f) for f in frames)

    class _Net:
        max_frame = protocol.MAX_FRAME

    async def feed():
        conn = net._FrameConnection(_Net())
        conn.transport = _FakeTransport()
        out, at = [], 0
        while at < len(stream):
            buf = conn.get_buffer(-1)
            n = min(len(buf), chunk, len(stream) - at)
            buf[:n] = stream[at:at + n]
            at += n
            conn.buffer_updated(n)
            while conn._frames:
                out.append(await conn.next_frame())
            assert not conn.transport.paused
        return out

    out = asyncio.run(feed())
    assert [ftype for ftype, _ in out] == [T_SUBMIT] * 2 + [
        protocol.T_HEALTH
    ] + [T_SUBMIT] * 3
    assert out[2][1] == b""
    got = [protocol.unpack(p) for ftype, p in out if ftype == T_SUBMIT]
    for want, msg in zip(bodies, got):
        assert msg.keys() == want.keys()
        if "a" in want:
            assert np.array_equal(msg["a"], want["a"])
            assert msg["a"].flags.writeable
