"""Same-host handoff: a large job's grids travel in a server-issued lease.

A lease is a shared-memory segment the server creates for one
connection.  The client writes a large job's whole SUBMIT payload into
it and sends a pointer (the lease and the payload's length); the server
unpacks the payload there, runs the job in place, and its RESULT carries
only the report.  Asserted here:

* a leased job is bitwise a local run, and one lease serves many jobs:
  its SUBMIT frame on the socket is a pointer of a few hundred bytes and
  its RESULT has no out-of-band buffer;
* a connection asks for a lease only once a size recurs on it (a lease
  pays only when reused), so a one-job connection never makes one;
* leases are bounded per connection and over the whole server, and a
  connection whose jobs change shape trades its old lease for a new one;
* with the lease refused (a peer that is not on this host) a large job
  goes inline over TCP through partial sends and the in-place receive,
  still bitwise;
* no socket input makes the server attach, read or write memory it did
  not issue to that connection: a shared-array descriptor, an unissued
  lease, another connection's lease, a length outside the lease, a
  leased payload that points again and a second job into a busy lease
  each get a typed refusal that closes only that connection, and a
  seeded mutation sweep of leased submits gets a result or a typed error
  each;
* reusing a lease expires the journal entry of the job it held, and a
  drain with a leased job in flight leaves no segment and no process.
"""

from __future__ import annotations

import glob
import os
import pickle
import random
import socket
import threading
import time

import numpy as np
import pytest

from repro import RunOptions
from repro.apps.heat import build_heat
from repro.language.array import _attach_segment, _close_segment, _create_segment
from repro.serve import LoopbackServer, ServeOptions, StencilClient, net, protocol
from repro.serve.protocol import (
    T_ERROR,
    T_LEASE,
    T_LEASE_OK,
    T_RESULT,
    T_SUBMIT,
)
from tests.conftest import has_c_backend

MODE = "c" if has_c_backend() else "split_pointer"

#: 160x160 doubles in two slots: 410 KB, past the server's staging buffer.
LARGE = (160, 160)


def _build(seed, sizes=LARGE):
    return build_heat(sizes, 4, seed=seed)


def _ref(seed, sizes=LARGE):
    app = _build(seed, sizes)
    app.run(mode=MODE)
    return app.result()


def _options(**kw):
    kw.setdefault("max_batch", 4)
    kw.setdefault("batch_window", 0.01)
    kw.setdefault("run", RunOptions(mode=MODE))
    return ServeOptions(**kw)


def _client(lb, **kw):
    kw.setdefault("request_timeout", 60.0)
    kw.setdefault("backoff", 0.02)
    return StencilClient(lb.host, lb.port, **kw)


def _raw(lb, timeout=15.0):
    sock = socket.create_connection((lb.host, lb.port), timeout=timeout)
    sock.settimeout(timeout)
    return sock


def _segments():
    return set(glob.glob(f"/dev/shm/{net.LEASE_PREFIX}*"))


def _lease(sock, size=1 << 20):
    """Ask for a lease on a raw connection; its id and our mapping."""
    protocol.send_parts(sock, protocol.frame_parts(T_LEASE, {"size": size}))
    ftype, payload = protocol.recv_frame(sock)
    answer = protocol.unpack(payload)
    assert ftype == T_LEASE_OK and answer["lease"] is not None, answer
    return answer["lease"], _attach_segment(answer["name"])


def _msg(app, key, **extra):
    problem = app.stencil.prepare(app.steps, app.kernel)
    return {"key": key, "deadline": None, "problem": problem, **extra}


def _pointer(lid, length):
    return protocol.frame_parts(T_SUBMIT, {"lease": lid, "length": length})


def _put(shm, msg):
    """Write ``msg``'s payload into a lease mapping; its length."""
    payload = protocol.pack(msg)
    shm.buf[:len(payload)] = payload
    return len(payload)


def _leased_frame(msg, lid, shm):
    """A pointer SUBMIT to ``msg``'s payload, written into lease ``lid``."""
    return _pointer(lid, _put(shm, msg))


def _expect_refusal(sock, code):
    ftype, reply = protocol.recv_frame(sock)
    assert ftype == T_ERROR
    error = protocol.unpack(reply)
    assert error["code"] == code, error
    with pytest.raises((ConnectionError, TimeoutError, OSError)):
        protocol.recv_frame(sock)
    return error


def _submit_each(client, apps):
    return [client.submit(a.stencil, a.steps, a.kernel) for a in apps]


def _serves_another_client(lb, seed=7):
    """A second client still gets leased service: its third job of one
    size runs in the lease its second one asked for."""
    apps = [_build(seed + i) for i in range(3)]
    with _client(lb) as client:
        reports = _submit_each(client, apps)
    assert [r.transport for r in reports] == ["tcp", "tcp", "shm"]
    for i, app in enumerate(apps):
        assert np.array_equal(app.result(), _ref(seed + i))


# -- the leased path -------------------------------------------------------


def test_large_jobs_run_in_one_reused_lease_bitwise():
    # The first job of a size goes inline; the second, its size now
    # recurring, goes inline too and asks for a lease; the rest reuse it.
    with LoopbackServer(_options()) as lb:
        apps = [_build(s) for s in range(5)]
        with _client(lb) as client:
            reports = _submit_each(client, apps)
        assert [r.transport for r in reports] == ["tcp", "tcp"] + ["shm"] * 3
        assert lb.net.stats["leases"] == 1  # created once, reused
        assert lb.server.stats["completed"] == 5
    for seed, app in enumerate(apps):
        assert np.array_equal(app.result(), _ref(seed))


def test_large_solo_jobs_send_a_pointer_and_get_a_bare_result(monkeypatch):
    """The shape of a served 1024x1024 heat job (16.8 MB of grid) on one
    reused connection: from the third job on, the SUBMIT on the socket
    is a pointer of at most 256 bytes and the RESULT has no out-of-band
    buffer; every result is bitwise a local run."""
    sent, received = [], []
    send, recv = protocol.send_parts, protocol.recv_frame

    def spy_send(sock, parts):
        sent.append(b"".join(parts))
        send(sock, parts)

    def spy_recv(sock, **kw):
        received.append(recv(sock, **kw))
        return received[-1]

    monkeypatch.setattr(protocol, "send_parts", spy_send)
    monkeypatch.setattr(protocol, "recv_frame", spy_recv)
    sizes = (1024, 1024)
    with LoopbackServer(_options()) as lb, _client(lb) as client:
        for seed in range(4):
            app = _build(seed, sizes)
            del sent[:], received[:]
            report = client.submit(app.stencil, app.steps, app.kernel)
            (submit,) = [f for f in sent if f[4] == T_SUBMIT]
            (result,) = [p for ftype, p in received if ftype == T_RESULT]
            if seed >= 2:
                assert report.transport == "shm"
                assert len(submit) <= 256
                assert protocol.TABLE.unpack_from(result)[1] == 0
            assert np.array_equal(app.result(), _ref(seed, sizes))
        assert lb.net.stats["leases"] == 1


def test_a_supervised_run_leaves_its_result_in_the_lease():
    # The procs executor moves the grids into segments of its own and
    # back to private memory; the server copies the results into the
    # lease, where the client reads them.
    opts = _options(run=RunOptions(mode=MODE, executor="procs", n_workers=2))
    with LoopbackServer(opts) as lb, _client(lb) as client:
        apps = [_build(s) for s in range(3)]
        reports = _submit_each(client, apps)
    assert [r.transport for r in reports] == ["tcp", "tcp", "shm"]
    assert {r.executor for r in reports} == {"procs"}
    for seed, app in enumerate(apps):
        assert np.array_equal(app.result(), _ref(seed))


def test_one_job_connections_never_make_a_lease():
    with LoopbackServer(_options()) as lb:
        apps = [_build(s) for s in range(3)]
        for app in apps:
            with _client(lb) as client:
                report = client.submit(app.stencil, app.steps, app.kernel)
            assert report.transport == "tcp"
        assert lb.net.stats["leases"] == lb.net.stats["leases_refused"] == 0
    for seed, app in enumerate(apps):
        assert np.array_equal(app.result(), _ref(seed))


def test_pipelined_large_jobs_take_one_lease_each():
    # A burst of one size recurs within itself: its inline jobs ask for a
    # lease each, and the next burst runs in them.
    with LoopbackServer(_options(max_batch=8, batch_window=0.05)) as lb:
        apps = [_build(s) for s in range(3)]
        jobs = [(a.stencil, a.steps, a.kernel) for a in apps]
        with _client(lb) as client:
            reports = client.submit_many(jobs)
            again = client.submit_many(jobs)
        assert {r.transport for r in reports} == {"tcp"}
        assert {r.transport for r in again} == {"shm"}
        assert lb.net.stats["leases"] == 3
        assert lb.server.stats["completed"] == 6


def test_small_jobs_never_ask_for_a_lease():
    with LoopbackServer(_options()) as lb:
        app = _build(0, (16, 16))
        with _client(lb) as client:
            report = client.submit(app.stencil, app.steps, app.kernel)
        assert report.transport == "tcp"
        assert lb.net.stats["leases"] == lb.net.stats["leases_refused"] == 0


def test_refused_lease_sends_large_job_inline_bitwise(monkeypatch):
    """The inline path for grid-sized frames: partial sends, the
    server's in-place receive, and the RESULT's sliced writes."""
    monkeypatch.setattr(net, "is_loopback", lambda peer: False)
    with LoopbackServer(_options()) as lb:
        apps = [_build(s, (512, 512)) for s in range(2)]
        with _client(lb) as client:
            reports = _submit_each(client, apps)
        assert [r.transport for r in reports] == ["tcp", "tcp"]
        assert lb.net.stats["leases"] == 0
        assert lb.net.stats["leases_refused"] == 1  # asked when the size recurred
    for seed, app in enumerate(apps):
        assert np.array_equal(app.result(), _ref(seed, (512, 512)))


def _ask(sock, size, release=()):
    """Send one lease request on a raw connection; the server's answer."""
    ask = {"size": size, "release": list(release)}
    protocol.send_parts(sock, protocol.frame_parts(T_LEASE, ask))
    ftype, payload = protocol.recv_frame(sock)
    assert ftype == T_LEASE_OK
    return protocol.unpack(payload)


def test_lease_requests_past_the_connection_bound_are_refused(monkeypatch):
    monkeypatch.setattr(net, "CONN_LEASE_BYTES", 1 << 20)
    with LoopbackServer(_options()) as lb:
        sock = _raw(lb)
        try:
            lid, shm = _lease(sock, 1 << 19)
            _close_segment(shm, False)
            answer = _ask(sock, 1 << 20)
            assert answer["lease"] is None
            assert "connection holds" in answer["reason"]
            # Giving the first lease back makes room for the second.
            assert _ask(sock, 1 << 20, release=[lid])["lease"] is not None
        finally:
            sock.close()
        assert lb.net.stats["leases_refused"] == 1
        assert lb.net.stats["leases"] == 2


def test_lease_bytes_are_bounded_over_all_connections(monkeypatch):
    monkeypatch.setattr(net, "LEASE_BYTES", 1 << 20)
    with LoopbackServer(_options()) as lb:
        first, second = _raw(lb), _raw(lb)
        try:
            lid, shm = _lease(first, 3 << 18)
            _close_segment(shm, False)
            answer = _ask(second, 1 << 19)
            assert answer["lease"] is None
            assert "server holds" in answer["reason"]
            first.close()
            # The closed connection's lease is unlinked and its bytes
            # return to the server.
            deadline = time.monotonic() + 10
            while lb.net._lease_bytes and time.monotonic() < deadline:
                time.sleep(0.01)
            lid, shm = _lease(second, 1 << 19)
            _close_segment(shm, False)
        finally:
            first.close()
            second.close()


def test_a_connection_trades_its_lease_when_the_shape_changes(monkeypatch):
    # Room for one lease of either shape: the second shape's request is
    # refused, the client gives its idle lease of the first shape back
    # and asks again, so the new shape still runs in shared memory.
    small, large = (160, 160), (192, 192)
    monkeypatch.setattr(net, "CONN_LEASE_BYTES", 700_000)
    with LoopbackServer(_options()) as lb:
        with _client(lb) as client:
            # Back to the first shape, already seen: its first job asks.
            for sizes, transports in (
                (small, ["tcp", "tcp", "shm"]),
                (large, ["tcp", "tcp", "shm"]),
                (small, ["tcp", "shm", "shm"]),
            ):
                apps = [_build(s, sizes) for s in range(3)]
                reports = _submit_each(client, apps)
                assert [r.transport for r in reports] == transports
                for seed, app in enumerate(apps):
                    assert np.array_equal(app.result(), _ref(seed, sizes))
                assert len(client._leases) == 1
        assert lb.net.stats["leases"] == 3
        assert lb.net.stats["leases_refused"] == 2
    assert lb.net._lease_bytes == 0


def test_client_sends_a_shared_array_by_value():
    with LoopbackServer(_options()) as lb, _client(lb) as client:
        for sizes, transport in (((16, 16), "tcp"), (LARGE, "shm")):
            # Two jobs first: a large size then has a lease.
            _submit_each(client, [_build(s, sizes) for s in range(2)])
            app = _build(3, sizes)
            app.stencil.arrays["u"].share()
            try:
                report = client.submit(app.stencil, app.steps, app.kernel)
                assert report.transport == transport
                assert np.array_equal(app.result(), _ref(3, sizes))
            finally:
                app.stencil.arrays["u"].unshare()


# -- refusals: no socket input picks the memory a run maps -----------------


def test_shared_array_descriptor_submit_is_refused():
    """A SUBMIT whose grid is a segment descriptor (the supervised
    executor's pickle of a shared array) is refused before the server
    attaches anything; the segment's bytes stay as they were."""
    app = _build(0, (16, 16))
    arr = app.stencil.arrays["u"]
    arr.share()
    try:
        before = arr.data.copy()
        meta = pickle.dumps(_msg(app, "forged"), protocol=5)
        payload = protocol.TABLE.pack(len(meta), 0) + meta
        with LoopbackServer(_options()) as lb:
            sock = _raw(lb)
            try:
                sock.sendall(protocol.encode_frame(T_SUBMIT, payload))
                error = _expect_refusal(sock, "invalid")
                assert "shared-memory descriptor" in error["message"]
            finally:
                sock.close()
            _serves_another_client(lb)
            assert lb.server.stats["submitted"] == 3
        assert np.array_equal(arr.data, before)
    finally:
        arr.unshare()


def test_lease_request_carrying_a_descriptor_is_refused():
    """The wire's other entry point that unpickles: a LEASE frame whose
    pickle holds a shared-array descriptor is refused as ``invalid`` and
    closes only its connection."""
    app = _build(0, (16, 16))
    arr = app.stencil.arrays["u"]
    arr.share()
    try:
        before = arr.data.copy()
        meta = pickle.dumps({"size": 1 << 20, "grid": arr}, protocol=5)
        payload = protocol.TABLE.pack(len(meta), 0) + meta
        with LoopbackServer(_options()) as lb:
            sock = _raw(lb)
            try:
                sock.sendall(protocol.encode_frame(T_LEASE, payload))
                error = _expect_refusal(sock, "invalid")
                assert "shared-memory descriptor" in error["message"]
            finally:
                sock.close()
            _serves_another_client(lb)
            assert lb.net.stats["protocol_errors"] == 1
            assert lb.net.stats["leases"] == 1  # the second client's only
        assert np.array_equal(arr.data, before)
    finally:
        arr.unshare()


@pytest.mark.parametrize("case", ["unissued", "other-connection", "busy"])
def test_releasing_a_lease_that_is_not_idle_and_ours_is_refused(case):
    with LoopbackServer(_options(batch_window=0.5)) as lb:
        sock, other = _raw(lb), _raw(lb)
        lid, shm = _lease(sock)
        other_lid, other_shm = _lease(other)
        try:
            if case == "busy":
                protocol.send_parts(
                    sock, _leased_frame(_msg(_build(0), "busy"), lid, shm)
                )
            target = {"unissued": lid + 1000, "other-connection": other_lid,
                      "busy": lid}[case]
            ask = {"size": 0, "release": [target]}
            protocol.send_parts(sock, protocol.frame_parts(T_LEASE, ask))
            error = _expect_refusal(sock, "protocol")
            assert "not idle leases of this connection" in error["message"]
            # The other connection still holds its lease.
            assert _ask(other, 0, release=[other_lid])["lease"] is None
        finally:
            _close_segment(shm, False)
            _close_segment(other_shm, False)
            sock.close()
            other.close()
        _serves_another_client(lb)
        assert lb.net.stats["protocol_errors"] == 1
    assert lb.server.stats["completed"] == 3 + (case == "busy")


def test_tracked_segments_stay_tracked_while_leases_come_and_go(monkeypatch):
    """Lease segments are made and unlinked with the resource tracker
    muted (Python < 3.13 patches its module functions for that), on the
    serving loop's worker threads, while a supervised run shares and
    unshares tracked grids on others.  A tracked create or unlink must
    never fall inside another thread's mute: the tracker would miss the
    segment (a crash leaks it) or keep a name already gone."""
    from multiprocessing import resource_tracker

    calls: list[tuple[str, str]] = []
    monkeypatch.setattr(
        resource_tracker, "register", lambda name, rtype: calls.append(("+", name))
    )
    monkeypatch.setattr(
        resource_tracker, "unregister", lambda name, rtype: calls.append(("-", name))
    )
    rounds = 300
    stop = threading.Event()

    def leases():
        while not stop.is_set():
            shm = _create_segment(f"{net.LEASE_PREFIX}probe_{os.getpid()}", 1 << 16)
            _close_segment(shm, True)

    arr = _build(0, (64, 64)).stencil.arrays["u"]
    names = []
    thread = threading.Thread(target=leases)
    thread.start()
    try:
        for _ in range(rounds):
            arr.share()
            names.append(arr._shm._name)
            arr.unshare()
    finally:
        stop.set()
        thread.join()
    assert sorted(calls) == sorted(
        [("+", n) for n in names] + [("-", n) for n in names]
    )


def _refused_leased_submit(lb, case):
    """Send one SUBMIT that breaks a lease rule on its own connection."""
    sock = _raw(lb)
    lid, shm = _lease(sock)
    other = None
    try:
        length = _put(shm, _msg(_build(0, (16, 16)), "x"))
        if case == "unissued":
            frame = _pointer(lid + 1000, length)
        elif case == "other-connection":
            other = _raw(lb)
            other_lid, other_shm = _lease(other)
            frame = _leased_frame(_msg(_build(0, (16, 16)), "x"), other_lid, other_shm)
            _close_segment(other_shm, False)
        elif case == "offset-out-of-range":
            # The payload's last buffer reaches past the pointer's length.
            frame = _pointer(lid, length - 64)
        else:
            assert case == "size-out-of-range"
            frame = _pointer(lid, shm.size + 8)
        protocol.send_parts(sock, frame)
        error = _expect_refusal(sock, "protocol")
    finally:
        _close_segment(shm, False)
        sock.close()
        if other is not None:
            other.close()
    return error


LEASE_REFUSALS = [
    "unissued",
    "other-connection",
    "offset-out-of-range",
    "size-out-of-range",
]


@pytest.mark.parametrize("case", LEASE_REFUSALS)
def test_leased_submit_breaking_a_rule_is_refused(case):
    with LoopbackServer(_options()) as lb:
        _refused_leased_submit(lb, case)
        _serves_another_client(lb)
        assert lb.server.stats["submitted"] == 3
        assert lb.net.stats["protocol_errors"] == 1


def test_second_submit_into_a_busy_lease_is_refused():
    with LoopbackServer(_options(batch_window=0.5)) as lb:
        sock = _raw(lb)
        lid, shm = _lease(sock)
        try:
            first = _leased_frame(_msg(_build(0), "first"), lid, shm)
            protocol.send_parts(sock, first)
            # The server reads nothing from a busy lease, so the second
            # pointer may name the first job's payload.
            protocol.send_parts(sock, first)
            error = _expect_refusal(sock, "protocol")
            assert "in flight" in error["message"]
        finally:
            _close_segment(shm, False)
            sock.close()
        _serves_another_client(lb)
    # The drain finished the first job: accepted work runs exactly once.
    assert lb.server.stats["completed"] == 4


def _mutated_submits(seed=46, flips=24):
    """A derandomized sweep of leased SUBMITs broken one way each:
    ``(case, target, length, payload)``.  ``target`` names the lease the
    pointer goes to (``own``, ``unissued``, ``other`` or ``busy``), and
    ``payload`` is written into it first.  Half the flips hit the buffer
    table, half the meta."""
    rng = random.Random(seed)
    app = _build(0, (16, 16))

    def payload(key):
        return bytearray(protocol.pack(_msg(app, key, last=True)))

    meta_len, n_buf = protocol.TABLE.unpack_from(payload("k"))
    table = protocol.TABLE.size + 8 * n_buf
    cases = []
    for i in range(flips):
        data = payload(f"flip{i}")
        pos = rng.randrange(*((0, table) if i % 2 else (table, table + meta_len)))
        data[pos] ^= rng.randrange(1, 256)
        cases.append((f"flip@{pos}", "own", len(data), data))
    data = payload("named")
    n = len(data)
    pointer = protocol.pack({"lease": 1, "length": n})
    return cases + [
        ("length-0", "own", 0, data),
        ("length-past-the-lease", "own", (1 << 16) + 1, data),
        ("length-float", "own", float(n), data),
        ("length-str", "own", str(n), data),
        ("pointer-in-the-lease", "own", len(pointer), pointer),
        ("unissued", "unissued", n, data),
        ("other-connection", "other", n, data),
        ("busy", "busy", n, data),
    ]


def test_mutated_leased_submits_get_a_result_or_a_typed_error():
    """Each mutation runs on its own connection and is answered with a
    RESULT or a typed ``T_ERROR``; the server stays up for a second
    client and unlinks every lease.  The volume bound refuses a flip that
    inflates a job's steps or sizes as ``busy`` instead of running it."""
    before = _segments()
    codes = {"protocol", "invalid", "busy", "expired", "internal"}
    answers = {}
    opts = ServeOptions(
        max_batch=4, batch_window=0.3, max_pending_points=1 << 20,
        run=RunOptions(mode="split_pointer"),
    )
    with LoopbackServer(opts) as lb:
        # One neighbour connection holds a lease through the whole sweep.
        other = _raw(lb)
        other_lid, other_shm = _lease(other, 1 << 16)
        for case, target, length, data in _mutated_submits():
            # A flip may make a valid job that runs long: wait for it.
            sock = _raw(lb, timeout=60.0)
            lid, shm = _lease(sock, 1 << 16)
            try:
                if target == "busy":
                    # A job in flight in the lease: unmarked, it waits out
                    # the batch window, and its payload stays as it is.
                    queued = _msg(_build(1, (16, 16)), "queued")
                    protocol.send_parts(sock, _leased_frame(queued, lid, shm))
                else:
                    into = other_shm if target == "other" else shm
                    into.buf[:len(data)] = data
                pointer = {"own": lid, "busy": lid, "other": other_lid,
                           "unissued": other_lid + 1000}[target]
                protocol.send_parts(sock, _pointer(pointer, length))
                ftype, reply = protocol.recv_frame(sock)
                answer = protocol.unpack(reply)
                assert ftype in (T_RESULT, T_ERROR), case
                assert ftype == T_RESULT or answer["code"] in codes, (case, answer)
                answers[case] = "result" if ftype == T_RESULT else answer["code"]
                del answer
            finally:
                _close_segment(shm, False)
                sock.close()
        # The neighbour was poisoned by none of it: its lease is still its
        # own and idle, so giving it back is answered.
        _close_segment(other_shm, False)
        assert _ask(other, 0, release=[other_lid])["lease"] is None
        other.close()
        _serves_another_client(lb)
    assert _segments() == before
    named = [case for case, *_ in _mutated_submits() if not case.startswith("flip")]
    assert {answers[case] for case in named} == {"protocol"}


# -- journal and lifetime --------------------------------------------------


def test_reusing_a_lease_expires_the_job_it_held():
    with LoopbackServer(_options()) as lb:
        sock = _raw(lb)
        lid, shm = _lease(sock)
        try:
            for key, seed in (("a", 0), ("b", 1)):
                length = _put(shm, _msg(_build(seed), key))
                protocol.send_parts(sock, _pointer(lid, length))
                ftype, reply = protocol.recv_frame(sock)
                assert ftype == T_RESULT
                result = protocol.unpack(reply)
                assert result["report"].transport == "shm"
                assert result["arrays"] == {}
                # The job ran in place on its payload in the lease.
                data = protocol.unpack(shm.buf[:length])["problem"].arrays["u"].data
                assert np.array_equal(data[_build(seed).steps % 2], _ref(seed))
                del result, data
            # "a"'s result was overwritten by "b"'s input: a retry of "a"
            # must neither re-execute it nor replay "b"'s bytes.
            retry = _raw(lb)
            try:
                protocol.send_parts(
                    retry, protocol.frame_parts(T_SUBMIT, _msg(_build(0), "a"))
                )
                ftype, reply = protocol.recv_frame(retry)
                assert ftype == T_ERROR
                assert protocol.unpack(reply)["code"] == "expired"
            finally:
                retry.close()
        finally:
            _close_segment(shm, False)
            sock.close()
        assert lb.server.stats["completed"] == 2


def test_closed_connection_leaves_its_result_replayable_inline():
    with LoopbackServer(_options()) as lb:
        sock = _raw(lb)
        lid, shm = _lease(sock)
        try:
            protocol.send_parts(sock, _leased_frame(_msg(_build(0), "k"), lid, shm))
            ftype, _ = protocol.recv_frame(sock)
            assert ftype == T_RESULT
        finally:
            # Scribbling on the lease after the answer must not reach the
            # journal once the connection has released it.
            sock.close()
            path = f"/dev/shm/{shm.name}"
            deadline = time.monotonic() + 10
            while os.path.exists(path) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not os.path.exists(path)
            np.frombuffer(shm.buf, np.uint8)[:] = 0xFF
            _close_segment(shm, False)
        retry = _raw(lb)
        try:
            protocol.send_parts(
                retry, protocol.frame_parts(T_SUBMIT, _msg(_build(0), "k"))
            )
            ftype, reply = protocol.recv_frame(retry)
            result = protocol.unpack(reply)
        finally:
            retry.close()
        assert ftype == T_RESULT and result["replayed"]
        assert np.array_equal(result["arrays"]["u"][_build(0).steps % 2], _ref(0))
        assert lb.server.stats["completed"] == 1


def _children() -> set[int]:
    """Pids of this process's live children."""
    out = set()
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid() and fields[0] != "Z":
            out.add(int(stat.split("/")[2]))
    return out


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_drain_with_a_leased_job_in_flight_leaves_nothing_behind(monkeypatch):
    from multiprocessing import resource_tracker

    from repro.trap import driver

    children = _children()
    tracker = resource_tracker._resource_tracker._pid
    segments = _segments()
    app = _build(5)
    out: dict = {}
    # The third run (the leased job) waits in the server's worker thread
    # until the drain has begun.
    real, runs, release = driver.execute_problem, [], threading.Event()

    def held(problems, options):
        runs.append(len(problems))
        if len(runs) > 2:
            release.wait(30)
        return real(problems, options)

    monkeypatch.setattr(driver, "execute_problem", held)
    lb = LoopbackServer(_options()).start()
    client = _client(lb)
    # Two jobs of the size first, so the third runs in a lease.
    _submit_each(client, [_build(s) for s in range(2)])

    def submit():
        out["report"] = client.submit(app.stencil, app.steps, app.kernel)

    thread = threading.Thread(target=submit)
    thread.start()
    try:
        deadline = time.monotonic() + 10
        while len(runs) < 3 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert lb.server.stats["completed"] == 2  # the third is in flight
        assert _segments() - segments
        threading.Thread(target=lb.stop, daemon=True).start()
        while not lb.net._draining and time.monotonic() < deadline:
            time.sleep(0.005)
        assert lb.net._draining
    finally:
        release.set()
        lb.stop()
        thread.join(timeout=30)
        client.close()
    assert out["report"].transport == "shm"
    assert np.array_equal(app.result(), _ref(5))
    assert _segments() == segments
    assert _children() <= children
    assert resource_tracker._resource_tracker._pid == tracker
