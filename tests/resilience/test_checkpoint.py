"""Checkpoint format, loader fallback, pruning, and the resume API."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CheckpointError, CheckpointPolicy, RunOptions, resume
from repro.language.stencil import Stencil  # noqa: F401  (re-export check)
from repro.language.stencil import problem_signature
from repro.resilience import checkpoint as cp

from tests.conftest import make_heat_problem


def _prepared(steps=6, sizes=(12, 12), seed=3):
    st, u, kern = make_heat_problem(sizes, seed=seed)
    problem = st.prepare(steps, kern)
    return st, u, kern, problem


# -- policy / options validation ---------------------------------------------


def test_policy_validates():
    with pytest.raises(Exception):
        CheckpointPolicy(dir="x", every_dt=0)
    with pytest.raises(Exception):
        CheckpointPolicy(dir="x", keep=0)
    pol = CheckpointPolicy(dir="x", every_dt=4, keep=2)
    assert pol.every_dt == 4 and pol.keep == 2


def test_run_options_reject_bad_checkpoint():
    with pytest.raises(Exception):
        RunOptions(checkpoint="not-a-policy")


# -- file format --------------------------------------------------------------


def test_roundtrip(tmp_path):
    st, u, kern, problem = _prepared()
    st.run(4, kern)  # levels 1..4 exist; t_next=5 is a block boundary
    path = cp.write_checkpoint(tmp_path, problem, 5)
    ck = cp.load_checkpoint(path)
    assert ck.t_next == 5
    assert ck.signature == problem_signature(problem)
    assert ck.schema == cp.CHECKPOINT_SCHEMA_VERSION
    np.testing.assert_array_equal(ck.arrays["u"], u.data)


def test_restore_into_fresh_arrays(tmp_path):
    st, u, kern, problem = _prepared(seed=7)
    st.run(4, kern)
    path = cp.write_checkpoint(tmp_path, problem, 5)
    want = u.data.copy()

    st2, u2, kern2 = make_heat_problem((12, 12), seed=7)
    problem2 = st2.prepare(6, kern2)
    buf_before = u2.data
    cp.load_checkpoint(path).restore_into(problem2)
    assert u2.data is buf_before  # in-place: compiled kernels prebind this
    np.testing.assert_array_equal(u2.data, want)
    assert u2._latest == 4


def test_restore_refuses_wrong_problem(tmp_path):
    st, u, kern, problem = _prepared()
    path = cp.write_checkpoint(tmp_path, problem, 3)
    st2, u2, kern2 = make_heat_problem((16, 16))  # different grid
    other = st2.prepare(6, kern2)
    with pytest.raises(CheckpointError):
        cp.load_checkpoint(path).restore_into(other)


@pytest.mark.parametrize(
    "damage",
    ["truncate", "flip", "magic", "empty"],
)
def test_damage_is_detected(tmp_path, damage):
    st, u, kern, problem = _prepared()
    path = cp.write_checkpoint(tmp_path, problem, 3)
    raw = bytearray(path.read_bytes())
    if damage == "truncate":
        raw = raw[: len(raw) // 2]
    elif damage == "flip":
        raw[len(raw) // 2] ^= 0xFF
    elif damage == "magic":
        raw[:4] = b"XXXX"
    elif damage == "empty":
        raw = bytearray()
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        cp.load_checkpoint(path)


def test_schema_mismatch_rejected(tmp_path, monkeypatch):
    st, u, kern, problem = _prepared()
    path = cp.write_checkpoint(tmp_path, problem, 3)
    monkeypatch.setattr(cp, "CHECKPOINT_SCHEMA_VERSION", 999)
    with pytest.raises(CheckpointError, match="schema"):
        cp.load_checkpoint(path)


# -- directory scanning, fallback, pruning ------------------------------------


def test_newest_valid_skips_corrupt(tmp_path):
    st, u, kern, problem = _prepared()
    p3 = cp.write_checkpoint(tmp_path, problem, 3)
    p5 = cp.write_checkpoint(tmp_path, problem, 5)
    assert cp.newest_valid(tmp_path, problem).t_next == 5
    raw = bytearray(p5.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    p5.write_bytes(bytes(raw))
    ck = cp.newest_valid(tmp_path, problem)
    assert ck is not None and ck.t_next == 3 and ck.path == p3


def test_newest_valid_respects_time_range(tmp_path):
    st, u, kern, problem = _prepared(steps=6)  # range (1, 7]
    cp.write_checkpoint(tmp_path, problem, 5)
    ck = cp.newest_valid(tmp_path, problem)
    assert ck.t_next == 5
    import dataclasses

    # A shorter horizon than the checkpoint: it must not be applied.
    short = dataclasses.replace(problem, t_end=4)
    assert cp.newest_valid(tmp_path, short) is None
    # t_next == t_end is valid: the run already completed.
    done = dataclasses.replace(problem, t_end=5)
    assert cp.newest_valid(tmp_path, done).t_next == 5


def test_prune_keeps_newest(tmp_path):
    st, u, kern, problem = _prepared()
    sig = problem_signature(problem)
    for t in (2, 3, 4, 5):
        cp.write_checkpoint(tmp_path, problem, t)
    removed = cp.prune(tmp_path, sig, keep=2)
    assert removed == 2
    left = cp.list_checkpoints(tmp_path, sig)
    assert [int(p.name.split("-t")[1].split(".")[0]) for p in left] == [5, 4]


def test_resume_api(tmp_path):
    st, u, kern, problem = _prepared()
    path = cp.write_checkpoint(tmp_path, problem, 4)
    assert resume(tmp_path).t_next == 4  # directory: newest valid
    assert resume(path).t_next == 4  # explicit file
    with pytest.raises(CheckpointError):
        resume(tmp_path / "empty-does-not-exist")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(CheckpointError):
        resume(empty)


# -- end-to-end through Stencil.run ------------------------------------------


@pytest.mark.parametrize("every_dt", [1, 3, 100])
def test_checkpointed_run_bitwise_equal(tmp_path, every_dt):
    st_ref, u_ref, kern_ref = make_heat_problem((12, 12), seed=11)
    st_ref.run(7, kern_ref)
    ref = u_ref.snapshot(st_ref.cursor)

    st, u, kern = make_heat_problem((12, 12), seed=11)
    report = st.run(
        7, kern, checkpoint=CheckpointPolicy(dir=tmp_path, every_dt=every_dt)
    )
    np.testing.assert_array_equal(u.snapshot(st.cursor), ref)
    import math

    assert report.checkpoints_written == math.ceil(7 / every_dt)
    assert report.points_updated == 7 * 12 * 12


def test_resume_mid_history_bitwise_equal(tmp_path):
    st_ref, u_ref, kern_ref = make_heat_problem((12, 12), seed=13)
    st_ref.run(8, kern_ref)
    ref = u_ref.snapshot(st_ref.cursor)

    st1, u1, kern1 = make_heat_problem((12, 12), seed=13)
    st1.run(8, kern1, checkpoint=CheckpointPolicy(dir=tmp_path, every_dt=2, keep=10))
    # Resume from each stored boundary; all must reproduce the same bits.
    for path in cp.list_checkpoints(tmp_path):
        st2, u2, kern2 = make_heat_problem((12, 12), seed=13)
        report = st2.run(8, kern2, resume_from=path)
        np.testing.assert_array_equal(u2.snapshot(st2.cursor), ref)
        assert report.resumed_from == cp.load_checkpoint(path).t_next


def test_resume_from_empty_dir_is_cold_start(tmp_path):
    st_ref, u_ref, kern_ref = make_heat_problem((12, 12), seed=17)
    st_ref.run(5, kern_ref)
    ref = u_ref.snapshot(st_ref.cursor)

    st, u, kern = make_heat_problem((12, 12), seed=17)
    report = st.run(5, kern, resume_from=tmp_path)
    np.testing.assert_array_equal(u.snapshot(st.cursor), ref)
    assert report.resumed_from is None
    assert "checkpoint:no-valid-checkpoint->cold-start" in report.degradations


def test_resume_covering_whole_run_recomputes_nothing(tmp_path):
    st1, u1, kern1 = make_heat_problem((12, 12), seed=19)
    st1.run(6, kern1, checkpoint=CheckpointPolicy(dir=tmp_path, every_dt=3))
    ref = u1.snapshot(st1.cursor)

    st2, u2, kern2 = make_heat_problem((12, 12), seed=19)
    report = st2.run(6, kern2, resume_from=tmp_path)
    assert report.resumed_from == 7  # == t_end: zero blocks re-run
    assert report.base_cases == 0
    np.testing.assert_array_equal(u2.snapshot(st2.cursor), ref)


def test_checkpointed_loops_algorithm(tmp_path):
    st_ref, u_ref, kern_ref = make_heat_problem((12, 12), seed=23)
    st_ref.run(6, kern_ref)
    ref = u_ref.snapshot(st_ref.cursor)

    st, u, kern = make_heat_problem((12, 12), seed=23)
    report = st.run(
        6,
        kern,
        algorithm="serial_loops",
        checkpoint=CheckpointPolicy(dir=tmp_path, every_dt=2),
    )
    np.testing.assert_array_equal(u.snapshot(st.cursor), ref)
    assert report.checkpoints_written == 3

    st2, u2, kern2 = make_heat_problem((12, 12), seed=23)
    cp.list_checkpoints(tmp_path)[0].unlink()  # force a mid-history resume
    r2 = st2.run(6, kern2, algorithm="serial_loops", resume_from=tmp_path)
    assert r2.resumed_from == 5
    np.testing.assert_array_equal(u2.snapshot(st2.cursor), ref)
