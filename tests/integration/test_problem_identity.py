"""One problem identity: ``problem_signature`` keys the code caches,
batches, checkpoints and the autotune registry.

Two problems may share generated code, a stack, a checkpoint or a tuned
config only when they compute the same bits.  The signature therefore
carries every boundary's values and modes and spells every float
exactly: ``0.0`` is not ``-0.0``, and one NaN payload is not another.
Each test below runs twins that differ in one such detail and checks
every result bitwise against the Phase-1 interpreter.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import (
    CheckpointPolicy,
    ConstantBoundary,
    DirichletBoundary,
    Kernel,
    MixedBoundary,
    PeriodicBoundary,
    PochoirArray,
    PythonBoundary,
    RunOptions,
    SpecificationError,
    Stencil,
    run_phase1,
)
from repro.apps.heat import heat_kernel, heat_shape
from repro.apps.registry import build
from repro.compiler import pipeline
from repro.compiler.batch import batch_signature
from repro.compiler.pipeline import clear_cache
from repro.compiler.runtime_support import f64
from repro.expr.builder import where
from repro.expr.nodes import Param
from repro.language.stencil import problem_signature
from repro.serve import ServeOptions, StencilServer
from repro.trap.driver import execute_problem

from tests.conftest import ALL_MODES, has_c_backend

BATCH_MODES = ["split_pointer"] + (["c"] if has_c_backend() else [])

#: Boundary twins that differ only in a value or a mode.
BOUNDARY_TWINS = {
    "constant": (ConstantBoundary(0.0), ConstantBoundary(100.0)),
    "dirichlet": (DirichletBoundary(1.0, 0.5), DirichletBoundary(1.0, -0.25)),
    "mixed": (
        MixedBoundary(("periodic", "clamp")),
        MixedBoundary(("clamp", "periodic")),
    ),
}


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _heat(boundary, seed=0, sizes=(12, 10)):
    u = PochoirArray("u", sizes).register_boundary(boundary)
    st = Stencil(2, heat_shape(2))
    st.register_array(u)
    kern = heat_kernel(u, (0.1, 0.1))
    u.set_initial(np.random.default_rng(seed).random(sizes))
    return st, u, kern


def _heat_phase1(boundary, steps, seed=0) -> bytes:
    st, u, kern = _heat(boundary, seed)
    run_phase1(st, steps, kern)
    return _bits(u.snapshot(st.cursor))


# -- batches ------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(BOUNDARY_TWINS))
def test_boundary_twins_have_distinct_signatures(kind):
    a, b = BOUNDARY_TWINS[kind]
    st_a, _, k_a = _heat(a)
    st_b, _, k_b = _heat(b)
    pa, pb = st_a.prepare(4, k_a), st_b.prepare(4, k_b)
    assert problem_signature(pa) != problem_signature(pb)
    assert batch_signature(pa) != batch_signature(pb)


@pytest.mark.parametrize("mode", BATCH_MODES)
@pytest.mark.parametrize("kind", sorted(BOUNDARY_TWINS))
def test_local_group_of_boundary_twins_is_refused(kind, mode):
    """``execute_problem`` runs same-signature jobs only: twins are a
    caller error, refused before any grid is touched."""
    a, b = BOUNDARY_TWINS[kind]
    stencils = [_heat(a, seed=0), _heat(b, seed=1)]
    problems = [st.prepare(4, k) for st, _, k in stencils]
    before = [u.data.copy() for _, u, _ in stencils]
    with pytest.raises(SpecificationError):
        execute_problem(problems, RunOptions(mode=mode))
    for (_, u, _), data in zip(stencils, before):
        assert _bits(u.data) == _bits(data)


@pytest.mark.parametrize("mode", BATCH_MODES)
@pytest.mark.parametrize("kind", sorted(BOUNDARY_TWINS))
def test_served_boundary_twins_never_share_a_stack(kind, mode):
    steps = 6
    twins = BOUNDARY_TWINS[kind]
    jobs = [(b, seed) for b in twins for seed in (0, 1)]
    built = [_heat(b, seed) for b, seed in jobs]

    async def main():
        opts = ServeOptions(max_batch=8, batch_window=0.05, run=RunOptions(mode=mode))
        async with StencilServer(opts) as srv:
            reports = await asyncio.gather(
                *(srv.submit(st, steps, k) for st, _, k in built)
            )
        return srv, reports

    srv, reports = asyncio.run(main())
    assert srv.stats["batches"] == 2
    assert [r.batch_size for r in reports] == [2, 2, 2, 2]
    for (b, seed), (st, u, _) in zip(jobs, built):
        assert _bits(u.snapshot(st.cursor)) == _heat_phase1(b, steps, seed), (
            f"{b.describe()} seed {seed} diverged from Phase 1"
        )


# -- checkpoints --------------------------------------------------------------


def test_resume_ignores_another_boundary_values_checkpoint(tmp_path):
    steps = 10
    st0, _, k0 = _heat(ConstantBoundary(0.0), seed=1)
    st0.run(steps, k0, checkpoint=CheckpointPolicy(dir=tmp_path, every_dt=3))
    assert list(tmp_path.glob("*.rpck"))

    st1, u1, k1 = _heat(ConstantBoundary(100.0), seed=1)
    report = st1.run(steps, k1, resume_from=tmp_path)
    assert report.resumed_from is None
    assert "checkpoint:no-valid-checkpoint->cold-start" in report.degradations
    assert _bits(u1.snapshot(st1.cursor)) == _heat_phase1(
        ConstantBoundary(100.0), steps, seed=1
    )


def _snapshots(stencil) -> dict[str, bytes]:
    return {
        name: _bits(arr.snapshot(stencil.cursor))
        for name, arr in stencil.arrays.items()
    }


def test_resume_ignores_another_const_arrays_checkpoint(tmp_path):
    """Const-array values are not in the signature (batches stay
    value-free), but a checkpoint of other coefficients must not resume."""
    from repro.apps.psa import build_psa

    app0 = build_psa(10, seed=0)
    app0.stencil.run(
        app0.steps, app0.kernel, checkpoint=CheckpointPolicy(dir=tmp_path, every_dt=5)
    )
    app1 = build_psa(10, seed=1)
    report = app1.stencil.run(app1.steps, app1.kernel, resume_from=tmp_path)
    assert report.resumed_from is None
    assert "checkpoint:no-valid-checkpoint->cold-start" in report.degradations
    cold = build_psa(10, seed=1)
    cold.stencil.run(cold.steps, cold.kernel)
    assert _snapshots(app1.stencil) == _snapshots(cold.stencil)


def _edge(value: float) -> PythonBoundary:
    return PythonBoundary(lambda reader, t, *point: value, name="edge")


def test_resume_ignores_another_boundary_functions_checkpoint(tmp_path):
    """Two ``PythonBoundary`` functions of one name differ in a closure
    value: the second run must not resume the first one's checkpoint."""
    steps = 12
    st0, _, k0 = _heat(_edge(0.0), seed=2, sizes=(16, 16))
    st0.run(steps, k0, checkpoint=CheckpointPolicy(dir=tmp_path, every_dt=4))

    st1, u1, k1 = _heat(_edge(100.0), seed=2, sizes=(16, 16))
    report = st1.run(steps, k1, resume_from=tmp_path)
    assert report.resumed_from is None
    assert "checkpoint:no-valid-checkpoint->cold-start" in report.degradations
    st2, u2, k2 = _heat(_edge(100.0), seed=2, sizes=(16, 16))
    st2.run(steps, k2)
    assert _bits(u1.snapshot(st1.cursor)) == _bits(u2.snapshot(st2.cursor))

    # The same function and closure value does resume.
    st3, _, k3 = _heat(_edge(0.0), seed=2, sizes=(16, 16))
    report = st3.run(steps + 4, k3, resume_from=tmp_path)
    assert report.resumed_from == steps + 1


# -- one signature per problem ------------------------------------------------


@pytest.fixture
def digests(monkeypatch):
    """Counts every signature digest computed."""
    from repro.language import stencil

    calls = []
    real = stencil._signature_digest

    def counting(problem):
        calls.append(problem)
        return real(problem)

    monkeypatch.setattr(stencil, "_signature_digest", counting)
    return calls


def test_a_local_run_computes_its_signature_once(digests):
    st, _, kern = _heat(ConstantBoundary(0.0))
    st.run(4, kern)
    assert len(digests) == 1


def _serve(problems, mode="split_pointer"):
    async def main():
        opts = ServeOptions(
            max_batch=len(problems), batch_window=0.2, run=RunOptions(mode=mode)
        )
        async with StencilServer(opts) as srv:
            reports = await asyncio.gather(
                *(srv.submit_problem(p) for p in problems)
            )
        return srv, reports

    return asyncio.run(main())


def test_a_served_group_computes_each_signature_once(digests):
    problems = []
    for seed in range(8):
        st, _, kern = _heat(PeriodicBoundary(), seed=seed, sizes=(32, 32))
        problems.append(st.prepare(4, kern))
    srv, reports = _serve(problems)
    assert [r.batch_size for r in reports] == [8] * 8
    assert len(digests) == 8


def test_a_forged_signature_does_not_cross_the_wire(monkeypatch):
    """A submitted problem is grouped by the signature the server
    computes, whatever cached signature its pickle carries."""
    from repro.language.stencil import Problem
    from repro.serve import protocol

    st_a, _, k_a = _heat(ConstantBoundary(0.0), seed=0)
    st_b, _, k_b = _heat(ConstantBoundary(100.0), seed=1)
    real_a = st_a.prepare(4, k_a)
    forged = st_b.prepare(4, k_b)
    forged._signature = problem_signature(real_a)
    # A client whose pickle carries the cached signature.
    with monkeypatch.context() as m:
        m.setattr(Problem, "__getstate__", lambda self: dict(self.__dict__))
        payload = protocol.pack(forged)
    received = protocol.unpack(payload)
    assert getattr(received, "_signature", None) is None
    assert problem_signature(received) != problem_signature(real_a)

    srv, reports = _serve([real_a, received])
    assert srv.stats["batches"] == 2
    assert [r.batch_size for r in reports] == [1, 1]
    # A remote job's arrays are sent back raw (the server keeps no
    # cursor for them), so read the last level's slot directly.
    u = received.arrays["u"]
    got = u.data[(received.t_end - 1) % u.slots]
    assert _bits(got) == _heat_phase1(ConstantBoundary(100.0), 4, seed=1)


# -- code caches --------------------------------------------------------------

NAN_A = 0x7FF8000000000001
NAN_B = 0x7FF8000000000002


def _signed_zero(c: float, *, param: bool):
    """``u + c*u(x-1)`` over a grid of alternating -0.0 and 1.0: the sign
    of ``c`` decides the sign of every -0.0 cell after one step."""
    u = PochoirArray("u", (16,)).register_boundary(PeriodicBoundary())
    st = Stencil(1)
    st.register_array(u)
    coeff = Param("c") if param else c
    if param:
        st.set_param("c", c)
    kern = Kernel(1, lambda t, x: u(t + 1, x) << u(t, x) + coeff * u(t, x - 1))
    u.set_initial(np.tile([-0.0, 1.0], 8))
    return st, u, kern


def _nan_select(bits: int):
    """Copy a NaN constant (selected, never computed with) where the
    left neighbour exceeds 0.5."""
    u = PochoirArray("u", (16,)).register_boundary(PeriodicBoundary())
    st = Stencil(1)
    st.register_array(u)
    nan = f64(bits)
    kern = Kernel(
        1, lambda t, x: u(t + 1, x) << where(u(t, x - 1) > 0.5, nan, u(t, x))
    )
    u.set_initial(np.random.default_rng(3).random(16))
    return st, u, kern


TWIN_KERNELS = {
    "zero-const": lambda v: _signed_zero(v, param=False),
    "zero-param": lambda v: _signed_zero(v, param=True),
    "nan-payload": _nan_select,
}
TWIN_VALUES = {
    "zero-const": (0.0, -0.0),
    "zero-param": (0.0, -0.0),
    "nan-payload": (NAN_A, NAN_B),
}


@pytest.mark.parametrize("mode", ALL_MODES)
@pytest.mark.parametrize("twins", sorted(TWIN_KERNELS))
def test_float_twins_each_match_phase1(twins, mode):
    """The second twin must not run the first one's cached code."""
    clear_cache()
    make = TWIN_KERNELS[twins]
    for value in TWIN_VALUES[twins]:
        st, u, kern = make(value)
        st.run(3, kern, mode=mode)
        st_ref, u_ref, kern_ref = make(value)
        run_phase1(st_ref, 3, kern_ref)
        assert _bits(u.snapshot(st.cursor)) == _bits(
            u_ref.snapshot(st_ref.cursor)
        ), f"{twins}={value!r} under {mode}"


def _loaded(mode: str) -> int:
    return sum(key[0] == mode for key in pipeline._LOADED)


@pytest.mark.parametrize("mode", BATCH_MODES)
@pytest.mark.parametrize("site", ["constant", "fill"])
def test_nan_kernels_hit_the_code_cache(site, mode):
    """A NaN compares unequal to itself, but its spelling does not: the
    second and third identical runs load nothing new."""
    clear_cache()
    hits = []
    for _ in range(3):  # each build makes a fresh NaN object
        if site == "constant":
            st, _, kern = _nan_select(0x7FF8000000000000)
        else:
            st, _, kern = _heat(ConstantBoundary(f64(0x7FF8000000000000)))
        hits.append(st.run(2, kern, mode=mode).compile_cache_hit)
    assert hits == [False, True, True]
    assert _loaded(mode) == 1


# -- stored state -------------------------------------------------------------

#: Digests of value-free problems (periodic or Neumann boundaries, finite
#: constants) at tiny scale.  Registry entries and checkpoints written by
#: earlier versions are found under these, so they must never move.
#: heat2d has a ConstantBoundary, whose value the digest now carries.
GOLDEN = {
    "heat2dp": "0e6224b2a43c65c176b7f5e23b17c9c8",
    "apop": "5ac6933521b9a2493f94f99f114226dc",
    "life": "f74fdf0a3bf3a28e4acdd7a7269dbd20",
    "heat2d": "1fbaeee0bb90c8c88a053627fc05fa05",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_signatures(name):
    app = build(name, "tiny")
    problem = app.stencil.prepare(app.steps, app.kernel)
    assert problem_signature(problem) == GOLDEN[name]


# -- the x + 0.0 fold ---------------------------------------------------------


@pytest.mark.parametrize("mode", ALL_MODES)
@pytest.mark.parametrize("form", ["x+0", "0+x", "x+param"])
def test_adding_zero_to_negative_zero_matches_phase1(form, mode):
    """-0.0 + 0.0 is +0.0, so ``u + 0.0`` is not ``u``."""

    def make():
        u = PochoirArray("u", (8,)).register_boundary(PeriodicBoundary())
        st = Stencil(1)
        st.register_array(u)
        st.set_param("z", 0.0)
        body = {
            "x+0": lambda t, x: u(t + 1, x) << u(t, x) + 0.0,
            "0+x": lambda t, x: u(t + 1, x) << 0.0 + u(t, x),
            "x+param": lambda t, x: u(t + 1, x) << u(t, x) + Param("z"),
        }[form]
        u.set_initial(np.full(8, -0.0))
        return st, u, Kernel(1, body)

    st, u, kern = make()
    st.run(2, kern, mode=mode)
    st_ref, u_ref, kern_ref = make()
    run_phase1(st_ref, 2, kern_ref)
    got = u.snapshot(st.cursor)
    assert _bits(got) == _bits(u_ref.snapshot(st_ref.cursor))
    assert not np.signbit(got).any()
