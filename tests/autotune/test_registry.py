"""The offline tuned-config store: correctness and robustness.

Three properties anchor this suite:

* **Equivalence** — a tuned config only moves *dispatch* knobs
  (thresholds, mode, workers), never semantics, so a run under any
  valid tuned config, passed explicitly as options
  (``TunedConfig.as_options()``), is bitwise identical to the
  heuristic-default run.  Randomized configs (seeded RNG) sweep every
  registered app, every executor, and every concrete backend.
* **Robustness** — corrupt JSON, a schema mismatch, and a
  machine-fingerprint mismatch each read as "no tuned config"; no
  exception from the registry ever reaches its caller.
* **Isolation** — no run reads the registry: a stored entry, or a
  damaged file, leaves a run and the file exactly as they were.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest

from repro import RunOptions
from repro.apps import available_apps, build
from repro.autotune import registry
from repro.autotune.registry import SCHEMA_VERSION, TunedConfig
from tests.conftest import ALL_MODES, make_heat_problem

pytestmark = pytest.mark.usefixtures("isolated_registry")


@pytest.fixture
def isolated_registry(tmp_path, monkeypatch):
    """Every test gets a private registry file."""
    path = tmp_path / "registry.json"
    monkeypatch.setenv("REPRO_TUNE_REGISTRY", str(path))
    return path


def _heat_problem(sizes=(32, 32), steps=6):
    st, u, k = make_heat_problem(sizes)
    return st, u, k, st.prepare(steps, k)


def _random_config(rng, ndim, *, modes=("auto",)) -> TunedConfig:
    return TunedConfig(
        space_thresholds=tuple(int(rng.integers(3, 20)) for _ in range(ndim)),
        dt_threshold=int(rng.integers(1, 6)),
        mode=str(rng.choice(list(modes))),
        n_workers=int(rng.integers(1, 4)),
    )


class TestTunedConfig:
    def test_json_roundtrip(self):
        cfg = TunedConfig(
            space_thresholds=(128, 64),
            dt_threshold=16,
            mode="c",
            n_workers=3,
            best_time=0.25,
            evaluations=17,
            tuned_unix_time=1.5e9,
        )
        assert TunedConfig.from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize(
        "broken",
        [
            "not a dict",
            {},
            {"space_thresholds": [], "dt_threshold": 4},
            {"space_thresholds": [0, 8], "dt_threshold": 4},
            {"space_thresholds": [8, 8], "dt_threshold": 0},
            {"space_thresholds": [8], "dt_threshold": 2, "mode": "cuda"},
            {"space_thresholds": [8], "dt_threshold": 2, "n_workers": 0},
        ],
    )
    def test_malformed_entries_rejected(self, broken):
        with pytest.raises((KeyError, TypeError, ValueError)):
            TunedConfig.from_json(broken)

    def test_as_options_are_run_options(self):
        cfg = TunedConfig((12, 10), 3, mode="split_pointer", n_workers=2,
                          walk_threads=1, executor="dag")
        opts = RunOptions(**cfg.as_options())
        assert (opts.space_thresholds, opts.dt_threshold, opts.mode) == (
            (12, 10), 3, "split_pointer"
        )
        assert (opts.n_workers, opts.walk_threads, opts.executor) == (2, 1, "dag")
        # Unset knobs keep the run's auto rules.
        assert RunOptions(**TunedConfig((8, 8), 2).as_options()) == RunOptions(
            space_thresholds=(8, 8), dt_threshold=2
        )


class TestStoreLookup:
    def test_roundtrip(self):
        st, u, k, problem = _heat_problem()
        cfg = TunedConfig(space_thresholds=(12, 12), dt_threshold=3)
        assert registry.store(problem, "auto", cfg)
        got = registry.lookup(problem, "auto")
        assert got is not None
        assert got.space_thresholds == (12, 12)
        assert got.dt_threshold == 3

    def test_miss_on_different_backend(self):
        st, u, k, problem = _heat_problem()
        registry.store(problem, "auto", TunedConfig((12, 12), 3))
        assert registry.lookup(problem, "split_pointer") is None

    def test_miss_on_different_problem(self):
        _, _, _, p_a = _heat_problem((32, 32))
        _, _, _, p_b = _heat_problem((32, 31))
        registry.store(p_a, "auto", TunedConfig((12, 12), 3))
        assert registry.lookup(p_b, "auto") is None

    def test_miss_on_fingerprint_change(self, monkeypatch):
        st, u, k, problem = _heat_problem()
        registry.store(problem, "auto", TunedConfig((12, 12), 3))
        monkeypatch.setattr(
            registry, "machine_fingerprint", lambda: "cpu999|cc:other-box"
        )
        assert registry.lookup(problem, "auto") is None

    def test_signature_ignores_time_window_and_data(self):
        st, u, k = make_heat_problem((32, 32))
        sig_a = registry.problem_signature(st.prepare(4, k))
        u.set_initial(np.ones((32, 32)))
        sig_b = registry.problem_signature(st.prepare(9, k))
        assert sig_a == sig_b

    def test_clear_registry(self, isolated_registry):
        st, u, k, problem = _heat_problem()
        registry.store(problem, "auto", TunedConfig((12, 12), 3))
        assert isolated_registry.exists()
        registry.clear_registry()
        assert not isolated_registry.exists()
        assert registry.lookup(problem, "auto") is None


class TestRobustness:
    """Damage of every kind reads as "no tuned config", never an
    exception."""

    def test_corrupt_json_evicted_and_run_survives(self, isolated_registry):
        isolated_registry.write_text("{ this is not json")
        st, u, k, problem = _heat_problem()
        # A run never reads the file, so it neither notes nor evicts it.
        report = st.run(6, k)
        assert not [t for t in report.degradations if t.startswith("registry")]
        assert isolated_registry.read_text() == "{ this is not json"
        assert registry.lookup(problem, "auto") is None
        # the corpse was moved aside, so the next store starts clean
        assert not isolated_registry.exists()
        corpse = isolated_registry.with_name(isolated_registry.name + ".corrupt")
        assert corpse.exists()

    def test_schema_version_bump_discards_entries(self, isolated_registry):
        st, u, k, problem = _heat_problem()
        registry.store(problem, "auto", TunedConfig((12, 12), 3))
        doc = json.loads(isolated_registry.read_text())
        doc["schema"] = SCHEMA_VERSION + 1
        isolated_registry.write_text(json.dumps(doc))
        assert registry.lookup(problem, "auto") is None
        assert registry.entries() == {}

    def test_corrupt_entry_dropped_others_survive(self, isolated_registry):
        st, u, k, problem = _heat_problem()
        registry.store(problem, "auto", TunedConfig((12, 12), 3))
        doc = json.loads(isolated_registry.read_text())
        doc["entries"]["bogus-key"] = {"space_thresholds": "nope"}
        isolated_registry.write_text(json.dumps(doc))
        assert registry.lookup(problem, "auto") is not None
        assert "bogus-key" not in registry.entries()

    @pytest.mark.parametrize("mode", ["interp", "macro_shadow"])
    def test_entry_for_a_removed_mode_is_evicted(
        self, isolated_registry, mode
    ):
        """The per-point modes are no longer run modes: an entry naming
        one reads as no entry (it never reaches ``as_options``, whose
        ``RunOptions`` would refuse it), and the next store drops it."""
        st, u, k, problem = _heat_problem()
        registry.store(problem, "auto", TunedConfig((12, 12), 3))
        doc = json.loads(isolated_registry.read_text())
        (key,) = doc["entries"]
        doc["entries"][key]["mode"] = mode
        isolated_registry.write_text(json.dumps(doc))
        assert registry.lookup(problem, "auto") is None
        assert registry.entries() == {}
        _, _, _, other = _heat_problem((32, 31))
        assert registry.store(other, "auto", TunedConfig((8, 8), 2))
        kept = json.loads(isolated_registry.read_text())["entries"]
        assert key not in kept and len(kept) == 1

    def test_wrong_arity_entry_not_applied(self):
        st, u, k, problem = _heat_problem()
        registry.store(problem, "auto", TunedConfig((8, 8, 8), 3))
        assert registry.lookup(problem, "auto") is None

    def test_unwritable_registry_never_reaches_run(self, monkeypatch, tmp_path):
        # Point the registry *file* at a directory: every read and write
        # fails with OSError, which must stay inside the registry layer.
        monkeypatch.setenv("REPRO_TUNE_REGISTRY", str(tmp_path))
        st, u, k, problem = _heat_problem()
        assert registry.store(problem, "auto", TunedConfig((12, 12), 3)) is False
        assert registry.lookup(problem, "auto") is None
        report = st.run(6, k)
        assert report.points_updated == problem.total_points

    def test_registry_off_by_default(self, isolated_registry):
        """A stored entry changes nothing about a run: it is not a run
        option, and there is no option that reads it."""
        ref_st, ref_u, ref_k = make_heat_problem((32, 32))
        ref = ref_st.run(6, ref_k)
        st, u, k, problem = _heat_problem()
        registry.store(
            problem, "auto", TunedConfig((12, 12), 3, mode="split_pointer")
        )
        before = isolated_registry.read_bytes()
        report = st.run(6, k)
        assert (report.mode, report.base_cases) == (ref.mode, ref.base_cases)
        assert isolated_registry.read_bytes() == before
        with pytest.raises(TypeError):
            st.run(6, k, autotune="use")


class TestEquivalence:
    """Tuned configs change dispatch, never results."""

    def test_random_configs_bitwise_equal_heat(self):
        ref_st, ref_u, ref_k = make_heat_problem((32, 32))
        ref_st.run(8, ref_k)
        ref = ref_u.snapshot(ref_st.cursor)
        rng = np.random.default_rng(2026)
        for trial in range(6):
            st, u, k = make_heat_problem((32, 32))
            cfg = _random_config(rng, 2, modes=["auto"] + ALL_MODES)
            st.run(8, k, **cfg.as_options())
            assert np.array_equal(u.snapshot(st.cursor), ref), (trial, cfg)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_explicit_backend_with_tuned_thresholds(self, mode):
        ref_st, ref_u, ref_k = make_heat_problem((24, 24))
        ref_st.run(6, ref_k, mode=mode)
        ref = ref_u.snapshot(ref_st.cursor)
        st, u, k = make_heat_problem((24, 24))
        report = st.run(6, k, **TunedConfig((7, 9), 2, mode=mode).as_options())
        assert report.mode == mode
        assert np.array_equal(u.snapshot(st.cursor), ref)

    @pytest.mark.parametrize("executor", ["serial", "dag"])
    def test_all_executors_under_tuned_config(self, executor):
        ref_st, ref_u, ref_k = make_heat_problem((32, 32))
        ref_st.run(8, ref_k)
        ref = ref_u.snapshot(ref_st.cursor)
        st, u, k = make_heat_problem((32, 32))
        cfg = TunedConfig((9, 11), 2, n_workers=3)
        report = st.run(8, k, **{**cfg.as_options(), "executor": executor})
        assert report.executor == executor
        assert np.array_equal(u.snapshot(st.cursor), ref)

    @pytest.mark.parametrize("name", available_apps())
    def test_all_apps_tuned_equals_heuristic(self, name):
        """All apps x a seeded random tuned config, stored, looked up and
        passed as options: bitwise equality against the heuristic-default
        run (the autotune analogue of the executor-equivalence net)."""
        ref_app = build(name, "tiny")
        ref_app.run()
        ref = ref_app.result()
        # crc32, not hash(): str hashing is salted per process, and a
        # failure must reproduce with the exact same config on rerun.
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        app = build(name, "tiny")
        problem = app.stencil.prepare(app.steps, app.kernel)
        cfg = _random_config(rng, app.stencil.ndim, modes=["auto"] + ALL_MODES)
        assert registry.store(problem, "auto", cfg)
        tuned = registry.lookup(problem, "auto")
        assert tuned == cfg
        app.run(**tuned.as_options())
        assert np.array_equal(app.result(), ref), (name, cfg)


def _write_entries(path, schema, entries):
    path.write_text(json.dumps({"schema": schema, "entries": entries}))


class TestSchemaMigration:
    """There is no migration: only the current schema is read (unknown
    keys ignored, missing knobs kept at the run's auto rule), and a file
    of any other schema reads as empty until the next store replaces
    it."""

    @pytest.mark.parametrize("old_schema", [1, 2, 3])
    def test_older_schema_file_reads_as_empty(self, isolated_registry, old_schema):
        """Each older layout, with the keys it carried (schema 1 had
        ``fuse_leaves``; 2 added ``compiled_walk``; 3 ``walk_threads``),
        reads as empty; the next store rewrites the file at the current
        schema, without the old entry."""
        st, u, k, problem = _heat_problem()
        entry = {"space_thresholds": [12, 12], "dt_threshold": 3,
                 "fuse_leaves": True}
        if old_schema >= 2:
            entry["compiled_walk"] = None
        if old_schema >= 3:
            entry["walk_threads"] = None
        key = registry.registry_key(registry.problem_signature(problem), "auto")
        _write_entries(isolated_registry, old_schema, {key: entry})
        assert registry.lookup(problem, "auto") is None
        assert registry.entries() == {}
        registry.store(problem, "c", TunedConfig((10, 10), 2))
        doc = json.loads(isolated_registry.read_text())
        assert doc["schema"] == SCHEMA_VERSION
        assert key not in doc["entries"]
        assert registry.lookup(problem, "c") == TunedConfig((10, 10), 2)

    @pytest.mark.skipif("c" not in ALL_MODES, reason="no C compiler")
    def test_stored_fusion_and_walk_keys_are_ignored(self, isolated_registry):
        """A v4 entry tuned while leaf fusion and the compiled walk were
        still settable may carry both switched off.  The reader ignores
        them: a C run under the looked-up config still plans subtree
        tasks, bitwise equal to the heuristic run."""
        ref_st, ref_u, ref_k = make_heat_problem((32, 32))
        ref_st.run(8, ref_k, mode="c")
        st, u, k = make_heat_problem((32, 32))
        problem = st.prepare(8, k)
        key = registry.registry_key(registry.problem_signature(problem), "c")
        entry = {"space_thresholds": [8, 8], "dt_threshold": 2, "mode": "c",
                 "fuse_leaves": False, "compiled_walk": False}
        _write_entries(isolated_registry, 4, {key: entry})
        tuned = registry.lookup(problem, "c")
        assert tuned == TunedConfig((8, 8), 2, mode="c")
        report = st.run(8, k, **tuned.as_options())
        assert report.subtree_tasks > 0
        assert np.array_equal(
            u.snapshot(st.cursor), ref_u.snapshot(ref_st.cursor)
        )

    def test_removed_executor_entry_dropped_without_schema_bump(
        self, isolated_registry
    ):
        """A v4 file written while the barrier-wave executor existed
        stays readable: its ``"threads"`` entry is dropped on its own,
        the neighboring ``"dag"`` entry still applies, and the next store
        rewrites the file without the dead entry."""
        st, u, k, problem = _heat_problem()
        sig = registry.problem_signature(problem)

        def entry(executor):
            return {
                "space_thresholds": [12, 12],
                "dt_threshold": 3,
                "n_workers": 2,
                "executor": executor,
            }

        threads_key = registry.registry_key(sig, "auto")
        dag_key = registry.registry_key(sig, "split_pointer")
        _write_entries(
            isolated_registry,
            4,
            {threads_key: entry("threads"), dag_key: entry("dag")},
        )
        assert SCHEMA_VERSION == 4
        assert registry.lookup(problem, "auto") is None
        got = registry.lookup(problem, "split_pointer")
        assert got is not None and got.executor == "dag"
        assert list(registry.entries()) == [dag_key]

        report = st.run(6, k, **got.as_options())
        assert report.executor == "dag"

        registry.store(problem, "c", TunedConfig((10, 10), 2))
        doc = json.loads(isolated_registry.read_text())
        assert threads_key not in doc["entries"]
        assert dag_key in doc["entries"]

    def test_walk_threads_roundtrips_through_json(self):
        """The schema-3 knob survives serialization for every shape it
        can take: unset (defer to the run's auto rule), explicit serial,
        and an explicit thread count."""
        for wt in (None, 1, 4):
            cfg = TunedConfig((8, 8), 2, walk_threads=wt)
            assert TunedConfig.from_json(cfg.to_json()).walk_threads == wt

    def test_walk_threads_roundtrips_through_store(self):
        st, u, k, problem = _heat_problem()
        registry.store(
            problem, "auto", TunedConfig((12, 12), 3, walk_threads=2)
        )
        got = registry.lookup(problem, "auto")
        assert got is not None and got.walk_threads == 2

    @pytest.mark.parametrize("bad", [0, -1, "two"])
    def test_bad_walk_threads_rejected(self, bad):
        """A thread count below 1 (or a non-integer) can never steer the
        pool; such entries are evicted at parse time like any other
        malformed field."""
        with pytest.raises((TypeError, ValueError)):
            TunedConfig.from_json(
                {
                    "space_thresholds": [8, 8],
                    "dt_threshold": 2,
                    "walk_threads": bad,
                }
            )

    @pytest.mark.skipif("c" not in ALL_MODES, reason="no C compiler")
    def test_tuned_walk_threads_reaches_the_report(self):
        """A tuned ``walk_threads`` passed as options reaches the
        executor: the RunReport's ``walk_threads`` is the config's, and
        bitwise equal to a one-thread run of the same config."""
        cfg = TunedConfig((8, 8), 2, mode="c", walk_threads=2)
        st, u, k = make_heat_problem((32, 32))
        report = st.run(8, k, **cfg.as_options())
        assert report.subtree_tasks > 0
        assert report.walk_threads == 2

        st2, u2, k2 = make_heat_problem((32, 32))
        report2 = st2.run(8, k2, **{**cfg.as_options(), "walk_threads": 1})
        assert report2.walk_threads == 1
        assert np.array_equal(u.snapshot(st.cursor), u2.snapshot(st2.cursor))


WTHREADS_PROCESS_SCRIPT = """
from repro.autotune import registry
from tests.conftest import make_heat_problem
st, u, k = make_heat_problem((32, 32))
tuned = registry.lookup(st.prepare(8, k), "c")
report = st.run(8, k, **tuned.as_options())
print("WTHREADS=%d" % report.walk_threads)
"""


FRESH_PROCESS_SCRIPT = """
import numpy as np
from repro.autotune import registry
from tests.conftest import make_heat_problem
st, u, k = make_heat_problem((32, 32))
tuned = registry.lookup(st.prepare(8, k), "auto")
print("TUNED=%r" % (tuned,))
st.run(8, k, **tuned.as_options())
print("CHECKSUM=%.17g" % float(np.sum(u.snapshot(st.cursor))))
"""


def _run_fresh_process(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter rooted at the repo (the
    registry path travels in the inherited environment)."""
    root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        timeout=120,
    )


class TestCrossProcess:
    def test_config_tuned_here_applies_in_a_fresh_process(
        self, isolated_registry
    ):
        """Tune and store in this process; a *fresh* interpreter looks
        the config up and runs under it, with the same result."""
        from repro.autotune import tune_dispatch
        from repro.compiler.pipeline import resolve_mode

        def make():
            st_, _, k_ = make_heat_problem((32, 32))
            return st_, k_

        result = tune_dispatch(
            make, 8, modes=(resolve_mode("auto"),), space_candidates=(8, 16),
            dt_candidates=(2, 4), worker_candidates=(1,),
            wthreads_candidates=(1,), max_sweeps=1,
        )
        st, u, k = make_heat_problem((32, 32))
        assert registry.store(st.prepare(8, k), "auto", result.config)
        st.run(8, k, **result.config.as_options())
        checksum = float(np.sum(u.snapshot(st.cursor)))

        proc = _run_fresh_process(FRESH_PROCESS_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert f"TUNED={result.config!r}" in proc.stdout, proc.stdout
        line = [l for l in proc.stdout.splitlines() if l.startswith("CHECKSUM=")]
        assert line and float(line[0].split("=")[1]) == checksum

    @pytest.mark.skipif("c" not in ALL_MODES, reason="no C compiler")
    def test_walk_threads_knob_roundtrips_across_processes(
        self, isolated_registry
    ):
        """A config carrying ``walk_threads``, stored here, loads in a
        fresh interpreter and sets the pool's thread count there."""
        st, u, k = make_heat_problem((32, 32))
        problem = st.prepare(8, k)
        registry.store(
            problem,
            "c",
            TunedConfig((8, 8), 2, mode="c", walk_threads=2),
        )
        proc = _run_fresh_process(WTHREADS_PROCESS_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert "WTHREADS=2" in proc.stdout, proc.stdout
