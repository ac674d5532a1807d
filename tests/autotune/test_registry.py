"""The persistent tuned-config registry: correctness and robustness.

Two properties anchor this suite:

* **Equivalence** — a tuned config only moves *dispatch* knobs
  (thresholds, mode, workers), never semantics, so a run under
  any valid tuned config must be bitwise identical to the
  heuristic-default run.  Randomized configs (seeded RNG) sweep every
  registered app, every executor, and every concrete backend.
* **Robustness** — corrupt JSON, a schema-version bump, and a
  machine-fingerprint mismatch each degrade to the heuristics; no
  exception from the registry ever reaches ``Stencil.run``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest

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

    def test_local_run_reports_registry_hit(self):
        st, u, k, problem = _heat_problem()
        registry.store(problem, "auto", TunedConfig((12, 12), 3))
        report = st.run(6, k, autotune="use")
        assert report.autotune_source == "registry"
        assert report.registry_hit
        assert not st.run(6, k).registry_hit

    def test_clear_registry(self, isolated_registry):
        st, u, k, problem = _heat_problem()
        registry.store(problem, "auto", TunedConfig((12, 12), 3))
        assert isolated_registry.exists()
        registry.clear_registry()
        assert not isolated_registry.exists()
        assert registry.lookup(problem, "auto") is None


class TestRobustness:
    """Damage of every kind degrades to heuristics, never an exception."""

    def test_corrupt_json_evicted_and_run_survives(self, isolated_registry):
        isolated_registry.write_text("{ this is not json")
        st, u, k, problem = _heat_problem()
        assert registry.lookup(problem, "auto") is None
        # the corpse was moved aside, so the next store starts clean
        assert not isolated_registry.exists()
        corpse = isolated_registry.with_name(isolated_registry.name + ".corrupt")
        assert corpse.exists()
        report = st.run(6, k, autotune="use")
        assert report.autotune_source == "heuristic"

    def test_schema_version_bump_discards_entries(self, isolated_registry):
        st, u, k, problem = _heat_problem()
        registry.store(problem, "auto", TunedConfig((12, 12), 3))
        doc = json.loads(isolated_registry.read_text())
        doc["schema"] = SCHEMA_VERSION + 1
        isolated_registry.write_text(json.dumps(doc))
        assert registry.lookup(problem, "auto") is None
        report = st.run(6, k, autotune="use")
        assert report.autotune_source == "heuristic"

    def test_corrupt_entry_dropped_others_survive(self, isolated_registry):
        st, u, k, problem = _heat_problem()
        registry.store(problem, "auto", TunedConfig((12, 12), 3))
        doc = json.loads(isolated_registry.read_text())
        doc["entries"]["bogus-key"] = {"space_thresholds": "nope"}
        isolated_registry.write_text(json.dumps(doc))
        assert registry.lookup(problem, "auto") is not None
        assert "bogus-key" not in registry.entries()

    def test_wrong_arity_entry_not_applied(self):
        st, u, k, problem = _heat_problem()
        registry.store(problem, "auto", TunedConfig((8, 8, 8), 3))
        assert registry.lookup(problem, "auto") is None
        report = st.run(6, k, autotune="use")
        assert report.autotune_source == "heuristic"

    def test_unwritable_registry_never_reaches_run(self, monkeypatch, tmp_path):
        # Point the registry *file* at a directory: every read and write
        # fails with OSError, which must stay inside the registry layer.
        monkeypatch.setenv("REPRO_TUNE_REGISTRY", str(tmp_path))
        st, u, k, problem = _heat_problem()
        assert registry.store(problem, "auto", TunedConfig((12, 12), 3)) is False
        assert registry.lookup(problem, "auto") is None
        report = st.run(6, k, autotune="use")
        assert report.autotune_source == "heuristic"

    def test_registry_off_by_default(self, isolated_registry):
        st, u, k, problem = _heat_problem()
        registry.store(problem, "auto", TunedConfig((12, 12), 3))
        report = st.run(6, k)  # autotune defaults to "off"
        assert report.autotune_source == "heuristic"
        st2, u2, k2 = make_heat_problem((32, 32))
        with pytest.raises(Exception):
            st2.run(6, k2, autotune="sometimes")


class TestEquivalence:
    """Tuned configs change dispatch, never results."""

    def test_random_configs_bitwise_equal_heat(self):
        ref_st, ref_u, ref_k = make_heat_problem((32, 32))
        ref_st.run(8, ref_k)
        ref = ref_u.snapshot(ref_st.cursor)
        rng = np.random.default_rng(2026)
        for trial in range(6):
            registry.clear_registry()
            st, u, k = make_heat_problem((32, 32))
            cfg = _random_config(rng, 2, modes=["auto"] + ALL_MODES)
            registry.store(st.prepare(8, k), "auto", cfg)
            report = st.run(8, k, autotune="use")
            assert report.autotune_source == "registry", (trial, cfg)
            assert np.array_equal(u.snapshot(st.cursor), ref), (trial, cfg)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_explicit_backend_with_tuned_thresholds(self, mode):
        ref_st, ref_u, ref_k = make_heat_problem((24, 24))
        ref_st.run(6, ref_k, mode=mode)
        ref = ref_u.snapshot(ref_st.cursor)
        st, u, k = make_heat_problem((24, 24))
        registry.store(
            st.prepare(6, k), mode, TunedConfig((7, 9), 2, mode=mode)
        )
        report = st.run(6, k, mode=mode, autotune="use")
        assert report.autotune_source == "registry"
        assert report.mode == mode
        assert np.array_equal(u.snapshot(st.cursor), ref)

    @pytest.mark.parametrize("executor", ["serial", "dag"])
    def test_all_executors_under_tuned_config(self, executor):
        ref_st, ref_u, ref_k = make_heat_problem((32, 32))
        ref_st.run(8, ref_k)
        ref = ref_u.snapshot(ref_st.cursor)
        st, u, k = make_heat_problem((32, 32))
        registry.store(
            st.prepare(8, k), "auto", TunedConfig((9, 11), 2, n_workers=3)
        )
        report = st.run(8, k, executor=executor, autotune="use")
        assert report.autotune_source == "registry"
        assert np.array_equal(u.snapshot(st.cursor), ref)

    @pytest.mark.parametrize("name", available_apps())
    def test_all_apps_tuned_equals_heuristic(self, name):
        """All apps x a seeded random tuned config: bitwise equality
        against the heuristic-default run (the autotune analogue of the
        executor-equivalence safety net)."""
        ref_app = build(name, "tiny")
        ref_app.run()
        ref = ref_app.result()
        # crc32, not hash(): str hashing is salted per process, and a
        # failure must reproduce with the exact same config on rerun.
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        app = build(name, "tiny")
        problem = app.stencil.prepare(app.steps, app.kernel)
        cfg = _random_config(rng, app.stencil.ndim, modes=["auto"] + ALL_MODES)
        registry.store(problem, "auto", cfg)
        report = app.run(autotune="use")
        assert report.autotune_source == "registry", (name, cfg)
        assert np.array_equal(app.result(), ref), (name, cfg)

    def test_explicit_knobs_beat_registry(self):
        st, u, k = make_heat_problem((32, 32))
        registry.store(
            st.prepare(8, k),
            "auto",
            TunedConfig((4, 4), 1, n_workers=3),
        )
        report = st.run(
            8, k, autotune="use", mode="split_pointer", n_workers=1,
            space_thresholds=(16, 16), dt_threshold=4,
        )
        # every knob the entry covers was pinned by the caller, so the
        # registry applied nothing and must not claim the run
        assert report.autotune_source == "explicit"
        assert report.n_workers == 1

    def test_partial_pinning_still_counts_as_registry(self):
        st, u, k = make_heat_problem((32, 32))
        registry.store(st.prepare(8, k), "auto", TunedConfig((4, 4), 1))
        report = st.run(8, k, autotune="use", space_thresholds=(16, 16))
        # dt_threshold still came from the registry entry
        assert report.autotune_source == "registry"

    def test_strap_never_served_a_trap_config(self):
        st, u, k = make_heat_problem((32, 32))
        registry.store(st.prepare(8, k), "auto", TunedConfig((4, 4), 1))
        report = st.run(8, k, algorithm="strap", autotune="use")
        # strap keys on "strap:auto", so the trap entry must not apply
        assert report.autotune_source == "heuristic"


class TestTuneOnMiss:
    def test_tune_on_miss_tunes_stores_and_applies(self):
        ref_st, ref_u, ref_k = make_heat_problem((32, 32))
        ref_st.run(8, ref_k)
        ref = ref_u.snapshot(ref_st.cursor)

        st, u, k = make_heat_problem((32, 32))
        report = st.run(8, k, autotune="tune-on-miss")
        assert report.autotune_source == "tuned"
        assert np.array_equal(u.snapshot(st.cursor), ref)
        assert len(registry.entries()) == 1

        # same process, second run: served from the registry
        st2, u2, k2 = make_heat_problem((32, 32))
        report2 = st2.run(8, k2, autotune="tune-on-miss")
        assert report2.autotune_source == "registry"
        assert np.array_equal(u2.snapshot(st2.cursor), ref)

    def test_tune_on_miss_pins_no_grid(self, monkeypatch):
        """Every tuning run binds a kernel to the tuner's cloned grids;
        once the run returns, nothing in the process keeps one alive."""
        import gc
        import weakref

        from repro.autotune import isat

        refs = []
        clone_arrays = isat._clone_arrays

        def tracking(problem):
            clones = clone_arrays(problem)
            refs.extend(weakref.ref(a) for a in clones.values())
            return clones

        monkeypatch.setattr(isat, "_clone_arrays", tracking)
        st, u, k = make_heat_problem((32, 32))
        report = st.run(8, k, autotune="tune-on-miss")
        assert report.autotune_source == "tuned"
        gc.collect()
        assert refs and all(r() is None for r in refs)

    def test_tuning_leaves_user_arrays_untouched(self):
        st, u, k = make_heat_problem((32, 32))
        before = u.data.copy()
        st.prepare(0, k)  # no-op; just proves prepare alone is inert
        from repro.autotune.isat import tune_problem

        problem = st.prepare(6, k)
        result = tune_problem(problem, steps=4)
        assert result.evaluations >= 1
        assert np.array_equal(u.data, before)
        assert st.cursor is None  # tuning never advances the stencil


def _write_entries(path, schema, entries):
    path.write_text(json.dumps({"schema": schema, "entries": entries}))


class TestSchemaMigration:
    """The tolerant reader: any schema up to the current one is read,
    unknown keys are ignored, and missing knobs keep the run's auto
    rule; only a file from a *newer* schema reads as empty."""

    @pytest.mark.parametrize("old_schema", [1, 2, 3])
    def test_older_schema_file_applies(self, isolated_registry, old_schema):
        """Each older layout, with the keys it carried (schema 1 had
        ``fuse_leaves``; 2 added ``compiled_walk``; 3 ``walk_threads``),
        still applies its thresholds; the next store rewrites the file
        at the current schema."""
        st, u, k, problem = _heat_problem()
        entry = {"space_thresholds": [12, 12], "dt_threshold": 3,
                 "fuse_leaves": True}
        if old_schema >= 2:
            entry["compiled_walk"] = None
        if old_schema >= 3:
            entry["walk_threads"] = None
        key = registry.registry_key(registry.problem_signature(problem), "auto")
        _write_entries(isolated_registry, old_schema, {key: entry})
        got = registry.lookup(problem, "auto")
        assert got == TunedConfig((12, 12), 3)
        report = st.run(6, k, autotune="use")
        assert report.autotune_source == "registry"
        # the next store migrates the file forward
        registry.store(problem, "auto", TunedConfig((10, 10), 2))
        doc = json.loads(isolated_registry.read_text())
        assert doc["schema"] == SCHEMA_VERSION
        got = registry.lookup(problem, "auto")
        assert got is not None and got.space_thresholds == (10, 10)

    @pytest.mark.skipif("c" not in ALL_MODES, reason="no C compiler")
    def test_stored_fusion_and_walk_keys_are_ignored(self, isolated_registry):
        """A v4 entry tuned while leaf fusion and the compiled walk were
        still settable may carry both switched off.  The reader ignores
        them: the thresholds apply, and the C run still plans subtree
        tasks, bitwise equal to the heuristic run."""
        ref_st, ref_u, ref_k = make_heat_problem((32, 32))
        ref_st.run(8, ref_k, mode="c")
        st, u, k = make_heat_problem((32, 32))
        problem = st.prepare(8, k)
        key = registry.registry_key(registry.problem_signature(problem), "c")
        entry = {"space_thresholds": [8, 8], "dt_threshold": 2, "mode": "c",
                 "fuse_leaves": False, "compiled_walk": False}
        _write_entries(isolated_registry, 4, {key: entry})
        report = st.run(8, k, mode="c", autotune="use")
        assert report.autotune_source == "registry"
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

        report = st.run(6, k, mode="split_pointer", autotune="use")
        assert report.autotune_source == "registry"
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
        """A stored ``walk_threads`` must reach the executor: the
        RunReport's ``walk_threads`` field reflects the registry value
        when the caller leaves the knob unset, and the explicit knob
        wins when the caller pins it."""
        st, u, k = make_heat_problem((32, 32))
        problem = st.prepare(8, k)
        cfg = TunedConfig((8, 8), 2, mode="c", walk_threads=2)
        registry.store(problem, "c", cfg)
        report = st.run(8, k, mode="c", autotune="use")
        assert report.autotune_source == "registry"
        assert report.walk_threads == 2

        st2, u2, k2 = make_heat_problem((32, 32))
        registry.store(st2.prepare(8, k2), "c", cfg)
        report2 = st2.run(8, k2, mode="c", autotune="use", walk_threads=1)
        assert report2.walk_threads == 1


WTHREADS_PROCESS_SCRIPT = """
from tests.conftest import make_heat_problem
st, u, k = make_heat_problem((32, 32))
report = st.run(8, k, mode="c", autotune="use")
print("SOURCE=" + report.autotune_source)
print("WTHREADS=%d" % report.walk_threads)
"""


FRESH_PROCESS_SCRIPT = """
import numpy as np
from tests.conftest import make_heat_problem
st, u, k = make_heat_problem((32, 32))
report = st.run(8, k, autotune="use")
print("SOURCE=" + report.autotune_source)
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
        """The acceptance criterion: tune in this process, verify via
        RunReport that a *fresh* interpreter loads and applies it."""
        st, u, k = make_heat_problem((32, 32))
        report = st.run(8, k, autotune="tune-on-miss")
        assert report.autotune_source == "tuned"
        checksum = float(np.sum(u.snapshot(st.cursor)))

        proc = _run_fresh_process(FRESH_PROCESS_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert "SOURCE=registry" in proc.stdout, proc.stdout
        line = [l for l in proc.stdout.splitlines() if l.startswith("CHECKSUM=")]
        assert line and float(line[0].split("=")[1]) == pytest.approx(checksum)

    @pytest.mark.skipif("c" not in ALL_MODES, reason="no C compiler")
    def test_walk_threads_knob_roundtrips_across_processes(
        self, isolated_registry
    ):
        """The schema-3 acceptance criterion: a config carrying the new
        ``walk_threads`` knob, stored here, must load and set the pool's
        thread count in a fresh interpreter."""
        st, u, k = make_heat_problem((32, 32))
        problem = st.prepare(8, k)
        registry.store(
            problem,
            "c",
            TunedConfig((8, 8), 2, mode="c", walk_threads=2),
        )
        proc = _run_fresh_process(WTHREADS_PROCESS_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert "SOURCE=registry" in proc.stdout, proc.stdout
        assert "WTHREADS=2" in proc.stdout, proc.stdout
