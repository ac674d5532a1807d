"""Persistent tuned-configuration store (the ISAT role, offline).

The paper integrates the ISAT autotuner because "choosing the optimal
size of the base case can be difficult", and runs it offline because
"this autotuning process can take hours"; the shipped heuristics are
the default.  This module keeps a tune's result past its process: an
on-disk JSON store of tuned dispatch configurations.  No run reads it.
A tuned config is reused explicitly::

    result = tune_dispatch(make_problem, steps)          # offline
    store(problem, "auto", result.config)
    ...
    config = lookup(problem, "auto")                      # any process
    stencil.run(steps, kernel, **config.as_options())

Keying
------
An entry is keyed on three components, any of which invalidates it:

* the **problem signature** —
  :func:`~repro.language.stencil.problem_signature`, the one problem
  identity (it also keys the code caches, batches and checkpoints):
  ndim, grid sizes, shape cells, kernel statements, parameter values,
  per-array dtype, depth and boundary (kind *and* values), and
  const-array shapes, every float spelled exactly;
* the **backend** — a caller-chosen string, by convention the
  ``RunOptions.mode`` the config was tuned for (``"auto"`` when the
  tuner picked the codegen mode itself);
* the **machine fingerprint** — CPU count plus the C toolchain identity
  (:func:`repro.compiler.codegen_c.compiler_identity`), so a config
  tuned on another box, after a compiler upgrade, or with a toolchain
  that has since vanished is never returned.

Robustness mirrors the ``.so`` cache's discipline: the file carries a
schema version, and a file of any other schema reads as empty (see
:data:`SCHEMA_VERSION`); a corrupt file is evicted (renamed aside) and
treated as empty; individual entries that fail validation are dropped
on load; all I/O failures read as "no tuned config" — :func:`lookup`
and :func:`store` never raise.

The file lives at ``$REPRO_TUNE_REGISTRY`` or
``<tempdir>/repro_autotune/registry.json``; wipe it with
:func:`clear_registry` (or just delete the file).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from repro.language.stencil import EXECUTORS, MODES, problem_signature
from repro.resilience import degradations, faults
from repro.util import atomic_write_text, interprocess_lock

#: The layout version :func:`store` writes and the reader accepts; a file
#: of any other schema reads as empty, and the next store replaces it.
#: Unknown keys are ignored and missing knobs default to ``None`` (the
#: run's auto rule), so adding or dropping a knob needs no bump.
SCHEMA_VERSION = 4

_REGISTRY_LOCK = threading.Lock()


@dataclass(frozen=True)
class TunedConfig:
    """One tuned dispatch configuration — the full space the extended
    ISAT search covers, not just the two coarsening thresholds.

    ``mode`` is a concrete codegen mode (or ``"auto"`` meaning "no
    preference"); ``n_workers``, ``walk_threads`` and ``executor``
    ``None`` keep the run's auto rules.  :meth:`as_options` turns the
    knobs into run options.  ``best_time``/``evaluations``/
    ``tuned_unix_time`` are provenance for inspection, not options.
    """

    space_thresholds: tuple[int, ...]
    dt_threshold: int
    mode: str = "auto"
    n_workers: int | None = None
    walk_threads: int | None = None
    executor: str | None = None
    best_time: float = 0.0
    evaluations: int = 0
    tuned_unix_time: float = 0.0

    def as_options(self) -> dict[str, Any]:
        """The tuned knobs as :class:`~repro.language.stencil.RunOptions`
        keyword arguments (``Stencil.run(steps, kernel, **as_options())``)."""
        return {
            "space_thresholds": self.space_thresholds,
            "dt_threshold": self.dt_threshold,
            "mode": self.mode,
            "n_workers": self.n_workers,
            "walk_threads": self.walk_threads,
            "executor": self.executor or "auto",
        }

    def to_json(self) -> dict[str, Any]:
        d = asdict(self)
        d["space_thresholds"] = list(self.space_thresholds)
        return d

    @staticmethod
    def from_json(obj: Any) -> "TunedConfig":
        """Parse and validate one registry entry; raises on anything
        malformed (the loader turns that into entry eviction).  Keys this
        layout does not know are ignored."""
        if not isinstance(obj, dict):
            raise ValueError(f"entry is not an object: {obj!r}")
        space = tuple(int(s) for s in obj["space_thresholds"])
        if not space or any(s < 1 for s in space):
            raise ValueError(f"bad space thresholds {space}")
        dt = int(obj["dt_threshold"])
        if dt < 1:
            raise ValueError(f"bad dt threshold {dt}")
        mode = str(obj.get("mode", "auto"))
        # Also drops configs tuned for a mode that is no longer a run
        # mode (the per-point ``interp`` and ``macro_shadow``).
        if mode not in MODES:
            raise ValueError(f"bad mode {mode!r}")
        workers = obj.get("n_workers")
        if workers is not None:
            workers = int(workers)
            if workers < 1:
                raise ValueError(f"bad n_workers {workers}")
        wthreads = obj.get("walk_threads")
        if wthreads is not None:
            wthreads = int(wthreads)
            if wthreads < 1:
                raise ValueError(f"bad walk_threads {wthreads}")
        executor = obj.get("executor")
        if executor is not None:
            executor = str(executor)
            # Also drops, per entry, configs tuned for an executor that
            # no longer exists (the removed barrier-wave executor).
            if executor not in EXECUTORS:
                raise ValueError(f"bad executor {executor!r}")
        return TunedConfig(
            space_thresholds=space,
            dt_threshold=dt,
            mode=mode,
            n_workers=workers,
            walk_threads=wthreads,
            executor=executor,
            best_time=float(obj.get("best_time", 0.0)),
            evaluations=int(obj.get("evaluations", 0)),
            tuned_unix_time=float(obj.get("tuned_unix_time", 0.0)),
        )


def registry_path() -> Path:
    """Where the registry lives (``$REPRO_TUNE_REGISTRY`` overrides)."""
    override = os.environ.get("REPRO_TUNE_REGISTRY")
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / "repro_autotune" / "registry.json"


def machine_fingerprint() -> str:
    """Available CPU count + C toolchain identity: the "target" half of
    the key.

    The CPU count is affinity/cgroup-aware (:func:`detect_cpu_count`):
    a config tuned inside a 2-CPU container must not serve the same
    image granted 32 CPUs, even on identical hardware.  A missing
    compiler is itself part of the identity (``cc:none``), so a config
    tuned with the C backend available is never applied on a machine
    where ``"c"`` would fail to compile.
    """
    from repro.compiler.codegen_c import compiler_identity, find_c_compiler
    from repro.util import detect_cpu_count

    cc = find_c_compiler()
    cc_id = compiler_identity(cc) if cc else "none"
    return f"cpu{detect_cpu_count()}|cc:{cc_id}"


def registry_key(signature: str, backend: str) -> str:
    return f"{signature}|{backend}|{machine_fingerprint()}"


def _evict_corrupt(path: Path) -> None:
    """Move a damaged registry file aside (same discipline as evicting a
    truncated ``.so``): the next store starts from a clean slate and the
    corpse stays inspectable."""
    try:
        path.replace(path.with_name(path.name + ".corrupt"))
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass


def _load(path: Path) -> dict[str, dict]:
    """Entries from disk; {} on any damage (file-level eviction) or a
    schema other than :data:`SCHEMA_VERSION`.  Entry-level damage drops
    just that entry."""
    try:
        raw = path.read_text()
    except OSError:
        return {}
    if faults.fire("registry.corrupt"):
        raw = raw[: len(raw) // 2] + "\x00<injected fault: registry.corrupt>"
    try:
        doc = json.loads(raw)
    except ValueError:
        degradations.note("registry:corrupt-evicted")
        _evict_corrupt(path)
        return {}
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
        return {}
    entries = doc.get("entries")
    if not isinstance(entries, dict):
        return {}
    good: dict[str, dict] = {}
    for key, obj in entries.items():
        try:
            TunedConfig.from_json(obj)
        except (KeyError, TypeError, ValueError):
            continue
        good[key] = obj
    return good


def _dump(path: Path, entries: dict[str, dict]) -> None:
    # Durable, not just atomic: fsync the temp file and the directory
    # entry (repro.util.atomic) so a crash right after a store cannot
    # leave a zero-length or half-written registry for the next process
    # to evict.
    doc = {"schema": SCHEMA_VERSION, "entries": entries}
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def lookup(problem, backend: str) -> TunedConfig | None:
    """The tuned config for (problem, backend) on this machine, or None.

    Never raises: damage, schema drift, and fingerprint mismatch all
    read as "no tuned config".
    """
    try:
        key = registry_key(problem_signature(problem), backend)
        with _REGISTRY_LOCK:
            obj = _load(registry_path()).get(key)
        if obj is None:
            return None
        config = TunedConfig.from_json(obj)
    except Exception:
        return None
    if len(config.space_thresholds) != problem.ndim:
        # A signature collision across dimensionalities is nearly
        # impossible, but a registry hand-edit is not; never apply
        # thresholds of the wrong arity.
        return None
    return config


def store(problem, backend: str, config: TunedConfig) -> bool:
    """Persist a tuned config; returns False (never raises) on failure.

    Read-modify-write under the process lock *and* an ``fcntl.flock`` on
    a sibling lockfile, so concurrent stores — threads here or tuners in
    other processes — merge instead of last-writer-wins dropping
    entries: the re-read under the lock observes any writer that got in
    first.  Where locking is unavailable the store degrades to the old
    atomic-replace behavior: file integrity always, cross-process merge
    best-effort.
    """
    try:
        key = registry_key(problem_signature(problem), backend)
        with _REGISTRY_LOCK:
            path = registry_path()
            path.parent.mkdir(parents=True, exist_ok=True)
            with interprocess_lock(path.with_name(path.name + ".lock")):
                entries = _load(path)
                entries[key] = config.to_json()
                _dump(path, entries)
        return True
    except Exception:
        return False


def entries() -> dict[str, TunedConfig]:
    """Every valid entry currently on disk (inspection/debugging)."""
    with _REGISTRY_LOCK:
        raw = _load(registry_path())
    return {k: TunedConfig.from_json(v) for k, v in raw.items()}


def clear_registry() -> None:
    """Wipe the registry file (tests; "wipe it" in the README)."""
    with _REGISTRY_LOCK:
        try:
            registry_path().unlink()
        except OSError:
            pass
