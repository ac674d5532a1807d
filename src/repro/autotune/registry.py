"""Persistent tuned-configuration registry (the ISAT role, productionized).

The paper integrates the ISAT autotuner because "choosing the optimal
size of the base case can be difficult" — but a tune is only worth hours
of search if its result *outlives the process*.  This module persists
tuned dispatch configurations to an on-disk JSON registry so that
``Stencil.run`` can transparently reuse a configuration tuned days ago
(or by a different process on the same machine), the way Stencil-HMLS
style frameworks apply per-(kernel, target) tuning records.

Keying
------
An entry is keyed on three components, any of which invalidates it:

* the **problem signature** — a digest of the stencil's ndim, grid
  sizes, shape cells, kernel statements, and per-array metadata
  (dtype, depth, boundary kind) plus const-array shapes;
* the **backend** — the ``RunOptions.mode`` *request* (``"auto"`` is a
  distinct key from an explicit ``"c"``: under ``"auto"`` the tuner is
  free to pick the codegen mode, under an explicit mode it is not).
  Non-TRAP walk algorithms prefix it (``"strap:auto"``) so a config
  tuned by timing TRAP never serves a STRAP run;
* the **machine fingerprint** — CPU count plus the C toolchain identity
  (:func:`repro.compiler.codegen_c.compiler_identity`), so a config
  tuned on another box, after a compiler upgrade, or with a toolchain
  that has since vanished never gets applied.

Robustness mirrors the ``.so`` cache's discipline: the registry file
carries a schema version (older layouts are read tolerantly, a newer one
reads as empty — see :data:`SCHEMA_VERSION`); a corrupt file is evicted
(renamed aside) and treated as empty; individual entries that fail
validation are dropped on load; all I/O failures degrade to "no tuned
config" — no exception from this module ever reaches ``Stencil.run``.

The file lives at ``$REPRO_TUNE_REGISTRY`` or
``<tempdir>/repro_autotune/registry.json``; wipe it with
:func:`clear_registry` (or just delete the file).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from repro.language.stencil import EXECUTORS
from repro.resilience import degradations, faults
from repro.util import atomic_write_text, interprocess_lock

#: The layout version written by :func:`store`.  The reader accepts any
#: schema from 1 up to this one: unknown keys are ignored and missing
#: knobs default to ``None``, the run's auto rule, so adding or dropping
#: a knob needs no bump.  A file from a *newer* schema reads as empty.
SCHEMA_VERSION = 4

_REGISTRY_LOCK = threading.Lock()


@dataclass(frozen=True)
class TunedConfig:
    """One tuned dispatch configuration — the full space the extended
    ISAT search covers, not just the two coarsening thresholds.

    ``mode`` is a concrete codegen mode (or ``"auto"`` meaning "no
    preference"); ``n_workers`` ``None`` keeps the run's default,
    ``walk_threads`` ``None`` keeps the run's auto rule
    (detected core count), and ``executor`` ``None`` keeps the run's
    auto rule (a tuned ``"procs"`` is applied only when the run's
    options already permit supervision).  ``best_time``/
    ``evaluations``/``tuned_unix_time`` are provenance for inspection,
    not applied to runs.
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
        if mode not in ("auto", "interp", "macro_shadow", "split_pointer", "c"):
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


def problem_signature(problem) -> str:
    """Stable digest of what makes two problems tuning-equivalent.

    Covers the stencil shape, kernel statements, grid geometry, and
    per-array storage metadata — everything that shifts the optimum.
    Deliberately excludes ``t_start``/``t_end`` (a tune at one step
    count applies to any horizon) and array *contents*.
    """
    arrays = sorted(
        (
            a.name,
            tuple(a.sizes),
            a.depth,
            str(a.data.dtype),
            a.boundary.describe() if a.boundary is not None else "none",
        )
        for a in problem.arrays.values()
    )
    consts = sorted(
        (c.name, tuple(c.sizes), str(c.values.dtype))
        for c in problem.const_arrays.values()
    )
    material = repr(
        (
            problem.ndim,
            tuple(problem.sizes),
            tuple(problem.shape.cells),
            tuple(problem.statements),
            arrays,
            consts,
            sorted(problem.params.items()),
        )
    )
    return hashlib.sha256(material.encode()).hexdigest()[:32]


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


#: (path -> (stat tag, parsed entries)): a run loop with autotune
#: enabled does one lookup per Stencil.run, and re-reading + re-parsing
#: the whole file each time could cost more than the tuned config saves
#: on tiny runs.  The (mtime_ns, size) tag invalidates on any writer —
#: this process's store() or another's.  Callers must treat the cached
#: dict as read-only (store() copies before mutating).
_LOAD_CACHE: dict[Path, tuple[tuple[int, int], dict[str, dict]]] = {}
_LOAD_CACHE_MAX = 32


def _load(path: Path) -> dict[str, dict]:
    """Entries from disk; {} on any damage (file-level eviction) or a
    schema outside ``1..SCHEMA_VERSION``.  Entry-level damage drops just
    that entry."""
    try:
        stat = path.stat()
        tag = (stat.st_mtime_ns, stat.st_size)
    except OSError:
        _LOAD_CACHE.pop(path, None)
        return {}
    cached = _LOAD_CACHE.get(path)
    if cached is not None and cached[0] == tag:
        return cached[1]
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
    if not isinstance(doc, dict) or doc.get("schema") not in range(
        1, SCHEMA_VERSION + 1
    ):
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
    if len(_LOAD_CACHE) >= _LOAD_CACHE_MAX:
        _LOAD_CACHE.clear()
    _LOAD_CACHE[path] = (tag, good)
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
    read as "no tuned config" — the caller falls back to heuristics.
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
    other processes (a server's workers all tuning at once) — merge
    instead of last-writer-wins dropping entries.  The ``_load`` cache
    tag is (mtime_ns, size), so the re-read under the lock observes any
    writer that got in first.  Where locking is unavailable the store
    degrades to the old atomic-replace behavior: file integrity always,
    cross-process merge best-effort.
    """
    try:
        key = registry_key(problem_signature(problem), backend)
        with _REGISTRY_LOCK:
            path = registry_path()
            path.parent.mkdir(parents=True, exist_ok=True)
            with interprocess_lock(path.with_name(path.name + ".lock")):
                entries = dict(_load(path))  # copy: the loaded dict may be cached
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
