"""Autotuners: ISAT-style dispatch search, the persistent tuned-config
registry, and the Berkeley-style blocked-loop comparator.

Section 4 of the paper integrates the ISAT autotuner to pick base-case
coarsening, with heuristics as the fast default; Figure 5 compares
Pochoir to the Berkeley stencil autotuner.  Both roles are reproduced,
offline: nothing here runs or is read on a run's path, and a tuned
config reaches a run only as the options its caller passes.

* :mod:`repro.autotune.isat` — coordinate descent over the coarsening
  thresholds (:func:`tune_coarsening`) and over the full dispatch space
  — per-dimension space thresholds, dt threshold, codegen mode, walk
  threads, worker count, executor (:func:`tune_dispatch`) — timing real
  TRAP runs.
* :mod:`repro.autotune.registry` — the on-disk store of tuned configs,
  keyed on (problem signature, backend, machine fingerprint):
  :func:`store` a tune's winner, :func:`lookup` it later (in any process
  on this machine), and run it with ``TunedConfig.as_options()``.
* :mod:`repro.autotune.berkeley` — a cache-blocked loop implementation
  with an exhaustive block-size search, standing in for the closed-source
  Berkeley autotuner as the Figure 5 comparator.
"""

from repro.autotune.isat import (
    CoarseningResult,
    DispatchResult,
    tune_coarsening,
    tune_dispatch,
)
from repro.autotune.berkeley import BlockedLoopResult, tune_blocked_loops
from repro.autotune.registry import (
    TunedConfig,
    clear_registry,
    lookup,
    machine_fingerprint,
    problem_signature,
    registry_path,
    store,
)

__all__ = [
    "BlockedLoopResult",
    "CoarseningResult",
    "DispatchResult",
    "TunedConfig",
    "clear_registry",
    "lookup",
    "machine_fingerprint",
    "problem_signature",
    "registry_path",
    "store",
    "tune_blocked_loops",
    "tune_coarsening",
    "tune_dispatch",
]
