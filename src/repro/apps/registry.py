"""App registry: build any paper benchmark by name at a scale preset.

Scales:

* ``"paper"`` — the published problem sizes (Figure 3).  Provided for
  completeness; several need tens of GB and hours in Python.
* ``"small"`` — laptop-scale defaults preserving each benchmark's
  character (grid >> cache, enough steps for temporal reuse to matter).
* ``"tiny"`` — test-suite scale (seconds even through Phase 1,
  :func:`repro.language.phase1.run_phase1`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import SpecificationError
from repro.language.kernel import Kernel
from repro.language.array import PochoirArray
from repro.language.stencil import Stencil


@dataclass
class AppInstance:
    """One ready-to-run benchmark problem.

    ``steps`` is the benchmark's step count at its scale; ``checksum``
    reads back a stable scalar from the result for cross-backend
    equality checks.
    """

    name: str
    stencil: Stencil
    kernel: Kernel
    steps: int
    result_array: str
    meta: dict = field(default_factory=dict)

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.stencil.sizes

    def run(self, **options) -> object:
        return self.stencil.run(self.steps, self.kernel, **options)

    def result(self) -> np.ndarray:
        arr = self.stencil.arrays[self.result_array]
        assert self.stencil.cursor is not None, "run the app first"
        return arr.snapshot(self.stencil.cursor)

    def checksum(self) -> float:
        return float(np.sum(self.result()))


#: name -> scale -> zero-arg builder
_REGISTRY: dict[str, dict[str, Callable[[], AppInstance]]] = {}


def register(name: str, scale: str):
    def deco(fn: Callable[[], AppInstance]):
        _REGISTRY.setdefault(name, {})[scale] = fn
        return fn

    return deco


def build(name: str, scale: str = "small", **overrides) -> AppInstance:
    """Build a registered app.  ``overrides`` pass through to the builder
    when it supports keyword customization (sizes/steps/seed)."""
    # Builders self-register on first import of their module.
    import repro.apps.heat  # noqa: F401
    import repro.apps.life  # noqa: F401
    import repro.apps.wave  # noqa: F401
    import repro.apps.lbm  # noqa: F401
    import repro.apps.rna  # noqa: F401
    import repro.apps.psa  # noqa: F401
    import repro.apps.lcs  # noqa: F401
    import repro.apps.apop  # noqa: F401
    import repro.apps.points3d  # noqa: F401

    try:
        scales = _REGISTRY[name]
    except KeyError:
        raise SpecificationError(
            f"unknown app {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    try:
        builder = scales[scale]
    except KeyError:
        raise SpecificationError(
            f"app {name!r} has no scale {scale!r}; available: {sorted(scales)}"
        ) from None
    return builder(**overrides) if overrides else builder()


def available_apps() -> list[str]:
    import repro.apps.heat  # noqa: F401
    import repro.apps.life  # noqa: F401
    import repro.apps.wave  # noqa: F401
    import repro.apps.lbm  # noqa: F401
    import repro.apps.rna  # noqa: F401
    import repro.apps.psa  # noqa: F401
    import repro.apps.lcs  # noqa: F401
    import repro.apps.apop  # noqa: F401
    import repro.apps.points3d  # noqa: F401

    return sorted(_REGISTRY)
