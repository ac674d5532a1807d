"""Digest every generated kernel source and problem signature.

Sweeps each registered app (14) at the ``tiny`` and ``small`` scales
under seven boundaries: the app's own, and every array re-registered as
periodic, Neumann, constant, Dirichlet, mixed or a fixed-name
``PythonBoundary`` (which no backend lowers, so its kernels have no
boundary clones).  Per case it prints short sha256 digests of

* the C source (``codegen_c.generate_c_source``, boundary clones
  included exactly when the tree under test says it emits them),
* the NumPy clone sources (``pipeline.load_kernel``), and
* the problem signature (``problem_signature``).

Nothing is compiled by ``cc`` and nothing runs.  The script exits 1 when
a case of the working tree fails to lower.  Usage::

    python scripts/kernel_digests.py                 # the working tree
    python scripts/kernel_digests.py --against HEAD~1

With ``--against REF`` it runs the same sweep on ``git archive REF src``
unpacked in a temporary directory and lists only the cases whose
digests differ, then a count per digest kind.  A refactor of a backend
that must not change emitted code shows no C or NumPy difference.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALES = ("tiny", "small")
BOUNDARIES = (
    "own", "periodic", "neumann", "constant", "dirichlet", "mixed", "python"
)
KINDS = ("c", "numpy", "signature")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _python_edge(reader, t, *point) -> float:
    return 0.0


def _boundary(kind: str, ndim: int):
    from repro.language.boundary import (
        ConstantBoundary,
        DirichletBoundary,
        MixedBoundary,
        NeumannBoundary,
        PeriodicBoundary,
        PythonBoundary,
    )

    if kind == "periodic":
        return PeriodicBoundary()
    if kind == "neumann":
        return NeumannBoundary()
    if kind == "constant":
        return ConstantBoundary(0.5)
    if kind == "dirichlet":
        return DirichletBoundary(1.0, 0.25)
    if kind == "python":
        return PythonBoundary(_python_edge, name="edge")
    modes = tuple("periodic" if i % 2 == 0 else "clamp" for i in range(ndim))
    return MixedBoundary(modes)


def _case(problem) -> dict[str, str]:
    from repro.compiler import codegen_c, pipeline
    from repro.compiler.frontend import build_ir

    try:
        from repro.language.stencil import problem_signature
    except ImportError:  # trees where the registry owned the signature
        from repro.autotune.registry import problem_signature

    out = {"signature": problem_signature(problem)}
    ir = build_ir(problem)
    try:
        boundary_ok = ir.boundary_expressible
    except AttributeError:  # trees where the NumPy backend decided it
        from repro.compiler.codegen_numpy import is_vectorizable_boundary

        boundary_ok = all(
            is_vectorizable_boundary(a.boundary) for a in ir.arrays.values()
        )
    out["c"] = _digest(codegen_c.generate_c_source(ir, include_boundary=boundary_ok))
    clones, _ = pipeline.load_kernel(ir, "split_pointer")
    out["numpy"] = _digest(
        "\n".join(f"# {name}\n{clones[name][0]}" for name in sorted(clones))
    )
    return out


def sweep() -> dict[str, dict[str, str]]:
    """Case name -> digest kind -> digest, for the ``repro`` on sys.path."""
    from repro.apps.registry import available_apps, build

    results: dict[str, dict[str, str]] = {}
    for name in available_apps():
        for scale in SCALES:
            app = build(name, scale)
            arrays = app.stencil.arrays.values()
            own = {a.name: a.boundary for a in arrays}
            for kind in BOUNDARIES:
                for a in arrays:
                    a.register_boundary(
                        own[a.name] if kind == "own" else _boundary(kind, a.ndim)
                    )
                case = f"{name}/{scale}/{kind}"
                try:
                    results[case] = _case(app.stencil.prepare(app.steps, app.kernel))
                except Exception as exc:  # a case the tree cannot lower
                    results[case] = {k: f"error:{type(exc).__name__}" for k in KINDS}
            del app, arrays, own  # free the grids before the next build
    return results


def _sweep_tree(src: Path) -> dict[str, dict[str, str]]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, __file__, "--json"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def _archive(ref: str, dest: Path) -> Path:
    blob = subprocess.run(
        ["git", "archive", ref, "src"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="REF", help="git ref to compare with")
    ap.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.json:
        json.dump(sweep(), sys.stdout)
        return 0

    head = _sweep_tree(ROOT / "src")
    failed = [case for case, d in head.items() if d["c"].startswith("error:")]
    for case in failed:
        print(f"{case:32s} fails to lower: {head[case]['c']}")
    if not args.against:
        for case, d in head.items():
            print(f"{case:32s} " + " ".join(f"{k}={d[k][:12]}" for k in KINDS))
        return 1 if failed else 0

    with tempfile.TemporaryDirectory() as tmp:
        base = _sweep_tree(_archive(args.against, Path(tmp)))
    changed = {k: 0 for k in KINDS}
    for case in sorted(set(head) | set(base)):
        old, new = base.get(case), head.get(case)
        if old is None or new is None:
            print(f"{case:32s} only in {'the tree' if old is None else args.against}")
            continue
        diff = [k for k in KINDS if old[k] != new[k]]
        for k in diff:
            changed[k] += 1
        if diff:
            print(f"{case:32s} differs: {', '.join(diff)}")
    print(
        f"{len(head)} cases against {args.against}: "
        + ", ".join(f"{k} changed in {n}" for k, n in changed.items())
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
