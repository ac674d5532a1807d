"""A run is configured by its options alone.

Tuning is offline: no run, local or served, reads the tuned-config
registry or imports the tuners, and ``mode="auto"`` resolves to a
backend once per run, so the layers below it never probe the toolchain
again.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys

import pytest

from repro.apps.heat import build_heat
from repro.serve import ServeOptions, StencilServer

RUN_PATH_SCRIPT = """
import sys
from repro.apps.heat import build_heat
from repro.serve import LoopbackServer, ServeOptions, StencilClient

build_heat((16, 16), 4, seed=0).run()
app = build_heat((16, 16), 4, seed=1)
with LoopbackServer(ServeOptions(max_batch=1)) as loop:
    report = StencilClient(loop.host, loop.port).submit(
        app.stencil, app.steps, app.kernel
    )
print("TRANSPORT=" + report.transport)
print("AUTOTUNE=" + ",".join(m for m in sys.modules if m.startswith("repro.autotune")))
"""


def test_the_run_path_never_imports_the_autotuners(tmp_path):
    root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_TUNE_REGISTRY"] = str(tmp_path / "registry.json")
    proc = subprocess.run(
        [sys.executable, "-c", RUN_PATH_SCRIPT],
        capture_output=True, text=True, env=env, cwd=root, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "TRANSPORT=tcp" in proc.stdout, proc.stdout
    assert "AUTOTUNE=\n" in proc.stdout, proc.stdout


@pytest.fixture
def toolchain_probes(monkeypatch):
    """Counts every ``find_c_compiler`` call (each walks ``PATH``)."""
    from repro.compiler import codegen_c

    calls = []
    real = codegen_c.find_c_compiler

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(codegen_c, "find_c_compiler", counting)
    return calls


def test_a_local_default_run_probes_the_toolchain_at_most_twice(toolchain_probes):
    build_heat((32, 32), 8, seed=0).run()  # loads the kernel
    toolchain_probes.clear()
    build_heat((32, 32), 8, seed=1).run()
    # One to resolve "auto", one for the loaded library's key.
    assert len(toolchain_probes) <= 2


def _serve_group(seeds):
    apps = [build_heat((32, 32), 8, seed=s) for s in seeds]

    async def main():
        opts = ServeOptions(max_batch=len(apps), batch_window=0.2)
        async with StencilServer(opts) as srv:
            return await asyncio.gather(
                *(srv.submit(a.stencil, a.steps, a.kernel) for a in apps)
            )

    return asyncio.run(main())


def test_a_served_group_probes_the_toolchain_at_most_twice(toolchain_probes):
    _serve_group(range(8))  # loads the kernel
    toolchain_probes.clear()
    reports = _serve_group(range(8, 16))
    assert [r.batch_size for r in reports] == [8] * 8
    assert len(toolchain_probes) <= 2
