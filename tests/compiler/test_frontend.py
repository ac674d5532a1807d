"""Tests for the compiler frontend (IR lowering)."""

import pytest

from repro.compiler.frontend import build_ir
from repro.errors import CompileError
from repro.expr.nodes import Const, Param
from tests.conftest import make_heat_problem


def test_ir_basic_fields():
    st_, u, k = make_heat_problem((8, 10))
    ir = build_ir(st_.prepare(2, k))
    assert ir.ndim == 2
    assert ir.sizes == (8, 10)
    assert ir.write_arrays == ("u",)
    assert ir.min_off == (-1, -1)
    assert ir.max_off == (1, 1)
    assert ir.depth == 1
    (info,) = ir.array_infos
    assert info.name == "u"
    assert info.slots == 2
    assert set(info.dts) == {-1, 0}


def test_params_substituted_and_folded():
    import numpy as np
    from repro import Kernel, PeriodicBoundary, PochoirArray, Stencil

    u = PochoirArray("u", (8,)).register_boundary(PeriodicBoundary())
    st_ = Stencil(1)
    st_.register_array(u)
    k = Kernel(1, lambda t, x: u(t + 1, x) << u(t, x) * Param("a") + Param("b"))
    u.set_initial(np.zeros(8))
    st_.set_param("a", 2.0)
    st_.set_param("b", 3.0)
    ir = build_ir(st_.prepare(1, k))
    assert not ir.unbound_params
    # Params are gone from the statements.
    from repro.expr.analysis import walk

    for stmt in ir.statements:
        for node in walk(stmt.expr):
            assert not isinstance(node, Param)


def test_unbound_params_reported():
    import numpy as np
    from repro import Kernel, PeriodicBoundary, PochoirArray, Stencil

    u = PochoirArray("u", (8,)).register_boundary(PeriodicBoundary())
    st_ = Stencil(1)
    st_.register_array(u)
    k = Kernel(1, lambda t, x: u(t + 1, x) << u(t, x) * Param("gamma"))
    u.set_initial(np.zeros(8))
    ir = build_ir(st_.prepare(1, k))
    assert ir.unbound_params == {"gamma"}


def test_cache_key_stable_and_distinct():
    """The code caches key on ``ir.signature``."""
    st1, _, k1 = make_heat_problem((8, 8))
    st2, _, k2 = make_heat_problem((8, 8))
    ir1 = build_ir(st1.prepare(1, k1))
    ir2 = build_ir(st2.prepare(1, k2))
    assert ir1.signature == ir2.signature  # same program, any grid contents

    st3, _, k3 = make_heat_problem((8, 16))
    ir3 = build_ir(st3.prepare(1, k3))
    assert ir3.signature != ir1.signature  # sizes are baked into code


def test_boundary_kind_in_cache_key():
    st1, _, k1 = make_heat_problem((8, 8), boundary="periodic")
    st2, _, k2 = make_heat_problem((8, 8), boundary="neumann")
    ir1 = build_ir(st1.prepare(1, k1))
    ir2 = build_ir(st2.prepare(1, k2))
    assert ir1.signature != ir2.signature
