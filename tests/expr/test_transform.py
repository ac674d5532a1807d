"""Tests for constant folding, parameter substitution and time shifting."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.expr.builder import where
from repro.expr.evalexpr import EvalEnv, eval_expr
from repro.expr.nodes import (
    BinOp,
    Call,
    Const,
    GridRead,
    Param,
    UnOp,
    Where,
)
from repro.expr.transform import (
    collect_params,
    count_nodes,
    cse_statements,
    fold_constants,
    shift_time,
    substitute_params,
)
from repro.expr.nodes import Assign, GridWrite, Let, LocalRead


def _const_env():
    return EvalEnv(
        t=0,
        point=(0,),
        read=lambda *_: 0.0,
        write=lambda *_: None,
    )


class TestFoldConstants:
    @pytest.mark.parametrize(
        "op,expect",
        [("+", 5.0), ("-", -1.0), ("*", 6.0), ("/", 2.0 / 3.0),
         ("min", 2.0), ("max", 3.0), ("**", 8.0)],
    )
    def test_binops_fold(self, op, expect):
        e = fold_constants(BinOp(op, Const(2.0), Const(3.0)))
        assert e == Const(expect)

    def test_fmod_folds(self):
        e = fold_constants(BinOp("%", Const(7.0), Const(3.0)))
        assert e == Const(math.fmod(7.0, 3.0))

    def test_division_by_zero_not_folded(self):
        e = fold_constants(BinOp("/", Const(1.0), Const(0.0)))
        assert isinstance(e, BinOp)  # preserved for runtime semantics

    def test_unop_folds(self):
        assert fold_constants(UnOp("neg", Const(2.0))) == Const(-2.0)
        assert fold_constants(UnOp("abs", Const(-2.0))) == Const(2.0)

    def test_call_folds(self):
        e = fold_constants(Call("sqrt", (Const(4.0),)))
        assert e == Const(2.0)

    def test_call_domain_error_not_folded(self):
        e = fold_constants(Call("sqrt", (Const(-1.0),)))
        assert isinstance(e, Call)

    def test_where_const_cond_folds(self):
        g = GridRead("u", -1, (0,))
        assert fold_constants(Where(Const(1.0), g, Const(9.0))) == g
        assert fold_constants(Where(Const(0.0), g, Const(9.0))) == Const(9.0)

    def test_identity_add_zero(self):
        """``x + 0.0`` is not an identity: -0.0 + 0.0 is +0.0, so it is
        never folded to ``x``."""
        g = GridRead("u", -1, (0,))
        assert fold_constants(g + 0.0) == BinOp("+", g, Const(0.0))
        assert fold_constants(0.0 + g) == BinOp("+", Const(0.0), g)

    def test_identity_mul_one(self):
        g = GridRead("u", -1, (0,))
        assert fold_constants(g * 1.0) == g
        assert fold_constants(1.0 * g) == g

    def test_nested_folding(self):
        e = fold_constants((Const(2.0) + Const(3.0)) * (Const(1.0) + Const(1.0)))
        assert e == Const(10.0)

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.sampled_from(["+", "-", "*", "min", "max"]),
    )
    def test_folding_matches_evaluation(self, a, b, op):
        e = BinOp(op, Const(a), Const(b))
        folded = fold_constants(e)
        assert isinstance(folded, Const)
        assert folded.value == eval_expr(e, _const_env())


class TestSubstituteParams:
    def test_bound_param_becomes_const(self):
        e = substitute_params(Param("alpha") + Const(1.0), {"alpha": 0.5})
        assert fold_constants(e) == Const(1.5)

    def test_unbound_param_survives(self):
        e = substitute_params(Param("alpha"), {"beta": 1.0})
        assert e == Param("alpha")

    def test_collect_params(self):
        stmts = [
            Let("a", Param("p") + Param("q")),
            Assign(GridWrite("u", 0), Param("p")),
        ]
        assert collect_params(stmts) == {"p", "q"}


class TestShiftTime:
    def test_grid_read_shifted(self):
        st_in = Assign(GridWrite("u", 1), GridRead("u", 0, (0,)))
        out = shift_time(st_in, -1)
        assert out.target.dt == 0
        assert out.expr == GridRead("u", -1, (0,))

    def test_count_nodes(self):
        e = Const(1.0) + Const(2.0) * Const(3.0)
        assert count_nodes(e) == 5


def _subtree_occurrences(stmts, needle):
    """How many times ``needle`` appears as a subtree of ``stmts``."""
    count = 0
    stack = [st.expr for st in stmts]
    while stack:
        node = stack.pop()
        if node == needle:
            count += 1
        stack.extend(node.children())
    return count


def _eval_with_store(stmts, store, t_val=0, point=(0,)):
    """Run a kernel body against a mutable grid store, so writes are
    visible to later statements of the same body (the aliasing semantics
    the compiled clones implement)."""

    def read(name, dt, pt):
        return store[(name, t_val + dt, pt)]

    def write(name, dt, pt, v):
        store[(name, t_val + dt, pt)] = v

    from repro.expr.evalexpr import eval_statements

    eval_statements(
        stmts, EvalEnv(t=t_val, point=point, read=read, write=write)
    )
    return store


class TestCSE:
    nbr = GridRead("u", -1, (-1,)) + GridRead("u", -1, (1,))

    def test_repeated_subexpression_hoisted_once(self):
        stmts = [
            Assign(GridWrite("u", 0), self.nbr * Const(0.5)),
            Assign(GridWrite("v", 0), self.nbr + Const(1.0)),
        ]
        out = cse_statements(stmts)
        lets = [st for st in out if isinstance(st, Let)]
        assert len(lets) == 1
        assert lets[0].expr == self.nbr
        assert _subtree_occurrences(out, self.nbr) == 1
        assert _subtree_occurrences(out, LocalRead(lets[0].name)) == 2

    def test_unrepeated_body_unchanged(self):
        stmts = [
            Assign(GridWrite("u", 0), self.nbr * Const(0.5)),
            Assign(GridWrite("v", 0), GridRead("v", -1, (0,))),
        ]
        assert cse_statements(stmts) == stmts

    def test_values_never_hoisted(self):
        two = Const(2.0)
        stmts = [Assign(GridWrite("u", 0), two * GridRead("u", -1, (0,)) + two)]
        out = cse_statements(stmts)
        assert not any(isinstance(st, Let) for st in out)

    def test_nested_repeat_hoists_only_the_parent(self):
        # ``nbr`` repeats only *inside* the repeated parent, so hoisting
        # the parent alone suffices (DAG counting, not tree counting).
        parent = self.nbr * Const(0.25)
        stmts = [
            Assign(GridWrite("u", 0), parent + Const(1.0)),
            Assign(GridWrite("v", 0), parent + Const(2.0)),
        ]
        out = cse_statements(stmts)
        lets = [st for st in out if isinstance(st, Let)]
        assert len(lets) == 1
        assert lets[0].expr == parent

    def test_assign_invalidates_written_level_reads(self):
        # ``w`` reads u at the *written* level, so the Let cached before
        # the write to u cannot be reused after it.
        aliased = GridRead("u", 0, (0,)) + Const(1.0)
        stmts = [
            Assign(GridWrite("v", 0), aliased),
            Assign(GridWrite("u", 0), Const(0.0)),
            Assign(GridWrite("w", 0), aliased),
        ]
        out = cse_statements(stmts)
        lets = [st for st in out if isinstance(st, Let)]
        assert len(lets) == 2
        assert lets[0].name != lets[1].name

    def test_assign_keeps_earlier_level_reads(self):
        # dt == -1 reads are unaffected by a write to the dt == 0 level.
        stmts = [
            Assign(GridWrite("v", 0), self.nbr),
            Assign(GridWrite("u", 0), Const(0.0)),
            Assign(GridWrite("w", 0), self.nbr),
        ]
        out = cse_statements(stmts)
        assert len([st for st in out if isinstance(st, Let)]) == 1

    def test_prefix_avoids_user_let_names(self):
        stmts = [
            Let("_cse0", self.nbr),
            Assign(GridWrite("u", 0), LocalRead("_cse0") * self.nbr),
        ]
        out = cse_statements(stmts)
        names = {st.name for st in out if isinstance(st, Let)}
        assert "_cse0" in names and len(names) == 2

    def test_aliasing_semantics_preserved(self):
        # Read-after-write kernel: v consumes the value just written to
        # u.  CSE'd execution must match the original bit for bit.
        aliased = GridRead("u", 0, (0,)) * Const(2.0)
        stmts = [
            Assign(GridWrite("v", 0), aliased + self.nbr),
            Assign(GridWrite("u", 0), self.nbr * Const(0.5)),
            Assign(GridWrite("w", 0), aliased + self.nbr),
        ]
        out = cse_statements(stmts)
        assert out != stmts  # CSE actually rewrote something

        def fresh_store():
            return {
                ("u", -1, (-1,)): 1.25,
                ("u", -1, (1,)): -0.75,
                ("u", 0, (0,)): 3.5,
            }

        expect = _eval_with_store(stmts, fresh_store())
        got = _eval_with_store(out, fresh_store())
        assert got == expect
