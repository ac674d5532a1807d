"""Tests for the dependency-counted task DAG (repro.trap.graph)."""

import pytest

from repro.errors import ExecutionError
from repro.trap.graph import (
    TaskGraphBuilder,
    build_task_graph,
    critical_path_lengths,
)
from repro.trap.plan import BaseRegion, iter_base_events, linearize_waves
from repro.trap.walker import decompose_events, default_options, walk_spec_for
from repro.trap.zoid import full_grid_zoid
from tests.conftest import base, par, seq


def region(ta=0, tb=1, lo=0, hi=4, interior=True):
    return BaseRegion(ta=ta, tb=tb, dims=((lo, hi, 0, 0),), interior=interior)


def heat_decomposition(n=40, t=12, threshold=8, dt=3):
    spec = walk_spec_for((n, n), (1, 1), (-1, -1), (1, 1))
    opts = default_options(
        2,
        (n, n),
        dt_threshold=dt,
        space_thresholds=(threshold, threshold),
        protect_unit_stride=False,
    )
    top = full_grid_zoid(1, 1 + t, (n, n))
    return top, spec, opts


class TestHandBuiltPlans:
    def test_single_base(self):
        g = build_task_graph(base(region()))
        assert g.n_tasks == 1
        assert g.npred == [0]
        assert g.succs == [[]]

    def test_seq_chain(self):
        rs = [region(i, i + 1) for i in range(3)]
        g = build_task_graph(seq(*(base(r) for r in rs)))
        assert g.npred == [0, 1, 1]
        assert g.succs == [[1], [2], []]

    def test_par_has_no_edges(self):
        g = build_task_graph(par(*(base(region(i, i + 1)) for i in range(4))))
        assert g.npred == [0, 0, 0, 0]
        assert g.n_edges == 0

    def test_seq_of_pars_orders_sinks_before_sources(self):
        # 2 parallel regions, then 2 parallel regions: full biclique (2x2
        # direct edges beat a join node at this width).
        wave = lambda t: par(
            base(region(t, t + 1, 0, 4)), base(region(t, t + 1, 4, 8))
        )
        g = build_task_graph(seq(wave(0), wave(1)))
        assert g.n_joins == 0
        assert g.npred == [0, 0, 2, 2]
        assert sorted(g.succs[0]) == [2, 3]
        assert sorted(g.succs[1]) == [2, 3]

    def test_wide_seq_boundary_contracts_through_join(self):
        wide = lambda t: par(
            *(base(region(t, t + 1, 8 * i, 8 * i + 8)) for i in range(6))
        )
        g = build_task_graph(seq(wide(0), wide(1)))
        # 6x6 biclique would be 36 edges; the join contracts it to 6 + 6.
        assert g.n_joins == 1
        assert g.n_tasks == 12
        assert g.n_edges == 12
        g.validate()

    def test_independent_subtrees_do_not_synchronize(self):
        # Par of two seq chains: waves would barrier them level by level;
        # the DAG keeps the chains fully independent.
        chain = lambda lo: seq(
            *(base(region(t, t + 1, lo, lo + 4)) for t in range(3))
        )
        g = build_task_graph(par(chain(0), chain(4)))
        assert g.n_edges == 4  # two chains of 3 nodes: 2 edges each
        assert sum(1 for n in g.npred if n == 0) == 2


class TestBuilderErrors:
    def test_truncated_stream(self):
        b = TaskGraphBuilder()
        b.feed(("open", "seq"))
        b.feed(("base", region()))
        with pytest.raises(ExecutionError, match="truncated"):
            b.finish()

    def test_unbalanced_close(self):
        b = TaskGraphBuilder()
        b.feed(("open", "seq"))
        with pytest.raises(ExecutionError, match="unbalanced"):
            b.feed(("close", "par"))

    def test_multiple_roots(self):
        b = TaskGraphBuilder()
        b.feed(("base", region()))
        with pytest.raises(ExecutionError, match="multiple roots"):
            b.feed(("base", region(1, 2)))

    def test_unknown_event(self):
        with pytest.raises(ExecutionError, match="unknown plan event"):
            TaskGraphBuilder().feed(("jump", "seq"))


class TestRealDecompositions:
    def test_graph_invariants_and_region_order(self):
        top, spec, opts = heat_decomposition()
        events = list(decompose_events(top, spec, opts))
        g = build_task_graph(events)
        g.validate()  # edges forward, npred consistent
        # Real tasks appear in the serial (depth-first) order.
        assert list(g.iter_regions()) == list(iter_base_events(events))
        assert g.n_tasks == len(list(iter_base_events(events)))

    def test_dag_weaker_than_waves(self):
        """Every wave-order constraint implies a DAG path, and the DAG
        never orders two same-wave regions: the wave schedule is one
        valid DAG schedule, with barriers on top."""
        top, spec, opts = heat_decomposition(n=32, t=10, threshold=8)
        events = list(decompose_events(top, spec, opts))
        g = build_task_graph(events)
        wave_of = {}
        for wi, wave in enumerate(linearize_waves(events)):
            for r in wave:
                wave_of[r] = wi
        for u, succ in enumerate(g.succs):
            for v in succ:
                ru, rv = g.regions[u], g.regions[v]
                if ru is not None and rv is not None:
                    assert wave_of[ru] < wave_of[rv]

    def test_wave_order_satisfies_pred_counts(self):
        """Executing wave by wave drives every predecessor count to zero
        before its task runs — the DAG is consistent with Lemma 1."""
        top, spec, opts = heat_decomposition(n=28, t=9, threshold=7)
        events = list(decompose_events(top, spec, opts))
        g = build_task_graph(events)
        node_of = {g.regions[i]: i for i in range(len(g.regions)) if g.regions[i]}
        npred = list(g.npred)

        def complete(nid):
            for s in g.succs[nid]:
                npred[s] -= 1
                assert npred[s] >= 0
                if npred[s] == 0 and g.regions[s] is None:
                    complete(s)

        for wave in linearize_waves(events):
            ids = [node_of[r] for r in wave]
            for nid in ids:
                assert npred[nid] == 0, "region ran before its dependencies"
            for nid in ids:
                complete(nid)
        assert all(
            n == 0 for i, n in enumerate(npred) if g.regions[i] is not None
        )


class TestCriticalPath:
    def test_chain_accumulates(self):
        rs = [region(i, i + 1) for i in range(3)]  # each volume 4
        g = build_task_graph(seq(*(base(r) for r in rs)))
        assert critical_path_lengths(g) == [12.0, 8.0, 4.0]

    def test_par_takes_max(self):
        g = build_task_graph(
            par(base(region(0, 1, 0, 4)), base(region(0, 2, 0, 4)))
        )
        assert critical_path_lengths(g) == [4.0, 8.0]
