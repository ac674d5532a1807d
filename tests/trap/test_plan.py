"""Tests for the plan-event stream: serial order, waves and statistics."""

import pytest

from repro.errors import ExecutionError
from repro.trap.graph import build_task_graph
from repro.trap.plan import (
    BaseRegion,
    iter_base_events,
    linearize_waves,
    stats_from_regions,
)
from repro.trap.walker import WalkOptions, decompose_events, walk_spec_for
from repro.trap.zoid import full_grid_zoid
from tests.conftest import base, par, seq


def region(ta=0, tb=1, lo=0, hi=4, interior=True):
    return BaseRegion(ta=ta, tb=tb, dims=((lo, hi, 0, 0),), interior=interior)


class TestNodes:
    def test_single_child_collapsed(self):
        """The walker never opens a Seq or Par group with one child."""
        for hyperspace in (True, False):
            spec = walk_spec_for((12, 12), (1, 1), (-1, -1), (1, 1))
            opts = WalkOptions(space_thresholds=(0, 0), hyperspace=hyperspace)
            children = []  # per open group: children seen so far
            for tag, _ in decompose_events(full_grid_zoid(1, 7, (12, 12)), spec, opts):
                if tag != "close" and children:
                    children[-1] += 1
                if tag == "open":
                    children.append(0)
                elif tag == "close":
                    assert children.pop() >= 2

    def test_serial_iteration_order(self):
        r1, r2, r3 = region(0, 1), region(1, 2), region(2, 3)
        events = seq(base(r1), par(base(r2), base(r3)))
        assert list(iter_base_events(events)) == [r1, r2, r3]


class TestWaves:
    def test_seq_concatenates(self):
        r1, r2 = region(), region(1, 2)
        assert linearize_waves(seq(base(r1), base(r2))) == [[r1], [r2]]

    def test_par_merges_elementwise(self):
        r1, r2, r3 = region(), region(1, 2), region(2, 3)
        events = par(seq(base(r1), base(r2)), base(r3))
        assert linearize_waves(events) == [[r1, r3], [r2]]

    def test_nested_structure(self):
        rs = [region(i, i + 1) for i in range(4)]
        events = seq(par(base(rs[0]), base(rs[1])), par(base(rs[2]), base(rs[3])))
        waves = linearize_waves(events)
        assert len(waves) == 2
        assert set(id(r) for r in waves[0]) == {id(rs[0]), id(rs[1])}

    def test_waves_cover_all_regions(self):
        rs = [region(i, i + 1) for i in range(5)]
        events = seq(
            base(rs[0]),
            par(seq(base(rs[1]), base(rs[2])), base(rs[3])),
            base(rs[4]),
        )
        flat = [r for wave in linearize_waves(events) for r in wave]
        assert sorted(id(r) for r in flat) == sorted(id(r) for r in rs)


class TestEvents:
    """Malformed streams are refused by both stream folds."""

    def _sample_events(self):
        rs = [region(i, i + 1) for i in range(5)]
        return seq(
            base(rs[0]),
            par(seq(base(rs[1]), base(rs[2])), base(rs[3])),
            base(rs[4]),
        )

    def test_truncated_stream_rejected(self):
        events = self._sample_events()[:-1]
        for fold in (build_task_graph, linearize_waves):
            with pytest.raises(ExecutionError, match="truncated"):
                fold(events)

    def test_unbalanced_close_rejected(self):
        events = [("open", "seq"), ("base", region()), ("close", "par")]
        for fold in (build_task_graph, linearize_waves):
            with pytest.raises(ExecutionError, match="unbalanced"):
                fold(events)

    def test_multiple_roots_rejected(self):
        # A second root that opens a group (the builder's other check).
        events = base(region()) + seq(base(region(1, 2)), base(region(2, 3)))
        with pytest.raises(ExecutionError, match="multiple roots"):
            build_task_graph(events)


class TestStats:
    def test_counts(self):
        r_int = region(interior=True)
        r_bnd = region(interior=False)
        events = seq(base(r_int), par(base(r_bnd), base(r_int)))
        stats = stats_from_regions(iter_base_events(events))
        assert stats.base_cases == 3
        assert stats.interior_base_cases == 2
        assert stats.boundary_base_cases == 1
        assert stats.points == 12
        assert 0 < stats.boundary_fraction < 1
