"""Tests for the TRAP/STRAP walkers: the exact-cover and dependency-order
properties that make the decomposition correct."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.trap.plan import iter_base_events, linearize_waves, stats_from_regions
from repro.trap.walker import (
    NEVER_CUT,
    WalkOptions,
    decompose_events,
    default_options,
    walk_spec_for,
)
from repro.trap.zoid import Zoid, full_grid_zoid


def plan_of(z, spec, opts):
    """The walker's plan for ``z`` as a materialized event list."""
    return list(decompose_events(z, spec, opts))


def spec_1d(n, sigma=1, off=1):
    return walk_spec_for((n,), (sigma,), (-off,), (off,))


def spec_2d(nx, ny, sigma=1):
    return walk_spec_for((nx, ny), (sigma, sigma), (-1, -1), (1, 1))


def uncoarsened_opts(ndim, hyperspace=True):
    return WalkOptions(
        dt_threshold=1,
        space_thresholds=(0,) * ndim,
        hyperspace=hyperspace,
    )


def collect_updates(plan, sizes):
    """Multiset of (t, true point) updates emitted by the plan."""
    updates = Counter()
    for region in iter_base_events(plan):
        for t, pt in region.zoid().points():
            true = tuple(p % n for p, n in zip(pt, sizes))
            updates[(t, true)] += 1
    return updates


def expected_updates(t0, t1, sizes):
    from itertools import product

    return Counter(
        (t, pt)
        for t in range(t0, t1)
        for pt in product(*[range(n) for n in sizes])
    )


class TestExactCover:
    """Every space-time point is updated exactly once."""

    @pytest.mark.parametrize("hyperspace", [True, False])
    @pytest.mark.parametrize("n,T", [(16, 8), (13, 5), (32, 16)])
    def test_1d(self, n, T, hyperspace):
        plan = plan_of(
            full_grid_zoid(1, 1 + T, (n,)),
            spec_1d(n),
            uncoarsened_opts(1, hyperspace),
        )
        assert collect_updates(plan, (n,)) == expected_updates(1, 1 + T, (n,))

    @pytest.mark.parametrize("hyperspace", [True, False])
    def test_2d(self, hyperspace):
        n, T = 12, 6
        plan = plan_of(
            full_grid_zoid(1, 1 + T, (n, n)),
            spec_2d(n, n),
            uncoarsened_opts(2, hyperspace),
        )
        assert collect_updates(plan, (n, n)) == expected_updates(
            1, 1 + T, (n, n)
        )

    @given(
        n=st.integers(min_value=2, max_value=40),
        T=st.integers(min_value=1, max_value=12),
        sigma=st.integers(min_value=1, max_value=2),
        dt_thr=st.integers(min_value=1, max_value=4),
        s_thr=st.integers(min_value=0, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_1d_property(self, n, T, sigma, dt_thr, s_thr):
        spec = spec_1d(n, sigma=sigma, off=sigma)
        opts = WalkOptions(
            dt_threshold=dt_thr, space_thresholds=(s_thr,), hyperspace=True
        )
        plan = plan_of(full_grid_zoid(1, 1 + T, (n,)), spec, opts)
        assert collect_updates(plan, (n,)) == expected_updates(1, 1 + T, (n,))


class TestDependencyOrder:
    """In serial order, every read's producer appears before the reader:
    when point (t, x) is updated, all points (t - j, x +- sigma*j) it may
    read have already been updated (or belong to the initial levels)."""

    @pytest.mark.parametrize("hyperspace", [True, False])
    def test_1d_serial_order_valid(self, hyperspace):
        n, T, sigma = 16, 8, 1
        plan = plan_of(
            full_grid_zoid(1, 1 + T, (n,)),
            spec_1d(n),
            uncoarsened_opts(1, hyperspace),
        )
        self._check_order(plan, (n,), sigma, t0=1)

    def test_2d_serial_order_valid(self):
        n, T = 10, 5
        plan = plan_of(
            full_grid_zoid(1, 1 + T, (n, n)),
            spec_2d(n, n),
            uncoarsened_opts(2),
        )
        self._check_order(plan, (n, n), 1, t0=1)

    @staticmethod
    def _check_order(plan, sizes, sigma, t0):
        from itertools import product as iproduct

        done: set = set()
        for region in iter_base_events(plan):
            for t, pt in region.zoid().points():
                true = tuple(p % n for p, n in zip(pt, sizes))
                if t > t0:
                    offs = range(-sigma, sigma + 1)
                    for delta in iproduct(*[offs for _ in sizes]):
                        nb = tuple(
                            (p + d) % n for p, d, n in zip(true, delta, sizes)
                        )
                        assert (t - 1, nb) in done, (
                            f"point {(t, true)} updated before its input "
                            f"{(t - 1, nb)}"
                        )
                done.add((t, true))

    def test_wave_order_valid_too(self):
        """The threaded executor's wave linearization also respects
        dependencies (any serialization of each wave is safe)."""
        n, T, sigma = 16, 8, 1
        plan = plan_of(
            full_grid_zoid(1, 1 + T, (n,)), spec_1d(n), uncoarsened_opts(1)
        )
        done: set = set()
        for wave in linearize_waves(plan):
            wave_points = []
            for region in wave:
                for t, (x,) in region.zoid().points():
                    wave_points.append((t, x % n))
            for t, x in wave_points:
                if t > 1:
                    for d in (-1, 0, 1):
                        assert (t - 1, (x + d) % n) in done
            done.update(wave_points)


class TestClassification:
    def test_interior_inherited_and_correct(self):
        n, T = 32, 8
        spec = spec_2d(n, n)
        plan = plan_of(
            full_grid_zoid(1, 1 + T, (n, n)),
            spec,
            uncoarsened_opts(2),
        )
        for region in iter_base_events(plan):
            z = region.zoid()
            if region.interior:
                # Every read of every point stays inside the grid.
                for t, pt in z.points():
                    for i, p in enumerate(pt):
                        assert 0 <= p - 1 and p + 1 <= n - 1

    def test_boundary_fraction_shrinks_with_n(self):
        fractions = []
        for n in (16, 32, 64):
            plan = plan_of(
                full_grid_zoid(1, 9, (n, n)),
                spec_2d(n, n),
                default_options(2, (n, n), dt_threshold=4,
                                space_thresholds=(8, 8)),
            )
            stats = stats_from_regions(iter_base_events(plan))
            fractions.append(stats.boundary_fraction)
        assert fractions[0] > fractions[-1]


class TestStructure:
    def test_strap_has_more_seq_depth(self):
        """STRAP's serial space cuts produce strictly more waves
        (synchronization points) than TRAP's hyperspace cuts."""
        n, T = 32, 16
        trap_plan = plan_of(
            full_grid_zoid(1, 1 + T, (n, n)), spec_2d(n, n),
            uncoarsened_opts(2, True),
        )
        strap_plan = plan_of(
            full_grid_zoid(1, 1 + T, (n, n)), spec_2d(n, n),
            uncoarsened_opts(2, False),
        )
        assert len(linearize_waves(strap_plan)) > len(
            linearize_waves(trap_plan)
        )

    def test_same_base_points_both_algorithms(self):
        n, T = 24, 8
        kw = dict(sizes=(n,))
        trap_plan = plan_of(
            full_grid_zoid(1, 1 + T, (n,)), spec_1d(n), uncoarsened_opts(1, True)
        )
        strap_plan = plan_of(
            full_grid_zoid(1, 1 + T, (n,)), spec_1d(n), uncoarsened_opts(1, False)
        )
        assert stats_from_regions(iter_base_events(trap_plan)).points == stats_from_regions(iter_base_events(strap_plan)).points == n * T

    def test_default_options_fill_heuristics(self):
        opts = default_options(3, (64, 64, 64))
        assert opts.space_thresholds[-1] == NEVER_CUT  # >= 3D: unit stride
        assert NEVER_CUT not in opts.space_thresholds[:-1]
        opts2 = default_options(2, (64, 64))
        assert NEVER_CUT not in opts2.space_thresholds

    @pytest.mark.parametrize("mode", ["split_pointer", "c"])
    def test_explicit_unit_stride_threshold_is_honoured(self, mode):
        """Explicit thresholds mean what they say in every dimension: a
        3D run asked to cut unit stride at 4 cuts it (only the default
        never does)."""
        from repro.language.stencil import RunOptions
        from repro.trap.driver import build_events
        from tests.conftest import make_heat_problem

        st, _, kern = make_heat_problem((12, 12, 24))
        problem = st.prepare(4, kern)

        def unit_stride_widths(**options):
            events = build_events(
                problem, RunOptions(mode=mode, dt_threshold=1, **options)
            )
            return {r.zoid().width(2) for r in iter_base_events(events)}

        assert max(unit_stride_widths(space_thresholds=(4, 4, 4))) < 24
        assert unit_stride_widths() == {24}

    def test_default_options_validates_thresholds(self):
        from repro.errors import SpecificationError

        with pytest.raises(SpecificationError):
            default_options(2, (64, 64), space_thresholds=(1, 2, 3))
