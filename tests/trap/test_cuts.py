"""Tests for space cuts, circular cuts, hyperspace cuts and Lemma 1.

The partition property tests are the load-bearing correctness checks of
the whole decomposition: every cut must split a zoid into subzoids whose
point sets partition the parent exactly.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.trap.cuts import (
    CutDecision,
    choose_cut,
    circular_cut,
    cut_dimension,
    hyperspace_cut,
    time_cut_children,
    trisect,
)
from repro.trap.coarsening import NEVER_CUT
from repro.trap.zoid import Zoid


def points_of(z: Zoid) -> Counter:
    return Counter(z.points())


def assert_partition(parent: Zoid, pieces: list[Zoid]):
    total = Counter()
    for p in pieces:
        total.update(points_of(p))
    expected = points_of(parent)
    assert total == expected, (
        f"partition mismatch: {len(+ (total - expected))} extra, "
        f"{len(+ (expected - total))} missing"
    )


class TestTrisect:
    def test_upright_pieces(self):
        z = Zoid(0, 2, ((0, 12, 0, 0),))
        pieces = trisect(z, 0, 1)
        assert pieces is not None
        assert len(pieces) == 3
        bits = [b for _, b in pieces]
        assert bits == [0, 1, 0]  # black, gray, black

    def test_upright_partition(self):
        z = Zoid(0, 2, ((0, 12, 0, 0),))
        pieces = trisect(z, 0, 1)
        subs = [Zoid(z.ta, z.tb, (ext,)) for ext, _ in pieces]
        assert_partition(z, subs)

    def test_inverted_partition(self):
        z = Zoid(0, 2, ((4, 8, -1, 1),))  # bottom 4, top 8
        pieces = trisect(z, 0, 1)
        assert pieces is not None
        bits = [b for _, b in pieces]
        assert bits == [1, 0, 1]  # gray processed first when inverted
        subs = [Zoid(z.ta, z.tb, (ext,)) for ext, _ in pieces]
        assert_partition(z, subs)

    def test_infeasible_returns_none(self):
        z = Zoid(0, 4, ((0, 6, 1, -1),))  # too narrow for sigma=1, dt=4
        assert trisect(z, 0, 1) is None

    def test_sigma_zero_bisects(self):
        z = Zoid(0, 3, ((0, 8, 0, 0),))
        pieces = trisect(z, 0, 0)
        assert len(pieces) == 2
        assert all(b == 0 for _, b in pieces)
        subs = [Zoid(z.ta, z.tb, (ext,)) for ext, _ in pieces]
        assert_partition(z, subs)

    @given(
        dt=st.integers(min_value=1, max_value=3),
        width=st.integers(min_value=2, max_value=24),
        sigma=st.integers(min_value=1, max_value=2),
        dxa=st.integers(min_value=-2, max_value=2),
        dxb=st.integers(min_value=-2, max_value=2),
    )
    @settings(max_examples=200)
    def test_partition_property(self, dt, width, sigma, dxa, dxb):
        if abs(dxa) > sigma or abs(dxb) > sigma:
            return
        z = Zoid(0, dt, ((0, width, dxa, dxb),))
        if not z.well_defined():
            return
        pieces = trisect(z, 0, sigma)
        if pieces is None:
            return
        subs = [Zoid(z.ta, z.tb, (ext,)) for ext, _ in pieces]
        for s in subs:
            assert s.well_defined() or s.volume() == 0
        assert_partition(z, subs)


class TestCircularCut:
    def test_full_dim_gets_four_pieces(self):
        z = Zoid(0, 2, ((0, 16, 0, 0),))
        pieces = circular_cut(z, 0, 1, 16)
        assert pieces is not None
        assert len(pieces) == 4
        assert [b for _, b in pieces] == [0, 0, 1, 1]

    def test_partition_with_wraparound(self):
        n = 16
        z = Zoid(0, 2, ((0, n, 0, 0),))
        pieces = circular_cut(z, 0, 1, n)
        subs = [Zoid(z.ta, z.tb, (ext,)) for ext, _ in pieces]
        # Count points modulo n: the seam gray wraps in virtual coords.
        total = Counter()
        for s in subs:
            for t, (x,) in s.points():
                total[(t, x % n)] += 1
        expected = Counter((t, x) for t, (x,) in z.points())
        assert total == expected

    def test_not_applicable_to_partial_extent(self):
        z = Zoid(0, 2, ((0, 8, 0, 0),))
        assert circular_cut(z, 0, 1, 16) is None

    def test_too_small_returns_none(self):
        z = Zoid(0, 4, ((0, 8, 0, 0),))  # need half >= 2*sigma*dt = 8
        assert circular_cut(z, 0, 1, 8) is None

    def test_cut_dimension_prefers_circular_for_full_width(self):
        z = Zoid(0, 2, ((0, 16, 0, 0),))
        pieces = cut_dimension(z, 0, 1, 16)
        assert len(pieces) == 4  # circular, not trisection


class TestHyperspaceCut:
    def test_lemma1_piece_and_level_counts(self):
        """A hyperspace cut on k dims makes 3^k subzoids on k+1 levels."""
        z = Zoid(0, 2, ((0, 12, 0, 0), (0, 12, 0, 0)))
        pieces = {
            0: trisect(z, 0, 1),
            1: trisect(z, 1, 1),
        }
        decision = hyperspace_cut(z, pieces)
        all_subs = [s for level in decision.levels for s in level]
        assert len(all_subs) == 9  # 3^2
        assert len(decision.levels) == 3  # k+1 = 3

    def test_lemma1_level_sizes(self):
        # For k=2 upright cuts: levels have 4 (bb), 4 (bg+gb), 1 (gg).
        z = Zoid(0, 2, ((0, 12, 0, 0), (0, 12, 0, 0)))
        decision = hyperspace_cut(
            z, {0: trisect(z, 0, 1), 1: trisect(z, 1, 1)}
        )
        assert [len(lv) for lv in decision.levels] == [4, 4, 1]

    def test_partition_2d(self):
        z = Zoid(0, 2, ((0, 12, 0, 0), (0, 10, 0, 0)))
        decision = hyperspace_cut(
            z, {0: trisect(z, 0, 1), 1: trisect(z, 1, 1)}
        )
        assert_partition(z, [s for lv in decision.levels for s in lv])

    def test_antichain_within_levels(self):
        """Lemma 1: same-level subzoids are independent — no grid point of
        one can influence a point of another within the zoid's height,
        i.e. their slope-expanded extents never overlap at any time."""
        z = Zoid(0, 2, ((0, 12, 0, 0), (0, 12, 0, 0)))
        sigma = 1
        decision = hyperspace_cut(
            z, {0: trisect(z, 0, sigma), 1: trisect(z, 1, sigma)}
        )
        for level in decision.levels:
            for i, a in enumerate(level):
                for b in level[i + 1 :]:
                    assert _independent(a, b, sigma), (a, b)

    def test_mixed_cut_and_uncut_dims(self):
        z = Zoid(0, 2, ((0, 12, 0, 0), (0, 3, 0, 0)))
        decision = hyperspace_cut(z, {0: trisect(z, 0, 1)})
        assert_partition(z, [s for lv in decision.levels for s in lv])
        # dim 1 untouched
        for lv in decision.levels:
            for s in lv:
                assert s.dims[1] == (0, 3, 0, 0)


def _independent(a: Zoid, b: Zoid, sigma: int) -> bool:
    """True if no point of b reads a point of a (or vice versa) during
    their common lifetime, given per-step influence radius sigma."""
    for ta, pa in a.points():
        for tb, pb in b.points():
            if ta == tb:
                continue
            gap = abs(ta - tb)
            dist = max(abs(x - y) for x, y in zip(pa, pb))
            if dist <= sigma * gap:
                return False
    return True


class TestTimeCut:
    def test_halves_partition(self):
        z = Zoid(0, 4, ((0, 10, 1, -1),))
        lower, upper = time_cut_children(z, 2)
        assert_partition(z, [lower, upper])

    def test_upper_base_advanced(self):
        z = Zoid(0, 4, ((0, 10, 1, -1),))
        _, upper = time_cut_children(z, 2)
        assert upper.dims == ((2, 8, 1, -1),)

    def test_invalid_cut_point_rejected(self):
        from repro.errors import ExecutionError

        z = Zoid(0, 4, ((0, 10, 0, 0),))
        with pytest.raises(ExecutionError):
            time_cut_children(z, 0)
        with pytest.raises(ExecutionError):
            time_cut_children(z, 4)


class TestChooseCut:
    COMMON = dict(
        sizes=(32,),
        slopes=(1,),
        space_thresholds=(0,),
        hyperspace=True,
    )

    def test_wide_zoid_space_cut(self):
        z = Zoid(0, 2, ((0, 20, 0, 0),))
        d = choose_cut(z, dt_threshold=1, **self.COMMON)
        assert d.kind == "space"

    def test_tall_narrow_zoid_time_cut(self):
        z = Zoid(0, 8, ((0, 3, 0, 0),))
        d = choose_cut(z, dt_threshold=1, **self.COMMON)
        assert d.kind == "time"
        assert d.tm == 4

    def test_small_zoid_base(self):
        # Width 1 cannot be trisected (a black would be empty) and height
        # 1 cannot be time cut: base case.
        z = Zoid(0, 1, ((0, 1, 0, 0),))
        d = choose_cut(z, dt_threshold=1, **self.COMMON)
        assert d.kind == "base"

    def test_coarsening_thresholds_respected(self):
        z = Zoid(0, 4, ((0, 20, 0, 0),))
        d = choose_cut(
            z,
            sizes=(32,),
            slopes=(1,),
            space_thresholds=(64,),
            dt_threshold=8,
            hyperspace=True,
        )
        assert d.kind == "base"

    def test_protected_dim_not_cut(self):
        z = Zoid(0, 2, ((0, 20, 0, 0), (0, 20, 0, 0)))
        d = choose_cut(
            z,
            sizes=(32, 32),
            slopes=(1, 1),
            space_thresholds=(0, NEVER_CUT),
            dt_threshold=1,
            hyperspace=True,
        )
        assert d.kind == "space"
        assert d.cut_dims == (0,)

    def test_strap_cuts_one_dim_only(self):
        z = Zoid(0, 2, ((0, 20, 0, 0), (0, 20, 0, 0)))
        d = choose_cut(
            z,
            sizes=(32, 32),
            slopes=(1, 1),
            space_thresholds=(0, 0),
            dt_threshold=1,
            hyperspace=False,
        )
        assert d.kind == "space"
        assert d.cut_dims == (0,)

    def test_trap_cuts_both_dims(self):
        z = Zoid(0, 2, ((0, 20, 0, 0), (0, 20, 0, 0)))
        d = choose_cut(
            z,
            sizes=(32, 32),
            slopes=(1, 1),
            space_thresholds=(0, 0),
            dt_threshold=1,
            hyperspace=True,
        )
        assert d.cut_dims == (0, 1)
        assert len(d.levels) == 3
