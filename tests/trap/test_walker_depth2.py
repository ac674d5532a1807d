"""Walker correctness for deep stencils (depth 2, higher slopes).

The wave equation's depth-2 dependence and slopes > 1 stress the
dependency-order argument differently from the depth-1 heat kernels: a
point reads two time levels back, and influence cones widen faster than
one cell per step.
"""

from collections import Counter
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from repro.trap.plan import iter_base_events
from repro.trap.walker import WalkOptions, decompose_events, walk_spec_for
from repro.trap.zoid import full_grid_zoid


def _collect(plan, sizes):
    updates = Counter()
    for region in iter_base_events(plan):
        for t, pt in region.zoid().points():
            true = tuple(p % n for p, n in zip(pt, sizes))
            updates[(t, true)] += 1
    return updates


@given(
    n=st.integers(min_value=4, max_value=32),
    T=st.integers(min_value=1, max_value=10),
    sigma=st.integers(min_value=1, max_value=3),
    depth=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=50, deadline=None)
def test_exact_cover_any_depth_slope(n, T, sigma, depth):
    """Every output level [depth, depth+T) updated exactly once, for any
    stencil depth and slope."""
    spec = walk_spec_for((n,), (sigma,), (-sigma,), (sigma,))
    opts = WalkOptions(dt_threshold=1, space_thresholds=(0,), hyperspace=True)
    plan = decompose_events(full_grid_zoid(depth, depth + T, (n,)), spec, opts)
    updates = _collect(plan, (n,))
    expected = Counter(
        ((t, (x,)) for t in range(depth, depth + T) for x in range(n))
    )
    assert updates == expected


@pytest.mark.parametrize("sigma", [1, 2])
def test_dependency_order_depth2(sigma):
    """Serial order validity with reads reaching back 2 levels: when
    (t, x) is updated, (t-1, x +- sigma) and (t-2, x +- 2 sigma) exist."""
    n, T, depth = 24, 8, 2
    spec = walk_spec_for((n,), (sigma,), (-sigma,), (sigma,))
    opts = WalkOptions(dt_threshold=1, space_thresholds=(0,), hyperspace=True)
    plan = decompose_events(full_grid_zoid(depth, depth + T, (n,)), spec, opts)

    done: set = set()
    for region in iter_base_events(plan):
        for t, (x,) in region.zoid().points():
            xt = x % n
            for back in (1, 2):
                if t - back < depth:
                    continue  # initial levels
                reach = sigma * back
                for d in range(-reach, reach + 1):
                    nb = (xt + d) % n
                    assert (t - back, nb) in done, (
                        f"({t},{xt}) before input ({t - back},{nb})"
                    )
            done.add((t, xt))


def test_2d_wave_cover():
    """2D depth-2 wave-style stencil: exact cover through hyperspace cuts."""
    n, T, depth = 10, 6, 2
    spec = walk_spec_for((n, n), (1, 1), (-1, -1), (1, 1))
    opts = WalkOptions(
        dt_threshold=1, space_thresholds=(0, 0), hyperspace=True
    )
    plan = decompose_events(full_grid_zoid(depth, depth + T, (n, n)), spec, opts)
    updates = _collect(plan, (n, n))
    expected = Counter(
        (t, pt)
        for t in range(depth, depth + T)
        for pt in iproduct(range(n), range(n))
    )
    assert updates == expected
