"""Space cuts, circular cuts, hyperspace cuts and time cuts.

The geometric heart of TRAP (Figure 7 of the paper):

* :func:`trisect` — the parallel space cut.  An upright projection
  trapezoid splits into two *black* subtrapezoids processed first and a
  *gray* inverted triangle processed after (Figure 7(a)); an inverted one
  splits into a gray upright triangle processed first and two blacks
  after (Figure 7(b)).
* :func:`circular_cut` — the variant applied when a zoid spans an entire
  dimension with flat sides (the whole torus circumference): two blacks
  plus *two* grays, one of which straddles the periodic seam in virtual
  coordinates.  Always used for full-width dimensions, periodic boundary
  or not — that is what unifies the control structure (Section 4).
* :func:`hyperspace_cut` — apply the per-dimension cuts to every cuttable
  dimension at once and assign each of the resulting subzoids the Lemma-1
  dependency level ``sum((u_i + I_i) mod 2)``.
* time cuts — handled by :func:`choose_cut`, halving the height.

Feasibility is checked exactly (every subzoid must be well-defined with
the gray contained between the blacks at every time slice), rather than
with the simplified ``w >= 2*sigma*dt`` test of the paper's pseudocode;
this matches what the released Pochoir implementation does and guarantees
the recursion never produces a malformed zoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from repro.errors import ExecutionError
from repro.trap.zoid import DimExtent, Zoid

#: One labeled piece of a per-dimension cut: (extent, dependency_bit).
#: dependency_bit is 0 for pieces processed in the first parallel step of
#: this dimension and 1 for pieces processed in the second.
DimPiece = tuple[DimExtent, int]


def trisect(z: Zoid, i: int, sigma: int) -> list[DimPiece] | None:
    """Parallel space cut of dimension ``i`` (Figure 7(a)/(b)).

    Returns the labeled pieces, or None when the cut is infeasible (a
    subzoid would be ill-defined).  With ``sigma == 0`` the dimension
    carries no dependencies, so the cut degenerates to two independent
    halves and no gray.
    """
    xa, xb, dxa, dxb = z.dims[i]
    dt = z.height
    bottom = z.bottom_len(i)
    top = z.top_len(i)

    if sigma == 0:
        # No dependencies along this dimension: plain bisection, both
        # halves independent (dependency bit 0).
        if bottom < 2:
            return None
        mid = xa + bottom // 2
        return [((xa, mid, dxa, dxb), 0), ((mid, xb, dxa, dxb), 0)]

    if bottom >= top:
        # Upright: blacks on the bottom halves, inverted gray in the middle.
        l0 = bottom // 2
        l1 = bottom - l0
        if l0 < max(1, (sigma + dxa) * dt):
            return None
        if l1 < max(1, (sigma - dxb) * dt):
            return None
        mid = xa + l0
        return [
            ((xa, mid, dxa, -sigma), 0),  # black (left)
            ((mid, mid, -sigma, sigma), 1),  # gray (inverted triangle)
            ((mid, xb, sigma, dxb), 0),  # black (right)
        ]

    # Inverted: upright gray triangle in the middle processed first,
    # blacks after.  Split the top base in half; the gray's apex sits at
    # the split point.
    h0 = top // 2
    h1 = top - h0
    if h0 < max(1, (sigma - dxa) * dt):
        return None
    if h1 < max(1, (sigma + dxb) * dt):
        return None
    m_top = xa + dxa * dt + h0
    ga = m_top - sigma * dt
    gb = m_top + sigma * dt
    return [
        ((xa, ga, dxa, sigma), 1),  # black (left)
        ((ga, gb, sigma, -sigma), 0),  # gray (upright triangle)
        ((gb, xb, -sigma, dxb), 1),  # black (right)
    ]


def circular_cut(
    z: Zoid, i: int, sigma: int, size: int
) -> list[DimPiece] | None:
    """Cut a full-circumference dimension (Figure 7 adapted to a circle).

    Applicable when the projection covers the entire dimension with flat
    sides (``xb - xa == size``, ``dxa == dxb == 0``).  Produces two blacks
    and two inverted grays; the seam gray is expressed in virtual
    coordinates ``(size, size)`` so its widening extent wraps around the
    torus, which the boundary-clone base case resolves with a modulo.
    """
    xa, xb, dxa, dxb = z.dims[i]
    dt = z.height
    if xb - xa != size or dxa != 0 or dxb != 0:
        return None
    if sigma == 0:
        return trisect(z, i, sigma)
    half = size // 2
    need = max(1, 2 * sigma * dt)
    if half < need or (size - half) < need:
        return None
    mid = xa + half
    return [
        ((xa, mid, sigma, -sigma), 0),  # black (low half)
        ((mid, xb, sigma, -sigma), 0),  # black (high half)
        ((mid, mid, -sigma, sigma), 1),  # gray (interior seam)
        ((xb, xb, -sigma, sigma), 1),  # gray (periodic seam, virtual coords)
    ]


def cut_dimension(
    z: Zoid, i: int, sigma: int, size: int
) -> list[DimPiece] | None:
    """Best applicable space cut of dimension ``i`` (circular for
    full-circumference flat extents, else trisection)."""
    xa, xb, dxa, dxb = z.dims[i]
    if sigma > 0 and (xb - xa) == size and dxa == 0 and dxb == 0:
        return circular_cut(z, i, sigma, size)
    return trisect(z, i, sigma)


@dataclass(frozen=True)
class CutDecision:
    """The walker's decision for one zoid.

    ``kind``:
      * ``"base"`` — emit a base-case region;
      * ``"time"`` — recurse on the lower then upper halves (``tm`` set);
      * ``"space"`` — hyperspace cut; ``levels[s]`` holds the subzoids of
        dependency level ``s`` (Lemma 1: same-level subzoids are
        independent and may run in parallel).
    """

    kind: str
    tm: int = 0
    levels: tuple[tuple[Zoid, ...], ...] = ()
    cut_dims: tuple[int, ...] = ()


def hyperspace_cut(
    z: Zoid, pieces_per_dim: dict[int, list[DimPiece]]
) -> CutDecision:
    """Combine per-dimension cuts into level-grouped subzoids (Lemma 1).

    Every combination of one piece per cut dimension yields a subzoid
    whose dependency level is the sum of the pieces' dependency bits —
    exactly ``sum((u_i + I_i) mod 2)`` from the paper, since each piece's
    bit already encodes its position in the two parallel steps of its
    dimension's cut.
    """
    cut_dims = sorted(pieces_per_dim)
    option_lists = [pieces_per_dim[i] for i in cut_dims]
    max_level = len(cut_dims)
    buckets: list[list[Zoid]] = [[] for _ in range(max_level + 1)]
    for combo in product(*option_lists):
        level = sum(bit for _, bit in combo)
        dims = list(z.dims)
        for dim_index, (extent, _) in zip(cut_dims, combo):
            dims[dim_index] = extent
        sub = Zoid(z.ta, z.tb, tuple(dims))
        if not sub.well_defined():
            # Degenerate pieces (zero-width grays of a sigma==0 bisection,
            # or a gray whose widening never materializes) are skipped --
            # they contain no grid points.
            if sub.volume() != 0:
                raise ExecutionError(
                    f"hyperspace cut produced ill-defined non-empty subzoid "
                    f"{sub} from {z}"
                )
            continue
        buckets[level].append(sub)
    levels = tuple(tuple(b) for b in buckets if b)
    return CutDecision(kind="space", levels=levels, cut_dims=tuple(cut_dims))


def choose_cut(
    z: Zoid,
    *,
    sizes: Sequence[int],
    slopes: Sequence[int],
    space_thresholds: Sequence[int],
    dt_threshold: int,
    hyperspace: bool,
) -> CutDecision:
    """Decide how TRAP/STRAP processes zoid ``z`` (Figure 2, lines 4–20).

    Mirrors the paper's control flow with base-case coarsening folded in:

    1. try a space cut on every dimension wider than its coarsening
       threshold (``hyperspace=False`` restricts to the first cuttable
       dimension — the STRAP comparison algorithm);
    2. otherwise a time cut while the height exceeds ``dt_threshold``;
    3. otherwise emit the base case.
    """
    pieces: dict[int, list[DimPiece]] = {}
    for i in range(z.ndim):
        if z.width(i) <= space_thresholds[i]:
            continue
        cut = cut_dimension(z, i, slopes[i], sizes[i])
        if cut is not None:
            pieces[i] = cut
            if not hyperspace:
                break
    if pieces:
        return hyperspace_cut(z, pieces)
    dt = z.height
    if dt > dt_threshold and dt >= 2:
        return CutDecision(kind="time", tm=z.ta + dt // 2)
    return CutDecision(kind="base")


def time_cut_children(z: Zoid, tm: int) -> tuple[Zoid, Zoid]:
    """Lower and upper subzoids of a time cut at ``tm`` (Figure 7(c))."""
    if not z.ta < tm < z.tb:
        raise ExecutionError(f"time cut at {tm} outside zoid height {z}")
    lower = Zoid(z.ta, tm, z.dims)
    s = tm - z.ta
    upper_dims = tuple(
        (xa + dxa * s, xb + dxb * s, dxa, dxb) for xa, xb, dxa, dxb in z.dims
    )
    upper = Zoid(tm, z.tb, upper_dims)
    return lower, upper
