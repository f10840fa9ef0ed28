"""Nodal censuses on grids: components, flips, intersections.

Counting convention: a compact zero-set component is the outer boundary of
exactly one bounded sign-domain.  On squares a sign-domain is a 4-connected
set of same-sign nodes together with the saddle diagonals the zero set
leaves joined: in a saddle cell (all four sides crossed) the diagonal whose
sign is that of the cell-centre mean is joined, the rule the marching
segments use, so the domains away from the border are exactly the closed
cycles of the segment graph.  ``count_components_plane`` reads the
positive set as the runs of positive nodes along each grid row: a forest
over the runs, merged across their other contacts, gives the positive
domains, and the negative interior domains are the holes of the positive
set, counted from its Euler number, a sum over the runs and their contacts
with the row above.  The runs' starts and ends are the set bits of the
row-change mask, found from its nonzero 16-bit pairs (``_run_boundaries``):
numpy's boolean nonzero switches to a loop more than twice as fast above
10% density, and the mask sits just below it (9.4-9.8% at 16 points per
wavelength), its pairs at about twice that.  Rank queries on the mask,
packed into 64-bit words, find the runs' contacts with the row above and,
from the rank of each row's start, the runs on the border.  Every reader
of a grid's signs takes them from ``grid_signs``, the one check that a
grid can be signed: EmptyGrid where its values are absent or not all
finite, read from the row sums, a sum being finite only if its terms are.
A certified grid (float32 values within a bound of the float64 ones, see
``fields``), the censuses' grid in estimates, is finite by construction;
its nodes and saddle-cell centres (``_centre_signs``) are signed by the
one sign certificate, ``_certified_signs``, so every sign and count is
that of float64 values.  The grid values the nodes the bound leaves
undecided from its own float64 tables (``ScalarGrid.node_values``);
``evaluate_batch`` values the points off the lattice, the flips' ports
and midpoints and the line samples of intersections.
On the torus, zero-set components are counted directly from the marching
segments: every port there has degree 2, so components are cycles.  The
segments of a cycle follow each other one way round it, and every crossed
edge starts exactly one segment, so an edge-indexed table
(``edge_table``) gives each segment its successor without a sort; a cycle
wraps iff it crosses the x-seam or the y-seam an odd number of times.

The marching segments are the one zero-set graph of the package.  Each runs
from segA to segB with the positive side on its left, so every crossed edge
starts at most one segment and ends at most one, both exactly one where it
lies in two cells.  The plane census counts the graph's closed cycles as
sign-domains; the torus census and the portraits
(``portraits.zero_polylines``) step along it through the same two edge
tables, of the segments leaving and of those entering each port.

Values with |f| < TIE_TOL are treated as positive (measure-zero event,
deterministic tie rule), through ``sign_grid`` only: at grid nodes, and at the
ports, bisection midpoints and line samples of flips and intersections.

Flips sign g = d.grad f, itself a sample of the measure, at the ports of
f's grid and at bisection midpoints through the same certificate, so that
every flip count and location equals the one an exact evaluation there
gives; ``count_flips`` tells how.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGrid
from .fields import (
    MAX_GRID_NODES,
    FieldSample,
    ScalarGrid,
    SquareDomain,
    _slope_sample,
    default_spacing,
    evaluate_batch,
    evaluate_grid,
    unit_direction,
)

TIE_TOL = 1e-14
EPS = float(np.finfo(float).eps)
# relative rounding margin of a certified sign of d.grad f (_slope_weights)
ROUNDING_MARGIN = 1e-9
# entries per strip of _certified_signs: on fresh 1281^2 float32 grids (one
# Xeon core) it took 1.3-1.5 ms in strips of 2^17, 1.7-2.0 ms in one pass
_STRIP = 2**17


@dataclass
class NodalCensus:
    """Component counts of one gridded sample.

    On squares: interior_components = compact zero-set components, i.e.
    sign-domains away from the border, a domain being 4-connected plus the
    joined saddle diagonals (see the module docstring).  On the torus:
    interior_components = contractible zero-set components,
    wrapping_components the rest.
    """

    interior_components: int
    wrapping_components: int = 0

    @property
    def total_components(self) -> int:
        return self.interior_components + self.wrapping_components


def sign_grid(values: np.ndarray, margin: float = 0.0) -> np.ndarray:
    """Boolean positivity grid under the tie rule (|f| < TIE_TOL counts +).

    The threshold is -TIE_TOL in the dtype of values, so a float32 grid is
    compared in float32.  A margin moves it to -TIE_TOL + margin, rounded
    away from -TIE_TOL in that dtype: for values that err by at most b,
    sign_grid(values, b) is True only where every value within b counts as
    positive, and sign_grid(values, -b) False only where every such value
    counts as negative.
    """
    if not margin:
        return np.greater(values, -TIE_TOL)
    threshold = np.array(margin - TIE_TOL, dtype=values.dtype)
    return np.greater(values, np.nextafter(threshold,
                                           math.copysign(math.inf, margin)))


def _certified_signs(est: np.ndarray, bound: float, exact) -> np.ndarray:
    """sign_grid of the values that est estimates within bound.

    sign_grid is monotone: where sign_grid(est, bound) and
    sign_grid(est, -bound) agree, every value within bound has their sign,
    the exact one included.  exact(k) gives the exact values at the flat
    indices k of the other entries, in one call, or is not called: float64
    values, from a certified grid's ``node_values`` on its lattice, from
    ``evaluate_batch`` off it.  This is the package's one sign
    certificate, for the nodes of a certified grid (``grid_signs``), its
    saddle-cell centres (``_centre_signs``) and the flips' ports and
    bisection midpoints.  On a grid larger than _STRIP the comparisons run
    in strips that stay in the L2 cache between them.
    """
    flat = est.reshape(-1)
    if len(flat) <= _STRIP:
        sg = sign_grid(flat, bound)
        unsure = np.flatnonzero(sg != sign_grid(flat, -bound))
    else:
        sg, found = np.empty(flat.shape, dtype=bool), []
        for k in range(0, len(flat), _STRIP):
            part = slice(k, k + _STRIP)
            sg[part] = sign_grid(flat[part], bound)
            found.append(k + np.flatnonzero(sg[part]
                                            != sign_grid(flat[part], -bound)))
        unsure = np.concatenate(found)
    if len(unsure):
        sg[unsure] = sign_grid(exact(unsure))
    return sg.reshape(est.shape)


def grid_signs(g: ScalarGrid) -> np.ndarray:
    """sign_grid of g's node values, or EmptyGrid where they are absent or
    not all finite: the one reader of a grid's signs, and the one check.

    Finiteness comes from the row sums values @ ones, one pass that BLAS
    makes over strided views too, such as ``ScalarGrid.window``'s: a sum
    of finite terms can be non-finite only by overflow, so only where a
    sum is not finite does np.isfinite read every value.  A certified
    grid (``fields.evaluate_grid(..., certified=True)``) is finite by
    construction and takes no pass: its float32 values lie within
    g.bound of the float64 ones, and ``_certified_signs`` takes the few
    nodes the bound leaves undecided (a few in 10^4 at 16 points per
    wavelength) from ``g.node_values``, so a node's sign is that of a
    float64 value.
    """
    values = g.values
    if values is None or values.size == 0:
        raise EmptyGrid("no values")
    if g.bound is not None:
        return _certified_signs(values, g.bound, g.node_values)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = values @ np.ones(values.shape[1])
    if not (np.all(np.isfinite(sums)) or np.all(np.isfinite(values))):
        raise EmptyGrid("grid contains non-finite values")
    return sign_grid(values)


def _centre_signs(g: ScalarGrid, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The saddle rule: sign_grid of the centre mean of cells (i, j) of g.

    A saddle cell joins the diagonal whose sign is that of its centre mean,
    so its positive diagonal is joined exactly where this is True.  Node
    indices are taken mod the grid shape, so a torus cell may wrap.  The
    marching segments and the plane census read this rule, so they agree
    on every grid.  On a certified grid each corner errs by at most
    g.bound, and the float32 mean's three additions by less than that
    again, so ``_certified_signs`` signs the mean at twice the bound,
    averaging the corners' float64 values (``g.node_values``) where that
    cannot decide.
    """
    values = g.values
    nx, ny = values.shape
    i1, j1 = (i + 1) % nx, (j + 1) % ny
    center = 0.25 * (values[i, j] + values[i1, j] + values[i, j1]
                     + values[i1, j1])
    if g.bound is None:
        return sign_grid(center)

    def exact(k):
        flat = [p[k] * ny + q[k] for q in (j, j1) for p in (i, i1)]
        c00, c10, c01, c11 = np.split(g.node_values(np.concatenate(flat)), 4)
        return 0.25 * (c00 + c10 + c01 + c11)

    return _certified_signs(center, 2.0 * g.bound, exact)


def _merged_roots(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """The smallest node of each node's component, nodes 0..m-1, edges (a, b).

    Vectorised hooking: each round every edge whose ends have different roots
    hooks the larger root under the smaller one, and pointer jumping then
    points every node at its root.  A root with an edge to another tree
    hooks or is hooked, so the trees left at least halve each round.
    """
    lab = np.arange(m)
    while True:
        la, lb = lab[a], lab[b]
        act = la != lb
        if not act.any():
            return lab
        np.minimum.at(lab, np.maximum(la, lb)[act], np.minimum(la, lb)[act])
        while True:
            jumped = lab[lab]
            if np.array_equal(jumped, lab):
                break
            lab = jumped


# _LOW_BITS[b] has bits 0..b-1 set
_LOW_BITS = (np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1)


def _rank(words: np.ndarray, before: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The number of set bits below each position x >= 0 of a packed mask.

    words holds the mask's bits, bit b of word k being position 64 k + b;
    before[k] is the set bits of the words below k (G. Jacobson, Space-
    efficient static trees and graphs, FOCS 1989, 549-554).
    """
    k = x >> 6
    bits = words[k]
    bits &= _LOW_BITS[x & 63]
    rank = before[k]
    rank += np.bitwise_count(bits)
    return rank


def _run_boundaries(change: np.ndarray) -> np.ndarray:
    """np.flatnonzero(change) for a boolean mask of even length.

    numpy finds the set entries of a 1-D boolean array with a memchr loop
    up to 10% density and a branchless loop above it; the memchr loop is
    more than twice as slow just below the switch, where the row-change
    mask sits at 16 points per wavelength (9.4-9.8%).  Read as
    little-endian 16-bit pairs, the mask is about twice as dense, so its
    nonzero pairs come from the branchless loop.  A pair p equal to 1 sets
    position 2 p, 256 sets 2 p + 1 and 257, a one-node run or gap, both.
    """
    pairs = change.view("<u2")
    bounds = np.flatnonzero(pairs != 0)
    v = pairs[bounds]
    bounds <<= 1
    bounds += v == 256
    both = np.flatnonzero(v == 257)
    if len(both):
        bounds = np.insert(bounds, both + 1, bounds[both] + 1)
    return bounds


def count_components_plane(g: ScalarGrid) -> NodalCensus:
    """Census of a square-domain grid from the positive runs of its rows.

    P is the positive nodes with their 4-neighbour edges, the joined positive
    saddle diagonals and the all-positive cells.  A run is a maximal stretch
    of positive nodes in one row (first index); it is connected, and its
    nodes less its edges is 1.  Two runs of adjacent rows touch where their
    column ranges meet: an overlap of L nodes adds L edges and L - 1 cells,
    and runs that meet at one corner only touch across a saddle cell, whose
    positive diagonal P holds iff the saddle rule joins it.  So the Euler
    number chi(P) = nodes - edges - joins + cells (S. B. Gray, IEEE Trans.
    Computers C-20 (1971) 551-561) is runs - overlapping pairs - joined
    diagonals.  The components of P come from a forest that hangs each run
    under the first run above that it overlaps, merged across the other
    overlaps and the joined diagonals (``_merged_roots``).  Interior
    positive domains are the components with no run in the first or last
    row or at either end of a row; every interior negative domain is a hole
    of P, and holes = components - chi(P).

    The runs' starts and ends are the set bits of the row-change mask,
    alternating, built from a contiguous sign grid and enumerated from its
    nonzero 16-bit pairs (``_run_boundaries``), since a flatnonzero of the
    mask itself takes numpy's slow path below 10% density.  Packed into
    64-bit words, the mask answers rank queries, the number of its set bits
    below a flat position, without a search (``_rank``).  Halved, the ranks
    of a run's start and end moved up one row bound the runs above that it
    touches, and the ranks of the row starts give each row's first and last
    run, which the border test reads.
    """
    pos = grid_signs(g)
    if g.periodic:
        raise ValueError("the plane census needs a square grid; "
                         "count torus grids with count_components_torus")
    nx, ny = pos.shape
    w = ny + 1
    # with a False column on each side, the sign changes along the rows (the
    # first and last columns' signs at either end) are the runs' starts and
    # (exclusive) ends, alternating, as flat indices of an (nx + 1, w) grid
    # whose row 0 is empty, so a run's row above never lies below index 0;
    # zero bits pad the mask to whole words past its end, so a rank at any
    # position 0..(nx + 1) w reads a word
    size = (nx + 1) * w
    change = np.zeros((size // 64 + 1) * 64, dtype=bool)
    rows = change[w:size].reshape(nx, w)
    rows[:, 0] = pos[:, 0]
    np.not_equal(pos[:, 1:], pos[:, :-1], out=rows[:, 1:ny])
    rows[:, ny] = pos[:, -1]
    # the census frees its largest arrays once read, so that its peak stays
    # below the grid's size: glibc trims the heap, to be re-faulted on the
    # next draw, where more than twice its largest freed block (the grid)
    # lies free, and a float32 grid halved that
    del pos
    bounds = _run_boundaries(change)
    start, end = bounds[0::2], bounds[1::2]
    n = len(start)
    if n == 0:
        return NodalCensus(interior_components=0)
    words = np.packbits(change, bitorder="little").view("<u8")
    # the signs of the first and last columns, which the border test reads
    edge = rows[:, [0, ny]]
    del change, rows
    counts = np.bitwise_count(words)
    before = np.cumsum(counts, dtype=np.intp) - counts

    # runs lo..hi-1 of the row above touch run q: moved down one row, they
    # end at or after its start and start at or before its end.  With
    # rank(x) boundaries below flat index x, the first rank(x) // 2 runs end
    # below x and the first (rank(x) + 1) // 2 start below it.  Of the runs
    # lo..hi-1, only the first and the last can meet q at a single corner.
    lo = _rank(words, before, start - w) >> 1
    hi = (_rank(words, before, end - (w - 1)) + 1) >> 1
    touch = lo < hi
    left = np.flatnonzero(touch & (end[np.minimum(lo, n - 1)] + w == start))
    right = np.flatnonzero(touch & (start[hi - 1] + w == end))

    # each corner contact is one saddle cell, its top-left node in the row
    # above at column start - 1 (left) or end - 1 (right), and its positive
    # diagonal is joined where its centre mean is positive.  Less the empty
    # row, cells index the (nx, w) grid of the value rows.
    cells = np.concatenate([start[left], end[right]]) - (2 * w + 1)
    joined = _centre_signs(g, *np.divmod(cells, w))
    diag_above = np.concatenate([lo[left], hi[right] - 1])[joined]
    diag_below = np.concatenate([left, right])[joined]

    # the runs above that overlap q: first..first + overlaps - 1
    first = lo
    first[left] += 1
    overlaps = hi - first
    overlaps[right] -= 1
    hung = overlaps > 0
    parent = np.arange(n)
    parent[hung] = first[hung]
    # parent[k] lies a row above k, so a tree spans fewer than nx rows
    for _ in range(nx.bit_length()):
        parent = parent[parent]
    more = np.maximum(overlaps - 1, 0)
    below = np.repeat(np.arange(n), more)
    above = np.arange(len(below)) - np.repeat(np.cumsum(more) - more
                                              - first - 1, more)
    a = parent[np.concatenate([above, diag_above])]
    b = parent[np.concatenate([below, diag_below])]
    del more, below, above
    cross = a != b
    nodes, pair = np.unique(np.concatenate([a[cross], b[cross]]),
                            return_inverse=True)
    half = len(pair) // 2
    rep = np.arange(n)
    rep[nodes] = nodes[_merged_roots(pair[:half], pair[half:], len(nodes))]
    root = rep[parent]
    del a, b, cross, nodes, pair, rep, parent
    components = int(np.count_nonzero(root == np.arange(n)))

    # row r holds runs row[r]..row[r + 1] - 1: the first and last rows'
    # runs lie on the border, and so does a row's first (last) run where
    # the row's first (last) node is positive
    row = _rank(words, before, np.arange(1, nx + 2) * w) >> 1
    border = np.zeros(n, dtype=bool)
    border[:row[1]] = border[row[-2]:] = True
    border[row[:-1][edge[:, 0]]] = True
    border[row[1:][edge[:, 1]] - 1] = True
    euler = n - int(overlaps.sum()) - len(diag_below)
    return NodalCensus(interior_components=2 * components - euler
                       - len(np.unique(root[border])))


# ---------------------------------------------------------------------------
# Marching squares on the node lattice.
#
# Edge ids: the X-edge joining nodes (i, j), (i+1, j) is 2*(i*ny + j); the
# Y-edge joining (i, j), (i, j+1) is 2*(i*ny + j) + 1, node indices taken mod
# (nx, ny).  A torus grid's signs are padded by its first row and column,
# so its cells are those of a square grid and its wrapping edges reduce to
# the ids of row or column 0.  Each crossing edge carries one zero of f; a
# cell's case code S | E<<1 | N<<2 | W<<3 marks its crossed sides (0, 2 or 4
# of them), and a saddle (15) whose cell-center mean has the sign of its
# (i, j) corner becomes 16.  Segments come out grouped: _FIRST_GROUP maps a
# case to its (first) group, a saddle adds the next group too, and
# _GROUP_SIDES gives the two sides a group joins (0=S, 1=E, 2=N, 3=W).
# Within a group, cells run in row-major order.  The portraits' chain
# order, hence their bytes, depends on this order.

_GROUP_SIDES = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3],
                         [0, 1], [2, 3],     # saddle joining (S,E) + (N,W)
                         [0, 3], [1, 2]])    # saddle joining (S,W) + (N,E)
_FIRST_GROUP = np.full(17, -1, dtype=np.int8)
_FIRST_GROUP[[3, 5, 9, 6, 10, 12, 16, 15]] = [0, 1, 2, 3, 4, 5, 6, 8]


def marching_segments(g: ScalarGrid, label: np.ndarray | None = None):
    """Zero-curve segments as paired edge ids: returns (segA, segB) arrays.

    Segment k runs from edge segA[k] to edge segB[k] with the positive side
    on its left.  Seen from inside its cell, a segment leaving side s has on
    its left the corner that precedes s counter-clockwise: the first node of
    an S or E side, the second of an N or W side.  The nodes of a crossed
    edge differ in sign, so a segment runs from the side its group lists
    first unless that edge's first node is positive exactly when the side
    is N or W; then its ends swap.  A crossed edge shared by two cells is
    left by the segment of one and entered by that of the other.

    label, a boolean array indexed by edge id (2 nx ny entries), keeps only
    the segments whose two edges differ in label, in the order the call
    without it gives; it takes square grids only.  A cell with two crossed
    sides goes on to emission only if their labels XOR to 1; a saddle cell
    always goes on, and its two segments are tested once emitted.
    """
    signs = pos = grid_signs(g)
    nx, ny = signs.shape
    if g.periodic:
        if label is not None:
            raise ValueError("labeled marching segments need a square grid")
        pos = np.pad(signs, ((0, 1), (0, 1)), mode="wrap")
    hx = pos[:-1, :] != pos[1:, :]
    vy = pos[:, :-1] != pos[:, 1:]
    code = (hx[:, :-1].view(np.uint8) | vy[1:, :].view(np.uint8) << 1
            | hx[:, 1:].view(np.uint8) << 2 | vy[:-1, :].view(np.uint8) << 3)
    if label is None:
        # numpy's nonzero loop over a boolean array is the fast one
        cells = np.flatnonzero(code != 0)
    else:
        # the labels of the X- and Y-edges on the hx and vy lattices, kept
        # on crossed edges only
        lx = label[0::2].reshape(nx, ny)[:-1, :] & hx
        ly = label[1::2].reshape(nx, ny)[:, :-1] & vy
        odd = lx[:, :-1] ^ ly[1:, :] ^ lx[:, 1:] ^ ly[:-1, :]
        cells = np.flatnonzero(odd | (code == 15))
    if len(cells) == 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    ii, jj = np.divmod(cells, code.shape[1])
    case = code.ravel()[cells]

    saddle = np.flatnonzero(case == 15)
    si, sj = ii[saddle], jj[saddle]
    case[saddle] += _centre_signs(g, si, sj) == signs[si, sj]

    group = _FIRST_GROUP[case]
    group = np.concatenate([group, group[saddle] + 1])
    order = np.argsort(group, kind="stable")
    cell = np.concatenate([np.arange(len(cells)), saddle])[order]
    sides = _GROUP_SIDES[group[order]].T
    # side s of cell (i, j) is edge 2 (i ny + j) plus 0 (S), 2 ny + 1 (E),
    # 2 (N) or 1 (W); on a torus the last column's N sides wrap to column
    # 0, and then the ids past the last edge are the last row's E sides,
    # which wrap to row 0
    seg = (2 * (ii * ny + jj))[cell] + np.array([0, 2 * ny + 1, 2, 1])[sides]
    if g.periodic:
        seg[(sides == 2) & (jj[cell] == ny - 1)] -= 2 * ny
        seg[seg >= 2 * nx * ny] -= 2 * nx * ny
    # swap where the first-listed edge's first node is positive exactly when
    # that side is N or W, so that the positive side is on the left
    back = np.take(signs, seg[0] >> 1) == (sides[0] >= 2)
    seg[:, back] = seg[::-1, back]
    segA, segB = seg
    if label is not None:
        keep = label[segA] != label[segB]
        segA, segB = segA[keep], segB[keep]
    return segA, segB


def _edge_zeros(eids: np.ndarray, g: ScalarGrid):
    """The linear zero of f on each edge: (points, type, a, b, t).

    Type 0 is the X-edge from node a = (i, j) to b = (i+1, j), type 1 the
    Y-edge to b = (i, j+1); a and b are flat node indices, wrapped on a
    torus.  t in [0, 1] is where the linear interpolant of f from a to b
    vanishes (1/2 where f is equal at both), and the point is a + t (b - a)
    in coordinates.
    """
    values, xs, ys = g.values, g.xs, g.ys
    nx, ny = values.shape
    typ = eids & 1
    a = eids >> 1
    ii, jj = np.divmod(a, ny)
    b = np.where(typ == 0, (ii + 1) % nx * ny + jj, ii * ny + (jj + 1) % ny)
    hx = xs[1] - xs[0] if len(xs) > 1 else 1.0
    hy = ys[1] - ys[0] if len(ys) > 1 else 1.0

    va = np.take(values, a)
    denom = va - np.take(values, b)
    t = np.where(np.abs(denom) > 0, va / np.where(denom == 0, 1.0, denom), 0.5)
    t = np.clip(t, 0.0, 1.0)

    x = xs[ii] + np.where(typ == 0, t * hx, 0.0)
    y = ys[jj] + np.where(typ == 0, 0.0, t * hy)
    return np.column_stack([x, y]), typ, a, b, t


def edge_ports(eids: np.ndarray, g: ScalarGrid):
    """Interpolated zero coordinates for edge ids (linear along the edge)."""
    return _edge_zeros(eids, g)[0]


def edge_table(eids: np.ndarray, n_edges: int) -> np.ndarray:
    """The index of each edge id in eids, -1 where it is absent.

    eids holds each edge id at most once, as the starts, or the ends, of the
    marching segments do.
    """
    table = np.full(n_edges, -1, dtype=np.intp)
    table[eids] = np.arange(len(eids))
    return table


def count_components_torus(g: ScalarGrid) -> NodalCensus:
    """Zero-set components on the torus, split contractible vs wrapping.

    Every crossed edge lies in exactly two cells and each cell uses it once,
    so every port has degree 2 and the components are the cycles of the
    segment graph.  Run with the positive side on their left, as
    ``marching_segments`` gives them, the segments of a cycle follow each
    other one way round it: every crossed edge starts one segment, so the
    table of segment starts (``edge_table``) gives each segment its
    successor, the one starting where it ends.  Cycles are labeled by their
    smallest segment index with pointer doubling over the segments.  A
    simple closed curve that does not contract has a primitive homology
    class (p, q), so p or q is odd: a component wraps iff it crosses the
    x-seam or the y-seam an odd number of times.
    """
    # the marching signs g, so a grid that cannot be signed fails there
    segA, segB = marching_segments(g)
    nx, ny = g.values.shape
    if not g.periodic:
        raise ValueError("count_components_torus needs a torus grid")
    if nx < 3 or ny < 3:
        # a west-east segment would span half the period: its seam is undefined
        raise ValueError("torus census needs at least 3 nodes per axis")
    K = len(segA)
    if K == 0:
        return NodalCensus(interior_components=0)

    step = edge_table(segA, 2 * nx * ny)[segB]
    label = np.arange(K)
    for _ in range(K.bit_length()):
        label = np.minimum(label, label[step])
        step = step[step]
    roots = np.flatnonzero(label == np.arange(K))

    # a segment crosses a seam when its ports' node rows (or columns) are
    # not neighbours; with >= 3 nodes per axis they then differ by n - 1
    flatA, flatB = segA >> 1, segB >> 1
    dr = flatA // ny - flatB // ny
    cross_x = np.abs(dr) > 1
    cross_y = np.abs(flatA - flatB - ny * dr) > 1
    odd = ((np.bincount(label[cross_x], minlength=K) & 1)
           | (np.bincount(label[cross_y], minlength=K) & 1))
    wrap = int(np.count_nonzero(odd[roots]))
    return NodalCensus(interior_components=len(roots) - wrap,
                       wrapping_components=wrap)


# ---------------------------------------------------------------------------
# Flips: simultaneous zeros of (f, directional derivative of f).

def _slope_weights(gs: FieldSample, reach: float):
    """(w, spread, margin): the weights of g and the rounding margin of its
    signs at points whose coordinates are at most reach in magnitude.

    For the slope sample gs of g = d.grad f, w_k = sqrt(W_k) |(a_k, b_k)|
    |d.c_k|, so sum_k w_k bounds |g|.  The rounding model of the flips: cos
    and sin of a phase c_k.x are good to about eps |c_k.x|, so at points
    whose coordinates are at most X = reach in magnitude g errs by a modest
    multiple of eps spread, spread = sum_k w_k (1 + |c_k| X), in the grid
    tables, in ``evaluate_batch``, at a placed port and in the Taylor
    polynomials of ``_bisect`` alike.  margin = ROUNDING_MARGIN spread is
    far wider, so a value that clears it on one side has the sign of the
    exact value.
    """
    C = gs.frequencies
    w = gs.amplitudes() * np.hypot(gs.coeff_a, gs.coeff_b)
    spread = w @ (1.0 + reach * np.hypot(C[:, 0], C[:, 1]))
    return w, spread, ROUNDING_MARGIN * spread


def _port_bounds(gs: FieldSample, grid: ScalarGrid):
    """(bounds, clear) of the ports of g = d.grad f on grid.

    Along an X-edge (y fixed) g = sum_k sqrt(W_k) (d.c_k) (b_k cos phi_k
    - a_k sin phi_k), so |g''| <= B_x = sum_k w_k c_k1^2 and g departs from
    its linear interpolant by at most (h^2 / 8) B_x; Y-edges take c_k2^2.
    bounds holds that for X- and Y-edges, inflated by (1 + 1e-6), plus the
    margin of ``_slope_weights`` at the grid's reach.  clear is the larger
    bound plus room for the rounding of an interpolant, 8 eps (sum_k w_k +
    bound): a port whose nodes' g both clear it on one side gets the sign
    the interpolant would certify.
    """
    reach = max(np.abs(grid.xs).max(), np.abs(grid.ys).max())
    w, _, margin = _slope_weights(gs, reach)
    C = gs.frequencies
    bounds = grid.h * grid.h / 8.0 * (w @ (C * C)) * (1.0 + 1e-6) + margin
    top = bounds.max()
    return bounds, top + 8.0 * EPS * (w.sum() + top)


def _sign_changes(gs: FieldSample, grid: ScalarGrid):
    """(lo, hi, slo) of the zero segments whose ports differ in sign.

    The ports are the crossed edges of f's grid, in edge-id order, from one
    flatnonzero of the (nx, ny, 2) crossing mask: every crossed edge ends a
    segment.  g = d.grad f, the slope sample gs, is evaluated on the same
    lattice and read at the ports' nodes only, so its grid dies before the
    marching.  Each port is signed once: by its nodes' g where both clear
    ``_port_bounds``' clear on one side, else from g interpolated linearly
    along its edge to the port (``_edge_zeros``) where the edge type's
    bound certifies it, else by evaluation.  The signs fill a dense edge
    table, and ``marching_segments`` labeled by it emits only the segments
    whose two ports get opposite signs of g: lo and hi are their ports and
    slo the sign at lo.
    """
    pos = grid_signs(grid)
    nx, ny = pos.shape
    crossed = np.zeros((nx, ny, 2), dtype=bool)
    np.not_equal(pos[:-1, :], pos[1:, :], out=crossed[:-1, :, 0])
    np.not_equal(pos[:, :-1], pos[:, 1:], out=crossed[:, :-1, 1])
    ports = np.flatnonzero(crossed)
    del pos, crossed
    # g's grid is read at the ports' nodes and freed at once: kept alive
    # with f's through the marching, it raised a draw's heap peak from 2.4
    # to 3.8 MB, and in some processes glibc then trimmed and re-faulted
    # the heap on every draw
    node = ports >> 1
    slopes = evaluate_grid(gs, grid.domain, grid.h).values
    ga = np.take(slopes, node)
    node += np.where(ports & 1, 1, ny)
    gb = np.take(slopes, node)
    del slopes, node
    bounds, clear = _port_bounds(gs, grid)
    # a port's g lies within its bound of its interpolant, which lies
    # between its nodes' g
    up = sign_grid(ga - clear) & sign_grid(gb - clear)
    rest = np.flatnonzero(~up & (sign_grid(ga + clear)
                                 | sign_grid(gb + clear)))
    signs = np.zeros(2 * nx * ny, dtype=bool)
    signs[ports] = up
    ports = ports[rest]
    a, b = ga[rest], gb[rest]
    pts, typ, _, _, t = _edge_zeros(ports, grid)
    est = a + t * (b - a)
    for e in (0, 1):                    # X- and Y-edges, each its bound
        k = np.flatnonzero(typ == e)
        signs[ports[k]] = _certified_signs(
            est[k], bounds[e], lambda u: evaluate_batch(gs, pts[k[u]]))
    segA, segB = marching_segments(grid, label=signs)
    return (_edge_zeros(segA, grid)[0], _edge_zeros(segB, grid)[0],
            signs[segA])


def _taylor_degree(w: np.ndarray, spread: float, step: float, tol: float):
    """The least degree P whose Taylor polynomials of g = Re sum_k p_k
    exp(i Delta_k tau), |Delta_k| <= step, err by at most tol on
    0 <= tau <= 1, or None where no degree does.

    The truncation is at most sum_k w_k step^(P+1) / (P+1)!.  The
    coefficients and Horner's rule sum terms of total size at most
    exp(step) spread (``_slope_weights``), with about 4 P + m + 32
    roundings each (m pairs, the phases and the float midpoints included).
    """
    m = len(w)
    growth = EPS * math.exp(min(step, 700.0)) * spread
    truncation, P = w.sum(), 0
    while True:
        truncation *= step / (P + 1)
        rounding = (4 * P + m + 32) * growth
        if rounding > tol:
            return None
        if truncation + rounding <= tol:
            return P
        P += 1


def _bisect(gs: FieldSample, lo: np.ndarray, hi: np.ndarray,
            slo: np.ndarray) -> np.ndarray:
    """Midpoints of [lo, hi] after ten bisection steps on the sign of g.

    gs is the slope sample of g = d.grad f; slo is the sign of g at lo, the
    opposite one at hi.  Each step signs the float midpoint 0.5 (lo + hi)
    with ``_certified_signs`` and keeps the half where the sign changes.
    Every midpoint lies within the candidates' reach, the largest
    |coordinate| over lo and hi, so the margin of ``_slope_weights`` there
    signs them all.  The estimate of g comes from one Taylor polynomial per
    candidate in the segment parameter tau: along lo + tau (hi - lo),
    g = Re sum_k p_k exp(i Delta_k tau) = sum_n A_n tau^n with
    p_k = q_k exp(i c_k.lo), q_k = sqrt(W_k) (a'_k - i b'_k) for the pairs
    (a', b') of gs, Delta_k = c_k.(hi - lo) and
    A_n = Re sum_k p_k (i Delta_k)^n / n!, read by Horner's rule at the
    step's dyadic tau.  The degree is the least for which truncation and
    rounding (``_taylor_degree``) stay within a thousandth of the margin, so
    every sign and midpoint is the one exact evaluation at every step gives.
    Where no degree does (segments spanning about a wavelength), the
    estimate is 0 with an infinite bound, so every midpoint is evaluated.
    """
    C = gs.frequencies
    amp = gs.amplitudes()
    wa, wb = amp * gs.coeff_a, amp * gs.coeff_b
    reach = max(np.abs(lo).max(initial=0.0), np.abs(hi).max(initial=0.0))
    w, spread, margin = _slope_weights(gs, reach)
    delta = (hi - lo) @ C.T               # (N, m)
    degree = _taylor_degree(w, spread, np.abs(delta).max(initial=0.0),
                            1e-3 * margin)
    if degree is not None:
        # Re(p_k i^n) is Re p_k, -Im p_k, -Re p_k, Im p_k for n = 0, 1, 2, 3
        # (mod 4): even and odd carry Re p_k Delta_k^n and -Im p_k Delta_k^n
        ph = lo @ C.T
        cp, sp = np.cos(ph), np.sin(ph, out=ph)
        even = wa * cp
        even += wb * sp
        odd = wb * cp
        odd -= wa * sp
        odd *= delta
        delta *= delta
        ones = np.ones(len(wa))
        A = np.empty((degree + 1, len(lo)))
        for n in range(degree + 1):
            t = odd if n & 1 else even
            if n >= 2:
                t *= delta
            np.matmul(t, ones, out=A[n])
            A[n] *= (-1.0) ** (n >> 1) / math.factorial(n)
    tlo = np.zeros(len(lo))
    for j in range(1, 11):
        mid = 0.5 * (lo + hi)
        tmid = tlo + 0.5 ** j
        if degree is None:
            g, bound = np.zeros(len(lo)), math.inf
        else:
            g, bound = A[degree].copy(), margin
            for n in range(degree - 1, -1, -1):
                g *= tmid
                g += A[n]
        # where mid has lo's sign, the sign change sits in [mid, hi]
        up = _certified_signs(
            g, bound, lambda k: evaluate_batch(gs, mid[k])) == slo
        lo = np.where(up[:, None], mid, lo)
        hi = np.where(up[:, None], hi, mid)
        tlo = np.where(up, tmid, tlo)
    return 0.5 * (lo + hi)


def _flip_locations(s: FieldSample, domain: SquareDomain, h: float | None,
                    direction) -> np.ndarray:
    """The (n, 2) locations of the n flips ``count_flips`` counts: in the
    closed domain, the first in segment order of each bucket of side h/4."""
    d = unit_direction(direction)
    if not isinstance(domain, SquareDomain):
        raise TypeError(f"count_flips needs a square domain, got {domain!r}")
    R = domain.R
    if not R > 0:
        raise ValueError("square half-side R must be positive")
    if h is None:
        h = default_spacing(s)
    gs = _slope_sample(s, d)
    # the grid dies with _sign_changes, before the Taylor coefficients are
    # built
    lo, hi, slo = _sign_changes(
        gs, evaluate_grid(s, SquareDomain(R + 2.0 * h), h))
    locs = _bisect(gs, lo, hi, slo)

    # closed-domain filter at the bisection resolution (boundary flips are
    # approached from either side, so an exact-R cut would drop them)
    tol = max(1e-9, h / 256.0)
    inside = (np.abs(locs[:, 0]) <= R + tol) & (np.abs(locs[:, 1]) <= R + tol)
    locs = locs[inside]
    # dedup detections of one flip seen from adjacent degenerate cells
    buckets = np.round(locs / (h / 4.0)).astype(np.int64)
    _, keep = np.unique(buckets, axis=0, return_index=True)
    return locs[np.sort(keep)]


def count_flips(s: FieldSample, domain: SquareDomain, h: float | None = None,
                direction=(1.0, 0.0)) -> int:
    """Count points of the closed square where f and d.grad f both vanish.

    d = ``unit_direction(direction)`` (the default counts axis-1 flips).
    The zero segments of f whose two ports see opposite signs of
    g = d.grad f are refined by 10 bisection steps (``_bisect``), and each
    contributes one flip if the refined location lies in the closed domain;
    the count is the number of ``_flip_locations``.  The grid is padded by
    two cells so boundary flips are caught; the tie rule makes exactly-zero
    corners deterministic.

    g is the slope sample of f (``_slope_sample``), so the call evaluates
    the value grids of f and of g, and no derivative grid.  A crossing port
    ends two segments, so each port (crossed edge) is signed once
    (``_sign_changes``): from its nodes' g where both clear the larger port
    bound on one side (all but 6-9% of the ports at 16 points per
    wavelength), else from g interpolated along its edge where the
    interpolation bound of ``_port_bounds`` gives every value g can take
    one sign.  ``marching_segments`` labeled by the port signs emits only
    the segments whose two signs differ (about 3% of them at 16 points per
    wavelength), in the order of the unlabeled call.  A midpoint's sign
    comes from a Taylor polynomial of g along its segment wherever the
    rounding margin of ``_slope_weights`` does.  Only the other points
    (2-3% of the ports at 16 points per wavelength, about one midpoint in
    3,000) are evaluated with ``evaluate_batch`` (``_certified_signs``), so
    every sign, count and location is the one an exact evaluation at every
    port and midpoint gives.
    """
    return len(_flip_locations(s, domain, h, direction))


def count_curve_intersections(s: FieldSample, p0, p1) -> int:
    """Sign-change count of f along the closed segment p0 -> p1.

    f is sampled at both ends and at most ``default_spacing(s)`` apart
    between them, the resolution of the default grids.  A segment that
    needs more than MAX_GRID_NODES samples raises ValueError before any is
    allocated, as ``fields.grid_axes`` does for a lattice, and so does a
    sample that is not finite.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if not (np.all(np.isfinite(p0)) and np.all(np.isfinite(p1))):
        raise ValueError(f"segment endpoints must be finite, got {p0}, {p1}")
    with np.errstate(over="ignore"):     # past the float range: inf
        length = float(np.hypot(*(p1 - p0)))
    if length <= 0:
        raise ValueError("segment length must be positive")
    steps = length / default_spacing(s)
    if not steps + 1.0 <= MAX_GRID_NODES:
        raise ValueError(f"a segment of length {length:.4g} needs "
                         f"{steps + 1.0:.4g} samples, past MAX_GRID_NODES")
    n = max(2, int(math.ceil(steps)) + 1)
    ts = np.linspace(0.0, 1.0, n)
    pts = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
    f = evaluate_batch(s, pts)
    if not np.all(np.isfinite(f)):
        raise ValueError("f is not finite on the segment")
    pos = sign_grid(f)
    return int(np.count_nonzero(pos[1:] != pos[:-1]))
