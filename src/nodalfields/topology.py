"""Nodal censuses on grids: components, domain areas, flips, intersections.

Counting convention: a compact zero-set component is the outer boundary of
exactly one bounded sign-domain.  On squares a sign-domain is a 4-connected
set of same-sign nodes together with the saddle diagonals the zero set
leaves joined: in a saddle cell (all four sides crossed) the diagonal whose
sign is that of the cell-centre mean is joined, the rule the marching
segments use, so the domains away from the border are exactly the closed
cycles of the segment graph.  ``count_components_plane`` labels the
positive set once, merges the labels of the joined positive diagonals,
counts the negative interior domains as the holes of that set from one
Euler sum, and reads the border domains off the signs around the border
ring.  ``interior_domain_areas`` labels both signs, merges them the same
way and returns the areas of the interior domains, for the small-domain
statistics.  On the torus, zero-set components are counted directly from
the marching-squares crossing graph: every port there has degree 2, so
components are cycles, and a cycle wraps iff it crosses the x-seam or the
y-seam an odd number of times.

That graph is the one zero-set graph of the package: ``half_edge_successors``
pairs the segments meeting at each crossing port, and both the torus census
and the portraits (``portraits.zero_polylines``) walk its successors.

Values with |f| < TIE_TOL are treated as positive (measure-zero event,
deterministic tie rule), through ``sign_grid`` only: at grid nodes, and at the
ports, bisection midpoints and line samples of flips and intersections.

Flips sign g = d.grad f at each crossing port from the order-1 grid: g is
interpolated linearly along the port's edge, and the interpolation error is
at most (h^2/8) sum_k sqrt(W_k) |(a_k, b_k)| |d.c_k| c_kj^2 (j the edge's
axis), inflated by 1e-6 and widened by a rounding margin (``_port_slopes``).
Where both ends of that interval around the interpolant get one sign, so
does the exact value; the few other ports are evaluated with
``evaluate_batch``.  So every flip count and location equals the one an
exact evaluation at every port gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import EmptyGrid
from .fields import (
    FieldSample,
    ScalarGrid,
    SquareDomain,
    default_spacing,
    evaluate_batch,
    evaluate_grid,
    unit_direction,
)

TIE_TOL = 1e-14

_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


@dataclass
class NodalCensus:
    """Component counts of one gridded sample.

    On squares: interior_components = compact zero-set components, i.e.
    sign-domains away from the border, a domain being 4-connected plus the
    joined saddle diagonals (see the module docstring); boundary_components
    = sign-domains touching the grid border.  On the torus:
    interior_components = contractible zero-set components,
    wrapping_components the rest.  The areas of the bounded square domains
    come from ``interior_domain_areas``.
    """

    interior_components: int
    boundary_components: int = 0
    wrapping_components: int = 0

    @property
    def total_components(self) -> int:
        return self.interior_components + self.wrapping_components


def sign_grid(values: np.ndarray) -> np.ndarray:
    """Boolean positivity grid under the tie rule (|f| < TIE_TOL counts +)."""
    return values > -TIE_TOL


def _census_values(g: ScalarGrid, periodic: bool) -> np.ndarray:
    """The values of a torus (periodic) or square grid, or a loud failure."""
    if g.values is None or g.values.size == 0:
        raise EmptyGrid("no values")
    if g.periodic != periodic:
        raise ValueError("count_components_torus needs a torus grid"
                         if periodic else
                         "the plane census needs a square grid; "
                         "count torus grids with count_components_torus")
    if not np.all(np.isfinite(g.values)):
        raise EmptyGrid("grid contains non-finite values")
    return g.values


def _joins_main_diagonal(values: np.ndarray, i: np.ndarray,
                         j: np.ndarray) -> np.ndarray:
    """The saddle rule: which diagonal of saddle cell (i, j) is joined.

    True where the (i, j)-(i+1, j+1) diagonal is joined, i.e. where the
    cell-centre mean has the sign of the (i, j) corner; elsewhere the
    (i+1, j)-(i, j+1) diagonal is.  The marching segments and both square
    censuses read this rule, so they agree on every grid.
    """
    corner = values[i, j]
    center = 0.25 * (corner + values[i + 1, j] + values[i, j + 1]
                     + values[i + 1, j + 1])
    return sign_grid(center) == sign_grid(corner)


def _saddle_joins(values: np.ndarray, pos: np.ndarray):
    """(i, j, main, up) of every saddle cell, whose four sides are crossed.

    main is the saddle rule; up is True where the joined diagonal is
    positive.  A cell whose S, N and W sides are crossed has its E side
    crossed too, so one full-grid test of S and N finds the candidates.
    """
    hx = pos[:-1, :] != pos[1:, :]
    i, j = np.divmod(np.flatnonzero(hx[:, :-1] & hx[:, 1:]),
                     pos.shape[1] - 1)
    keep = pos[i, j] != pos[i, j + 1]
    i, j = i[keep], j[keep]
    main = _joins_main_diagonal(values, i, j)
    return i, j, main, main == pos[i, j]


def _merged_domains(labels: np.ndarray, n: int, i, j, main):
    """Merge 4-connected labels 1..n across joined saddle diagonals.

    (i, j, main) are saddle cells whose joined diagonal joins two labelled
    nodes.  Returns (rep, inner): rep[k] is the smallest label merged with k,
    and inner[k] is True iff k > 0 is such a representative and no part of
    its merged domain touches the grid border.  The union-find runs over the
    labels the joins touch only.
    """
    rep = np.arange(n + 1)
    a = labels[i, j + ~main]
    b = labels[i + 1, j + main]
    if len(a):
        nodes, pair = np.unique(np.concatenate([a, b]), return_inverse=True)
        parent = list(range(len(nodes)))

        def find(x):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        for x, y in zip(pair[:len(a)].tolist(), pair[len(a):].tolist()):
            x, y = find(x), find(y)
            parent[max(x, y)] = min(x, y)
        rep[nodes] = nodes[[find(x) for x in range(len(nodes))]]
    inner = rep == np.arange(n + 1)
    inner[rep[np.concatenate([labels[0, :], labels[-1, :],
                              labels[:, 0], labels[:, -1]])]] = False
    inner[0] = False
    return rep, inner


def _border_domains(pos: np.ndarray) -> int:
    """Sign-domains touching the border, from the signs around it.

    Each open zero curve runs between two sign changes of the border ring
    and splits the square in two, so m open curves leave m + 1 border
    domains.  A grid one node wide is all border: its domains are its runs.
    """
    if min(pos.shape) == 1:
        line = pos.ravel()
        return int(np.count_nonzero(line[1:] != line[:-1])) + 1
    ring = np.concatenate([pos[0, :], pos[1:, -1], pos[-1, -2::-1],
                           pos[-2::-1, 0]])
    return int(np.count_nonzero(ring[1:] != ring[:-1])) // 2 + 1


def count_components_plane(g: ScalarGrid) -> NodalCensus:
    """Census of a square-domain grid from one labeling of the positive set.

    P is the positive nodes with their 4-neighbour edges, the joined positive
    saddle diagonals and the all-positive cells.  Interior positive domains
    are the merged components of P away from the border.  Every interior
    negative domain is a hole of P, and holes = components - Euler number,
    with chi(P) = nodes - edges - joins + cells (S. B. Gray, IEEE Trans.
    Computers C-20 (1971) 551-561).
    """
    values = _census_values(g, periodic=False)
    pos = sign_grid(values)
    labels, n = ndimage.label(pos, structure=_FOUR_CONN)
    i, j, main, up = _saddle_joins(values, pos)
    rep, inner = _merged_domains(labels, n, i[up], j[up], main[up])
    components = int(np.count_nonzero(rep == np.arange(n + 1))) - 1

    hp = pos[:-1, :] & pos[1:, :]
    edges = np.count_nonzero(hp) + np.count_nonzero(pos[:, :-1] & pos[:, 1:])
    cells = np.count_nonzero(hp[:, :-1] & hp[:, 1:])
    euler = int(np.count_nonzero(pos) - edges - np.count_nonzero(up) + cells)
    return NodalCensus(
        interior_components=int(np.count_nonzero(inner)) + components - euler,
        boundary_components=_border_domains(pos))


def interior_domain_areas(g: ScalarGrid) -> np.ndarray:
    """Sorted areas (nodes x h^2) of the sign-domains away from the border.

    Labels each sign, merges the parts a joined saddle diagonal connects and
    sums their areas: the domains ``count_components_plane`` counts.
    """
    values = _census_values(g, periodic=False)
    pos = sign_grid(values)
    i, j, main, up = _saddle_joins(values, pos)
    areas = []
    for mask, joined in ((pos, up), (~pos, ~up)):
        labels, n = ndimage.label(mask, structure=_FOUR_CONN)
        rep, inner = _merged_domains(labels, n, i[joined], j[joined],
                                     main[joined])
        sizes = np.bincount(rep, np.bincount(labels.ravel()), n + 1)
        areas.append(sizes[inner] * g.h * g.h)
    return np.sort(np.concatenate(areas))


# ---------------------------------------------------------------------------
# Marching squares on the node lattice.
#
# Edge ids: the X-edge joining nodes (i, j), (i+1, j) is 2*(i*ny + j); the
# Y-edge joining (i, j), (i, j+1) is 2*(i*ny + j) + 1, node indices taken mod
# (nx, ny).  A torus grid is padded by its first row and column, so its
# cells are those of a square grid and its wrapping edges reduce to the ids
# of row or column 0.  Each crossing edge carries one zero of f; a cell's
# case code S | E<<1 | N<<2 | W<<3 marks its crossed sides (0, 2 or 4 of
# them), and a saddle (15) whose cell-center mean has the sign of its (i, j)
# corner becomes 16.  Segments come out grouped: _FIRST_GROUP maps a case
# to its (first) group, a saddle adds the next group too, and _GROUP_SIDES
# gives the two sides a group joins (0=S, 1=E, 2=N, 3=W).  Within a group,
# cells run in row-major order.  The portraits' chain order, hence their
# bytes, depends on this order.

_GROUP_SIDES = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3],
                         [0, 1], [2, 3],     # saddle joining (S,E) + (N,W)
                         [0, 3], [1, 2]])    # saddle joining (S,W) + (N,E)
_FIRST_GROUP = np.full(17, -1, dtype=np.int8)
_FIRST_GROUP[[3, 5, 9, 6, 10, 12, 16, 15]] = [0, 1, 2, 3, 4, 5, 6, 8]


def marching_segments(g: ScalarGrid):
    """Zero-curve segments as paired edge ids: returns (segA, segB) arrays."""
    nx, ny = g.values.shape
    values = (np.pad(g.values, ((0, 1), (0, 1)), mode="wrap") if g.periodic
              else g.values)
    pos = sign_grid(values)
    hx = pos[:-1, :] != pos[1:, :]
    vy = pos[:, :-1] != pos[:, 1:]
    code = (hx[:, :-1].view(np.uint8) | vy[1:, :].view(np.uint8) << 1
            | hx[:, 1:].view(np.uint8) << 2 | vy[:-1, :].view(np.uint8) << 3)
    cells = np.flatnonzero(code)
    if len(cells) == 0:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    ii, jj = np.divmod(cells, code.shape[1])
    case = code.ravel()[cells]

    saddle = np.flatnonzero(case == 15)
    case[saddle] += _joins_main_diagonal(values, ii[saddle], jj[saddle])

    group = _FIRST_GROUP[case]
    group = np.concatenate([group, group[saddle] + 1])
    order = np.argsort(group, kind="stable")
    cell = np.concatenate([np.arange(len(cells)), saddle])[order]
    ii, jj = ii[cell], jj[cell]
    sides = _GROUP_SIDES[group[order]].T
    # side s lies on the edge of type s & 1 at node (i+1, j) for E, (i, j+1)
    # for N and (i, j) otherwise
    row = np.where(sides == 1, (ii + 1) % nx, ii)
    col = np.where(sides == 2, (jj + 1) % ny, jj)
    segA, segB = 2 * (row * ny + col) + (sides & 1)
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


def half_edge_successors(segA: np.ndarray, segB: np.ndarray) -> np.ndarray:
    """Successor of each half-edge in the marching-segment graph.

    Half-edge 2k runs segA[k] -> segB[k] and 2k + 1 runs back, so h ^ 1 is
    the reverse of h and h >> 1 its segment.  The successor of h leaves the
    end port of h along the port's other segment; it is -1 where that port
    has degree 1 (a crossing on the boundary of a square grid).  Every port
    has degree at most 2: an edge lies in at most two cells, each using it
    once.
    """
    ports = np.column_stack([segA, segB]).ravel()
    order = np.argsort(ports, kind="stable")
    pair = np.flatnonzero(ports[order[1:]] == ports[order[:-1]])
    mate = np.full(len(ports), -1, dtype=np.int64)
    mate[order[pair]] = order[pair + 1]
    mate[order[pair + 1]] = order[pair]
    return mate[np.arange(len(ports)) ^ 1]


def count_components_torus(g: ScalarGrid) -> NodalCensus:
    """Zero-set components on the torus, split contractible vs wrapping.

    Every crossed edge lies in exactly two cells and each cell uses it once,
    so every port has degree 2 and the components are the cycles of the
    segment graph.  Cycles are labeled by their smallest segment index with
    pointer doubling over half-edges.  A simple closed curve that does not
    contract has a primitive homology class (p, q), so p or q is odd: a
    component wraps iff it crosses the x-seam or the y-seam an odd number of
    times.
    """
    values = _census_values(g, periodic=True)
    nx, ny = values.shape
    if nx < 3 or ny < 3:
        # a west-east segment would span half the period: its seam is undefined
        raise ValueError("torus census needs at least 3 nodes per axis")
    segA, segB = marching_segments(g)
    K = len(segA)
    if K == 0:
        return NodalCensus(interior_components=0)

    step = half_edge_successors(segA, segB)
    label = np.arange(2 * K) >> 1
    for _ in range((2 * K).bit_length()):
        label = np.minimum(label, label[step])
        step = step[step]
    label = label[0::2]
    roots = np.flatnonzero(label == np.arange(K))

    # a segment crosses a seam when its ports' node rows (or columns) are
    # not neighbours; with >= 3 nodes per axis they then differ by n - 1
    flatA, flatB = segA >> 1, segB >> 1
    cross_x = np.abs(flatA // ny - flatB // ny) > 1
    cross_y = np.abs(flatA % ny - flatB % ny) > 1
    odd = ((np.bincount(label[cross_x], minlength=K) & 1)
           | (np.bincount(label[cross_y], minlength=K) & 1))
    wrap = int(np.count_nonzero(odd[roots]))
    return NodalCensus(interior_components=len(roots) - wrap,
                       wrapping_components=wrap)


# ---------------------------------------------------------------------------
# Flips: simultaneous zeros of (f, directional derivative of f).

def _port_slopes(s: FieldSample, grid: ScalarGrid, d: np.ndarray,
                 eids: np.ndarray):
    """Ports of edges eids, d.grad f interpolated there, and its error bound.

    Returns (points, slope, bound).  slope interpolates d.grad f of the
    order-1 grid linearly between the two nodes of the edge, at the port's
    edge parameter.  Along an X-edge (y fixed)
    g = sum_k sqrt(W_k) (d.c_k) (b_k cos phi_k - a_k sin phi_k), so
    |g''| <= B_x = sum_k sqrt(W_k) |(a_k, b_k)| |d.c_k| c_k1^2 and
    |g - slope| <= (h^2 / 8) B_x; Y-edges take c_k2^2.  bound is that,
    inflated by (1 + 1e-6), plus a rounding margin
    1e-9 sum_k sqrt(W_k) |(a_k, b_k)| |d.c_k| (1 + |c_k| X), X the largest
    coordinate of the grid: cos and sin of a phase c.x are good to about
    eps |c.x|, in the grid tables, in ``evaluate_batch`` and at the placed
    port alike, and sum_k sqrt(W_k) |(a_k, b_k)| |d.c_k| bounds |g|.
    """
    pts, typ, a, b, t = _edge_zeros(eids, grid)

    def node_slope(n):
        return d[0] * np.take(grid.d1, n) + d[1] * np.take(grid.d2, n)

    ga = node_slope(a)
    slope = ga + t * (node_slope(b) - ga)
    C = s.frequencies
    w = s.amplitudes() * np.hypot(s.coeff_a, s.coeff_b) * np.abs(C @ d)
    reach = max(np.abs(grid.xs).max(), np.abs(grid.ys).max())
    curvature = grid.h * grid.h / 8.0 * (w @ (C * C))     # X-edge, Y-edge
    margin = 1e-9 * (w @ (1.0 + reach * np.hypot(C[:, 0], C[:, 1])))
    return pts, slope, curvature[typ] * (1.0 + 1e-6) + margin


def count_flips(s: FieldSample, domain: SquareDomain, h: float | None = None,
                direction=(1.0, 0.0), return_locations: bool = False):
    """Count points of the closed square where f and d.grad f both vanish.

    d = ``unit_direction(direction)`` (the default counts axis-1 flips).
    Cells are scanned for a zero segment of f whose endpoints see opposite
    signs of g = d.grad f; each such segment is
    refined by 10 bisection steps and contributes one flip if the refined
    location lies in the closed domain.  A crossing port ends two segments,
    so each unique port is signed once and every segment reads the signs of
    its two ports.  A port's sign comes from g interpolated along its edge
    from the order-1 grid wherever the interpolation bound of
    ``_port_slopes`` gives every value g can take one sign; only the other
    ports (2-3% of them at 16 points per wavelength) are evaluated exactly,
    so every sign, count and location is the one an exact evaluation at
    every port gives.  The grid is padded by one cell so boundary flips are
    caught; the tie rule makes exactly-zero corners deterministic.
    """
    d = unit_direction(direction)
    R = domain.R
    if not R > 0:
        raise ValueError("square half-side R must be positive")
    if h is None:
        h = default_spacing(s)
    pad = SquareDomain(R + 2.0 * h)
    grid = evaluate_grid(s, pad, h, order=1)
    segA, segB = marching_segments(grid)
    K = len(segA)
    if K == 0:
        return (0, np.zeros((0, 2))) if return_locations else 0

    ports, inv = np.unique(np.concatenate([segA, segB]), return_inverse=True)
    pts, slope, bound = _port_slopes(s, grid, d, ports)

    def gval(p):
        _, grads = evaluate_batch(s, p, order=1)
        return grads @ d

    # sign_grid is monotone: where both ends of slope +- bound get one sign,
    # so does every value g can take
    sg = sign_grid(slope + bound)
    unsure = np.flatnonzero(sg != sign_grid(slope - bound))
    sg[unsure] = sign_grid(gval(pts[unsure]))
    ia, ib = inv[:K], inv[K:]
    sga = sg[ia]
    cand = sga != sg[ib]
    if not np.any(cand):
        return (0, np.zeros((0, 2))) if return_locations else 0

    lo, hi = pts[ia[cand]], pts[ib[cand]]
    slo = sga[cand]
    for _ in range(10):
        mid = 0.5 * (lo + hi)
        smid = sign_grid(gval(mid))
        take_lo = smid == slo            # sign change sits in [mid, hi]
        lo[take_lo] = mid[take_lo]
        hi[~take_lo] = mid[~take_lo]
    locs = 0.5 * (lo + hi)

    # closed-domain filter at the bisection resolution (boundary flips are
    # approached from either side, so an exact-R cut would drop them)
    tol = max(1e-9, h / 256.0)
    inside = (np.abs(locs[:, 0]) <= R + tol) & (np.abs(locs[:, 1]) <= R + tol)
    locs = locs[inside]
    if len(locs) == 0:
        return (0, np.zeros((0, 2))) if return_locations else 0
    # dedup detections of one flip seen from adjacent degenerate cells
    buckets = np.round(locs / (h / 4.0)).astype(np.int64)
    _, keep = np.unique(buckets, axis=0, return_index=True)
    locs = locs[np.sort(keep)]
    n = len(locs)
    return (n, locs) if return_locations else n


def count_curve_intersections(s: FieldSample, p0, p1,
                              h: float | None = None) -> int:
    """Sign-change count of f along the closed segment p0 -> p1."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if not (np.all(np.isfinite(p0)) and np.all(np.isfinite(p1))):
        raise ValueError(f"segment endpoints must be finite, got {p0}, {p1}")
    length = float(np.hypot(*(p1 - p0)))
    if length <= 0:
        raise ValueError("segment length must be positive")
    if h is None:
        h = default_spacing(s)
    n = max(2, int(math.ceil(length / h)) + 1)
    ts = np.linspace(0.0, 1.0, n)
    pts = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
    pos = sign_grid(evaluate_batch(s, pts, order=0))
    return int(np.count_nonzero(pos[1:] != pos[:-1]))
