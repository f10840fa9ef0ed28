"""Test-only helpers: analytic grids and independent oracles.

``grid_from_callable`` grids a closed-form function for the census tests.
The others compute what the package computes another way: the covariance
of a sample from its coefficient structure (``representation_covariance``)
or by Monte Carlo (``covariance_mc``), a sample's gradients and Hessians
at points from its trigonometric sum (``point_gradients``,
``point_hessians``), its value grid, and the former jet formula of its
derivative grids, from transposed y tables and stacked right factors
(``stacked_jet_grids``),
E|XY| by quadrature (``abs_product_mean_quad``), r2(n) from the divisors
of n (``r2_divisor_oracle``), the plane census from a 4-connected labeling
of the positive set (``ndimage_plane_census``, fast enough for sampled
grids at R = 40), the half-edge successors of the marching segments from
a sort of their ports, blind to orientation (``half_edge_successors``), and
from them the torus census (``half_edge_torus_census``) and the portrait
chains (``half_edge_polylines``), and the flips' candidate
segments from every marching segment and its unique ports
(``sign_changes_oracle``).  ``circle_convolution`` builds composite circle
measures for the pair-table tests.  The package does
not import this module, and pytest does not collect it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, ndimage

from nodalfields.fields import (
    FieldSample,
    ScalarGrid,
    _philox,
    _slope_sample,
    grid_axes,
)
from nodalfields.measures import (
    SpectralMeasure,
    _circle_points,
    antipodal_pairs,
    make_atomic,
)
from nodalfields.topology import (
    NodalCensus,
    _centre_signs,
    _edge_zeros,
    _port_bounds,
    edge_ports,
    grid_signs,
    marching_segments,
    sign_grid,
)

_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


def grid_from_callable(fn, domain, h: float) -> ScalarGrid:
    """Grid of an arbitrary function fn(X, Y) (vectorized); analysis hook."""
    xs, ys, h_eff = grid_axes(domain, h)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return ScalarGrid(domain=domain, h=h_eff, xs=xs, ys=ys,
                      values=np.asarray(fn(X, Y), dtype=float))


def representation_covariance(s: FieldSample, x, y) -> float:
    """E[f(x) f(y)] computed symbolically from the coefficient structure.

    Independent of the drawn coefficients; equals covariance(rho, x - y) when
    freq_scale is 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ph = s.frequencies @ (x - y)
    return float(np.dot(s.pair_weights, np.cos(ph))) + s.origin_weight


def point_gradients(s: FieldSample, pts) -> np.ndarray:
    """(N, 2) gradients of a sample at (N, 2) points, each pair term
    differentiated in closed form; the reference for d.grad f."""
    ph = np.asarray(pts, dtype=float) @ s.frequencies.T
    amp = s.amplitudes()
    wa, wb = amp * s.coeff_a, amp * s.coeff_b
    return (np.cos(ph) * wb - np.sin(ph) * wa) @ s.frequencies


def point_hessians(s: FieldSample, pts) -> np.ndarray:
    """(N, 2, 2) Hessians of a sample at (N, 2) points, each pair term
    differentiated twice in closed form; the reference for order-2 grids."""
    ph = np.asarray(pts, dtype=float) @ s.frequencies.T
    amp = s.amplitudes()
    curv = -(np.cos(ph) * (amp * s.coeff_a) + np.sin(ph) * (amp * s.coeff_b))
    return np.einsum("nk,ki,kj->nij", curv, s.frequencies, s.frequencies)


def stacked_jet_grids(s: FieldSample, xs, ys, order: int):
    """(values, d1, d2, d11, d12, d22) of s on the lattice xs x ys, None
    past order; the reference for evaluate_grid's in-place fold.

    The y tables are (ny, m) and each right factor is the vstack of two
    transposed coefficient folds, as evaluate_grid built them before it
    wrote every fold in place into one (2m, ny) buffer.  The derivative
    grids scale the value folds by c_k1, c_k2 and their products, the jet
    formula evaluate_grid used before its derivative grids became value
    grids of slope samples.
    """
    C = s.frequencies
    phx = np.outer(xs, C[:, 0])
    phy = np.outer(ys, C[:, 1])
    U = np.hstack([np.cos(phx), np.sin(phx)])
    cy, sy = np.cos(phy), np.sin(phy)
    amp = s.amplitudes()
    wa, wb = amp * s.coeff_a, amp * s.coeff_b

    # separability: cos(c1 x + c2 y) splits into outer products of the 1-D
    # cos/sin tables, so every jet grid is one matrix product
    # U (nx, 2m) @ V (2m, ny) instead of a per-pair lattice sweep.
    S1 = (wa * cy + wb * sy).T              # pairs along rows
    S2 = (wb * cy - wa * sy).T

    def combine(top, bottom):
        return U @ np.vstack([top, bottom])

    val = combine(S1, S2)
    origin = s.origin_coeff * math.sqrt(s.origin_weight)
    if origin:
        # a zero constant could only turn a -0.0 node into +0.0, which the
        # tie rule and every reader treat alike
        val += origin
    d1 = d2 = d11 = d12 = d22 = None
    c1 = C[:, 0][:, None]
    c2 = C[:, 1][:, None]
    if order >= 1:
        d1 = combine(c1 * S2, -c1 * S1)
        d2 = combine(c2 * S2, -c2 * S1)
    if order >= 2:
        d11 = combine(-c1 * c1 * S1, -c1 * c1 * S2)
        d12 = combine(-c1 * c2 * S1, -c1 * c2 * S2)
        d22 = combine(-c2 * c2 * S1, -c2 * c2 * S2)
    return val, d1, d2, d11, d12, d22


def covariance_mc(rho: SpectralMeasure, x, M: int, seed: int):
    """Monte Carlo validation of the sampler against the analytic covariance.

    Returns (mean, stderr) of f(0) * f(x) over M independent samples, sample i
    drawn from the (seed, i) stream.
    """
    if M < 100:
        raise ValueError("need M >= 100")
    reps, pw, w0 = antipodal_pairs(rho)
    m = len(pw)
    amp = np.sqrt(pw)
    C = rho.kappa_value * reps
    x = np.asarray(x, dtype=float)

    def design(pt):
        ph = C @ pt
        u = np.empty(2 * m + 1)
        u[0:2 * m:2] = amp * np.cos(ph)
        u[1:2 * m:2] = amp * np.sin(ph)
        u[2 * m] = math.sqrt(w0)
        return u

    U = np.vstack([design(np.zeros(2)), design(x)])
    # one generator, reset per draw to the initial state of _philox(seed, i)
    gen = _philox(seed, 0)
    state = gen.bit_generator.state
    key = state["state"]["key"]
    prods = np.empty(M)
    for i in range(M):
        key[1] = i
        gen.bit_generator.state = state
        coeffs = gen.standard_normal(2 * m + 1)
        v = U @ coeffs
        prods[i] = v[0] * v[1]
    mean = float(prods.mean())
    stderr = float(prods.std(ddof=1) / math.sqrt(M))
    return mean, stderr


def abs_product_mean_quad(sigma1: float, sigma2: float, corr: float,
                          tol: float = 1e-10) -> float:
    """Adaptive-quadrature evaluation of E[|X Y|] (numeric fallback)."""
    if sigma1 <= 0.0 or sigma2 <= 0.0:
        return 0.0
    r = min(1.0, max(-1.0, corr))
    s_cond = sigma2 * math.sqrt(max(0.0, 1.0 - r * r))

    def integrand(x):
        m = r * sigma2 / sigma1 * x
        if s_cond == 0.0:
            e_abs_y = abs(m)
        else:
            z = m / s_cond
            e_abs_y = s_cond * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * z * z) \
                + m * math.erf(z / math.sqrt(2.0))
        return abs(x) * e_abs_y * math.exp(-0.5 * (x / sigma1) ** 2) \
            / (sigma1 * math.sqrt(2.0 * math.pi))

    val, _ = integrate.quad(integrand, -10.0 * sigma1, 10.0 * sigma1,
                            epsabs=tol, limit=200)
    return val


def circle_convolution(mu1: SpectralMeasure,
                       mu2: SpectralMeasure) -> SpectralMeasure:
    """Convolution of two circle measures: atoms at the angle sums, weights
    multiplied."""
    th1 = np.arctan2(mu1.points[:, 1], mu1.points[:, 0])
    th2 = np.arctan2(mu2.points[:, 1], mu2.points[:, 0])
    sums = (th1[:, None] + th2[None, :]).ravel() % (2.0 * math.pi)
    w = (mu1.weights[:, None] * mu2.weights[None, :]).ravel()
    return make_atomic(zip(_circle_points(sums), w), kappa=mu1.kappa)


def r2_divisor_oracle(n: int) -> int:
    """Independent cross-check: r2(n) = 4 (d_1(n) - d_3(n)) via divisor classes."""
    d1 = d3 = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            for q in {d, n // d}:
                if q % 4 == 1:
                    d1 += 1
                elif q % 4 == 3:
                    d3 += 1
        d += 1
    return 4 * (d1 - d3)


def _positive_joins(g: ScalarGrid, pos: np.ndarray):
    """(i, j, main) of the saddle cells of g whose joined diagonal is
    positive.

    A saddle cell has all four sides crossed, and the saddle rule joins its
    positive diagonal where its centre mean is positive; main is True where
    that diagonal is the (i, j)-(i+1, j+1) one.  A cell whose S, N and W
    sides are crossed has its E side crossed too, so one full-grid test of
    S and N finds the candidates.
    """
    hx = pos[:-1, :] != pos[1:, :]
    i, j = np.divmod(np.flatnonzero(hx[:, :-1] & hx[:, 1:]),
                     pos.shape[1] - 1)
    keep = pos[i, j] != pos[i, j + 1]
    i, j = i[keep], j[keep]
    up = _centre_signs(g, i, j)
    return i[up], j[up], pos[i, j][up]


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


def ndimage_plane_census(g: ScalarGrid) -> NodalCensus:
    """Census of a square-domain grid from one labeling of the positive set.

    P is the positive nodes with their 4-neighbour edges, the joined positive
    saddle diagonals and the all-positive cells.  Interior positive domains
    are the merged components of P away from the border.  Every interior
    negative domain is a hole of P, and holes = components - Euler number,
    with chi(P) = nodes - edges - joins + cells (S. B. Gray, IEEE Trans.
    Computers C-20 (1971) 551-561).
    """
    pos = grid_signs(g)
    if g.periodic:
        raise ValueError("the plane census needs a square grid")
    labels, n = ndimage.label(pos, structure=_FOUR_CONN)
    i, j, main = _positive_joins(g, pos)
    rep, inner = _merged_domains(labels, n, i, j, main)
    components = int(np.count_nonzero(rep == np.arange(n + 1))) - 1

    hp = pos[:-1, :] & pos[1:, :]
    edges = np.count_nonzero(hp) + np.count_nonzero(pos[:, :-1] & pos[:, 1:])
    cells = np.count_nonzero(hp[:, :-1] & hp[:, 1:])
    euler = int(np.count_nonzero(pos) - edges - len(i) + cells)
    return NodalCensus(
        interior_components=int(np.count_nonzero(inner)) + components - euler)


def half_edge_successors(segA: np.ndarray, segB: np.ndarray) -> np.ndarray:
    """Successor of each half-edge in the marching-segment graph.

    Half-edge 2k runs segA[k] -> segB[k] and 2k + 1 runs back, so h ^ 1 is
    the reverse of h and h >> 1 its segment.  The successor of h leaves the
    end port of h along the port's other segment; it is -1 where that port
    has degree 1 (a crossing on the boundary of a square grid).  Every port
    has degree at most 2: an edge lies in at most two cells, each using it
    once.  The ports are paired by a sort, so the segments' orientation is
    not read.
    """
    ports = np.column_stack([segA, segB]).ravel()
    order = np.argsort(ports, kind="stable")
    pair = np.flatnonzero(ports[order[1:]] == ports[order[:-1]])
    mate = np.full(len(ports), -1, dtype=np.int64)
    mate[order[pair]] = order[pair + 1]
    mate[order[pair + 1]] = order[pair]
    return mate[np.arange(len(ports)) ^ 1]


def half_edge_torus_census(g: ScalarGrid) -> NodalCensus:
    """Zero-set components on the torus, split contractible vs wrapping.

    Every crossed edge lies in exactly two cells and each cell uses it once,
    so every port has degree 2 and the components are the cycles of the
    segment graph.  Cycles are labeled by their smallest segment index with
    pointer doubling over half-edges.  A simple closed curve that does not
    contract has a primitive homology class (p, q), so p or q is odd: a
    component wraps iff it crosses the x-seam or the y-seam an odd number of
    times.
    """
    segA, segB = marching_segments(g)
    nx, ny = g.values.shape
    if not g.periodic:
        raise ValueError("the torus census needs a torus grid")
    if nx < 3 or ny < 3:
        # a west-east segment would span half the period: its seam is undefined
        raise ValueError("torus census needs at least 3 nodes per axis")
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


def half_edge_polylines(grid: ScalarGrid):
    """The chains of ``portraits.zero_polylines``, walked over half-edges.

    Open chains leave their lower degree-1 port (h leaves one when its
    reverse has no successor), cycles their smallest port along its
    lower-numbered segment: a stable argsort of the ports meets both in
    port order.
    """
    segA, segB = marching_segments(grid)
    if len(segA) == 0:
        return []
    step = half_edge_successors(segA, segB)
    ports = np.column_stack([segA, segB]).ravel()
    coords = edge_ports(ports, grid)
    by_port = np.argsort(ports, kind="stable")
    starts = np.concatenate([by_port[step[by_port ^ 1] < 0], by_port])
    used = np.zeros(len(segA), dtype=bool)
    chains = []
    for h0 in starts:
        if used[h0 >> 1]:
            continue
        path = []
        h = h0
        while True:
            used[h >> 1] = True
            path.append(h)
            h = step[h]
            if h < 0 or h == h0:
                break
        path.append(path[-1] ^ 1)
        chains.append((coords[path], bool(h == h0)))
    return chains


def port_slopes(grid, ports, slopes, bounds):
    """(points, slope, bound) at the ports of edges ports: slope interpolates
    the node values slopes of g linearly along each edge to its port, and
    bound is the edge type's entry of bounds (``_port_bounds``)."""
    pts, typ, a, b, t = _edge_zeros(ports, grid)
    ga, gb = np.take(slopes, a), np.take(slopes, b)
    return pts, ga + t * (gb - ga), bounds[typ]


def sign_changes_oracle(s, grid, d):
    """(lo, hi, slo) of the zero segments whose ports differ in sign.

    grid is an order-1 grid of s.  Each unique port of the marching segments
    is signed once, from d.grad f of grid's first-derivative grids
    interpolated along its edge where the port bound certifies it, and
    from ``point_gradients`` elsewhere; lo and hi are the ports of the
    segments whose two ports get opposite signs of g = d.grad f, and slo
    the sign at lo.
    """
    segA, segB = marching_segments(grid)
    K = len(segA)
    ports, inv = np.unique(np.concatenate([segA, segB]), return_inverse=True)
    bounds, _ = _port_bounds(_slope_sample(s, d), grid)
    slopes = d[0] * grid.d1 + d[1] * grid.d2
    pts, slope, bound = port_slopes(grid, ports, slopes, bounds)
    sg = sign_grid(slope + bound)
    unsure = np.flatnonzero(sg != sign_grid(slope - bound))
    sg[unsure] = sign_grid(point_gradients(s, pts[unsure]) @ d)
    ia, ib = inv[:K], inv[K:]
    cand = sg[ia] != sg[ib]
    ia, ib = ia[cand], ib[cand]
    return pts[ia], pts[ib], sg[ia]
