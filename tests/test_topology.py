import hashlib
import math
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from nodalfields import stability, topology
from nodalfields.arithmetic import (cilleruelo_torus_field, mu_n,
                                   sample_torus_wave, torus_spacing)
from nodalfields.errors import EmptyGrid, GridTooCoarse
from nodalfields.fields import (
    FieldSample,
    ScalarGrid,
    SquareDomain,
    TorusDomain,
    _slope_sample,
    cilleruelo_field,
    default_spacing,
    evaluate_batch,
    evaluate_grid,
    grid_too_coarse,
    inject_sample,
    sample,
)
from nodalfields.measures import make_atomic, preset
from nodalfields.topology import (
    _bisect,
    _certified_signs,
    _flip_locations,
    _port_bounds,
    _sign_changes,
    _slope_weights,
    count_components_plane,
    count_components_torus,
    count_curve_intersections,
    count_flips,
    edge_ports,
    grid_signs,
    marching_segments,
    sign_grid,
)
from oracles import (
    grid_from_callable,
    half_edge_polylines,
    half_edge_successors,
    half_edge_torus_census,
    ndimage_plane_census,
    point_gradients,
    port_slopes,
    sign_changes_oracle,
)


# ---------------------------------------------------------------------------
# independent oracles: a saddle-aware flood fill census, and the closed
# cycles of the marching-segment graph

def flood_fill_census(values):
    """Count of the sign-domains away from the border, by flood fill.

    A domain steps to the same-sign 4-neighbours and, in a saddle cell (its
    diagonals carry opposite signs), along the diagonal whose sign is that of
    the cell-centre mean.
    """
    pos = sign_grid(values)
    nx, ny = pos.shape
    across = {}
    for i in range(nx - 1):
        for j in range(ny - 1):
            ends = ((i, j), (i + 1, j + 1)), ((i + 1, j), (i, j + 1))
            (a, b), (c, d) = ends
            if pos[a] != pos[b] or pos[c] != pos[d] or pos[a] == pos[c]:
                continue
            mean = (values[a] + values[c] + values[d] + values[b]) / 4.0
            p, q = ends[0] if sign_grid(mean) == pos[a] else ends[1]
            across.setdefault(p, []).append(q)
            across.setdefault(q, []).append(p)
    seen = np.zeros_like(pos, dtype=bool)
    interior = 0
    for i0 in range(nx):
        for j0 in range(ny):
            if seen[i0, j0]:
                continue
            want = pos[i0, j0]
            stack = [(i0, j0)]
            seen[i0, j0] = True
            touches = False
            while stack:
                i, j = stack.pop()
                if i in (0, nx - 1) or j in (0, ny - 1):
                    touches = True
                for a, b in [(i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1),
                             *across.get((i, j), ())]:
                    if 0 <= a < nx and 0 <= b < ny and not seen[a, b] \
                            and pos[a, b] == want:
                        seen[a, b] = True
                        stack.append((a, b))
            interior += not touches
    return interior


def closed_cycles(g):
    """Closed cycles of the marching-segment graph; open chains excluded."""
    step = half_edge_successors(*marching_segments(g))
    seen = np.zeros(len(step) // 2, dtype=bool)
    closed = 0
    for start in range(0, len(step), 2):
        if seen[start >> 1]:
            continue
        h = start
        while h >= 0 and not seen[h >> 1]:
            seen[h >> 1] = True
            h = step[h]
        closed += h == start
    return closed


def _assert_census_matches_oracles(g):
    census = count_components_plane(g)
    assert census.interior_components == flood_fill_census(g.values) \
        == closed_cycles(g)
    return census


def test_census_matches_flood_fill_on_random_grids():
    rng = np.random.default_rng(42)
    shapes = [(nx, ny) for nx in (1, 2, 3) for ny in (1, 2, 3)] * 3 \
        + [tuple(int(v) for v in rng.integers(4, 65, size=2))
           for _ in range(100)]
    interior = 0
    for nx, ny in shapes:
        # smooth-ish random fields: low-pass filtered noise
        raw = rng.standard_normal((nx, ny))
        for _ in range(int(rng.integers(1, 4))):
            raw = 0.25 * (np.roll(raw, 1, 0) + np.roll(raw, -1, 0)
                          + np.roll(raw, 1, 1) + np.roll(raw, -1, 1))
        # the rounded copies have exact zeros and saddles with tied centres
        for values in (raw, np.round(raw, 1), np.round(4 * raw)):
            interior += _assert_census_matches_oracles(
                _lattice_grid(values, periodic=False)).interior_components
    assert interior > 1000

    # saddle-dense checkerboards, some nodes flipped so that longer runs
    # meet at corners too: a random centre offset signs the cell means
    # either way, so positive main and positive anti-diagonals are joined
    # and left apart
    decisions = set()
    for _ in range(60):
        nx, ny = (int(v) for v in rng.integers(2, 25, size=2))
        parity = (-1.0) ** np.add.outer(np.arange(nx), np.arange(ny))
        flip = np.where(rng.random((nx, ny)) < 0.15, -1.0, 1.0)
        values = (parity * flip * rng.uniform(0.5, 1.5, (nx, ny))
                  + rng.uniform(-0.5, 0.5))
        g = _lattice_grid(values, periodic=False)
        _assert_census_matches_oracles(g)
        pos = sign_grid(values)
        i, j = np.nonzero((pos[:-1, :-1] == pos[1:, 1:])
                          & (pos[1:, :-1] == pos[:-1, 1:])
                          & (pos[:-1, :-1] != pos[1:, :-1]))
        centre = topology._centre_signs(g, i, j)
        decisions |= set(zip(pos[i, j].tolist(), centre.tolist()))
    assert decisions == {(p, m) for p in (False, True) for m in (False, True)}

    # one-row and one-column strips: every node lies on the border
    for n in range(1, 40):
        raw = rng.standard_normal(n)
        for values in (raw, np.round(raw)):
            for shape in ((1, n), (n, 1)):
                assert _assert_census_matches_oracles(_lattice_grid(
                    values.reshape(shape), periodic=False)) \
                    .interior_components == 0


def test_census_matches_ndimage_oracle(monkeypatch):
    # the 4-connected labeling census, on sampled grids too large for the
    # flood fill: every uniform scale the estimators count, mu_1105 at the
    # planar scale of torus_count_report, and a Cilleruelo field
    grids = [evaluate_grid(sample(preset("uniform_circle", K=K), seed=K),
                           SquareDomain(R))
             for K in (16, 64, 256) for R in (10.0, 20.0, 40.0)]
    grids.append(evaluate_grid(sample(mu_n(1105), seed=3), SquareDomain(40.0)))
    grids.append(evaluate_grid(cilleruelo_field(seed=4), SquareDomain(20.0)))
    counts = [count_components_plane(g).interior_components for g in grids]
    assert counts == [ndimage_plane_census(g).interior_components
                      for g in grids]
    assert min(counts[:-1]) > 40

    # the sandwich's sub-squares: strided views of the outer grids
    subs = []

    def recorded(sub):
        subs.append(sub)
        return count_components_plane(sub)

    monkeypatch.setattr(stability, "count_components_plane", recorded)
    stability.sandwich_check(preset("uniform_circle", K=128),
                             preset("uniform_circle", K=256), R=8.0, M=2,
                             beta=math.inf, seed=5)
    # per draw: R, R - 1 and R + 1, the last the whole outer grid
    assert [sub.values.flags.c_contiguous for sub in subs] \
        == [False, False, True] * 2
    for sub in subs:
        assert count_components_plane(sub).interior_components \
            == ndimage_plane_census(sub).interior_components


# The plane census keeps the row changes of its sign grid as a bit mask:
# one empty row, then a row of ny + 1 bits per grid row, the change at
# column c of row r (a run's start, or its end one past its last node)
# being bit (r + 1)(ny + 1) + c.  The mask is read in 64-bit words, so the
# grids below put run boundaries, row starts and the mask's end at and
# next to word boundaries.

def _census_mask(values):
    """The census mask of a value grid, zero bits padding it past its end
    to whole words, as the census pads it."""
    pos = np.pad(sign_grid(values), ((1, 0), (1, 1)))
    change = (pos[:, 1:] != pos[:, :-1]).ravel()
    return np.concatenate([change, np.zeros(64 - len(change) % 64,
                                            dtype=bool)])


def _mask_bits(values):
    """The flat positions of the run starts and ends in the census mask."""
    bits = np.flatnonzero(_census_mask(values))
    return bits[0::2], bits[1::2]


def _low_pass(rng, nx, ny, passes):
    """Smooth random values: Gaussian noise averaged over 4-neighbours."""
    values = rng.standard_normal((nx, ny))
    for _ in range(passes):
        values = 0.25 * (np.roll(values, 1, 0) + np.roll(values, -1, 0)
                         + np.roll(values, 1, 1) + np.roll(values, -1, 1))
    return values


def _word_boundary_rows(rng, nx, ny):
    """Values whose rows cycle through all positive, all negative, runs
    that start and end only at bits 0 and 63 of a word, and those runs with
    a few more boundaries between; magnitudes are random, so saddle cells
    join either diagonal."""
    w = ny + 1
    sign = np.ones((nx, ny))
    for r in range(nx):
        kind = r % 4
        if kind < 2:
            sign[r] = 1.0 if kind == 0 else -1.0
            continue
        cuts = [c for c in range(w) if ((r + 1) * w + c) & 63 in (0, 63)]
        if kind == 3:
            cuts += rng.integers(0, w, size=3).tolist()
        crossed = np.zeros(ny + 1, dtype=int)
        np.add.at(crossed, cuts, 1)
        sign[r] = np.where(np.cumsum(crossed)[:ny] % 2 == 1, 1.0, -1.0)
    return sign * rng.uniform(0.5, 1.5, (nx, ny))


def _word_boundary_shapes(widths, rows):
    """(nx, ny) with mask rows of w bits and (nx + 1) w a multiple of 64
    less one, that multiple and one more; an even w puts every size at a
    multiple, so it takes rows, rows + 1 and rows + 2 grid rows."""
    for w in widths:
        if w % 2 == 0:
            nxs = [rows, rows + 1, rows + 2]
        else:
            nxs = [next(nx for nx in range(rows, rows + 64)
                        if ((nx + 1) * w - t) % 64 == 0) for t in (-1, 0, 1)]
        yield from ((nx, w - 1) for nx in nxs)


def test_census_at_word_boundaries():
    rng = np.random.default_rng(2024)
    widths = (63, 64, 65, 127, 128, 129)
    word_bits = set()
    for nx, ny in _word_boundary_shapes(widths, rows=60):
        assert (nx + 1) * (ny + 1) % 64 in (63, 0, 1)
        smooth = _low_pass(rng, nx, ny, passes=2)
        parity = (-1.0) ** np.add.outer(np.arange(nx), np.arange(ny))
        flip = np.where(rng.random((nx, ny)) < 0.15, -1.0, 1.0)
        checker = (parity * flip * rng.uniform(0.5, 1.5, (nx, ny))
                   + rng.uniform(-0.5, 0.5))
        aligned = _word_boundary_rows(rng, nx, ny)
        for values in (smooth, np.round(4 * smooth), checker, aligned):
            g = _lattice_grid(values, periodic=False)
            census = _assert_census_matches_oracles(g)
            assert census.interior_components \
                == ndimage_plane_census(g).interior_components
        start, end = _mask_bits(aligned)
        word_bits |= {("start", b & 63) for b in start.tolist()}
        word_bits |= {("end", b & 63) for b in end.tolist()}
    assert {(kind, b) for kind in ("start", "end") for b in (0, 63)} \
        <= word_bits

    # larger grids: more words and rows than the flood fill can take
    for nx, ny in _word_boundary_shapes(widths[3:], rows=190):
        smooth = _low_pass(rng, nx, ny, passes=3)
        for values in (smooth, np.round(4 * smooth),
                       _word_boundary_rows(rng, nx, ny)):
            g = _lattice_grid(values, periodic=False)
            assert count_components_plane(g).interior_components \
                == ndimage_plane_census(g).interior_components


def _one_node_pairs(mask):
    """The number of 16-bit pairs of a mask with both bits set."""
    return int(np.count_nonzero(mask.view("<u2") == 257))


def test_run_boundaries_are_the_set_bits():
    # hand-built masks: one-node runs and gaps at even and odd positions,
    # alone and several in a row; boundaries at the first and last bit and
    # next to word edges; no boundary at all
    hand = [[], [2, 3], [5, 6], [2, 3, 4, 5, 6, 7], [9, 10, 11, 12, 13, 14],
            [0, 1, 254, 255], [0, 255], [1, 254], [62, 63, 64, 65],
            [63, 64], [64, 127], [127, 128, 129], [1, 63, 64, 126, 191, 192]]
    masks = []
    for bits in hand:
        mask = np.zeros(256, dtype=bool)
        mask[bits] = True
        masks.append(mask)
    # census masks of grids whose rows are runs and gaps of one node,
    # positive or negative in the first and last column, with mask rows of
    # 64 bits (each row starts a word) and 65 bits
    for ny in (63, 64):
        cols = np.arange(ny)
        rows = [(-1.0) ** cols, -(-1.0) ** cols, np.ones(ny), -np.ones(ny),
                np.where(cols % 3 == 0, 1.0, -1.0),
                np.where((cols == 0) | (cols == ny - 1), 1.0, -1.0),
                np.where((cols == 0) | (cols == ny - 1), -1.0, 1.0)]
        masks.append(_census_mask(np.array(rows)))
    assert _one_node_pairs(masks[3]) == 3 and _one_node_pairs(masks[-1]) > 60
    for mask in masks:
        assert np.array_equal(topology._run_boundaries(mask),
                              np.flatnonzero(mask))

    # sampled fields at every planar scale the estimators count
    for rho in (preset("uniform_circle", K=64), mu_n(1105)):
        for R in (10.0, 20.0, 40.0):
            mask = _census_mask(evaluate_grid(sample(rho, seed=int(R)),
                                              SquareDomain(R)).values)
            assert _one_node_pairs(mask) > 0
            assert np.array_equal(topology._run_boundaries(mask),
                                  np.flatnonzero(mask))


def test_census_rejects_exactly_the_non_finite_grids(tmp_path):
    # the censuses and every other reader of a grid's signs: the marching
    # segments and both portraits, which draw nothing of a grid they refuse
    from nodalfields.portraits import render_ppm, render_svg, zero_polylines

    svg, ppm = tmp_path / "p.svg", tmp_path / "p.ppm"

    def ppm_bytes(g):
        render_ppm(g, ppm)
        return ppm.read_bytes()

    sq = grid_from_callable(lambda X, Y: X ** 2 + Y ** 2 - 0.25,
                            SquareDomain(1.0), 0.1)
    t = grid_from_callable(lambda X, Y: np.sin(2 * np.pi * X),
                           TorusDomain(), 1 / 64)
    for g, census in ((sq, count_components_plane),
                      (t, count_components_torus)):
        # +inf and -inf in one row make its sum NaN
        for bad in ([np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]):
            values = g.values.copy()
            values[3, 5:5 + len(bad)] = bad
            for reader in (census, marching_segments, zero_polylines,
                           lambda grid: render_svg(grid, svg), ppm_bytes):
                with pytest.raises(EmptyGrid):
                    reader(replace(g, values=values))
        assert not svg.exists() and not ppm.exists()
        # finite values whose row sums overflow are counted and drawn
        huge = np.where(sign_grid(g.values), 1e308, -1e308)
        with np.errstate(over="ignore"):
            assert np.isinf(huge.sum(axis=1)).any()
        assert census(replace(g, values=huge)) \
            == census(replace(g, values=np.sign(huge))) == census(g)
        for a, b in zip(marching_segments(replace(g, values=huge)),
                        marching_segments(g)):
            assert np.array_equal(a, b) and len(a) > 0
        assert ppm_bytes(replace(g, values=huge)) == ppm_bytes(g)
        ppm.unlink()
    assert count_components_plane(sq).interior_components == 1
    assert count_components_torus(t).wrapping_components == 2


def test_census_of_strided_views_equals_contiguous_copy():
    g = evaluate_grid(sample(preset("uniform_circle", K=64), seed=8),
                      SquareDomain(10.0))
    values = g.values.copy()
    # outside the sub-square: its census must not read it
    values[0, 0] = np.nan
    views = [values[16:-16, 16:-16], g.values[::-1], g.values.T,
             g.values[::2, ::-3]]
    for view in views:
        assert not view.flags.c_contiguous
        assert count_components_plane(_lattice_grid(view, periodic=False)) \
            == count_components_plane(_lattice_grid(np.ascontiguousarray(
                view), periodic=False))
    with pytest.raises(EmptyGrid):
        count_components_plane(_lattice_grid(values[:-16, :-16],
                                             periodic=False))
    t = evaluate_grid(sample_torus_wave(65, seed=2), TorusDomain(),
                      torus_spacing(65))
    for view in (t.values[::-1], t.values.T):
        assert count_components_torus(_lattice_grid(view, periodic=True)) \
            == count_components_torus(_lattice_grid(np.ascontiguousarray(
                view), periodic=True))


def test_census_counts_closed_portrait_chains():
    from nodalfields.portraits import zero_polylines
    u64 = preset("uniform_circle", K=64)
    for seed in range(4):
        g = evaluate_grid(sample(u64, seed=seed), SquareDomain(6.0))
        census = _assert_census_matches_oracles(g)
        closed = sum(closed for _, closed in zero_polylines(g))
        assert census.interior_components == closed > 10


def test_plane_census_rejects_torus_grid():
    # the square census of a torus grid would count its wrap as a border
    # (0 interior components here, against 1 torus component)
    t = grid_from_callable(
        lambda X, Y: np.cos(2 * np.pi * X) + np.cos(2 * np.pi * Y) - 0.5,
        TorusDomain(), 1 / 64)
    assert count_components_torus(t).total_components == 1
    with pytest.raises(ValueError, match="square grid"):
        count_components_plane(t)


def test_unit_circle_is_one_component():
    g = grid_from_callable(lambda X, Y: X ** 2 + Y ** 2 - 1.0,
                           SquareDomain(2.0), 0.01)
    c = count_components_plane(g)
    assert c.interior_components == 1


def test_nine_loops():
    g = grid_from_callable(lambda X, Y: np.cos(X) + np.cos(Y) - 1.5,
                           SquareDomain(3 * math.pi), 0.02)
    assert count_components_plane(g).interior_components == 9


def test_two_cos_plus_cos_has_no_compact_components():
    g = grid_from_callable(lambda X, Y: 2 * np.cos(X) + np.cos(Y),
                           SquareDomain(20.0), 0.02)
    assert count_components_plane(g).interior_components == 0


def test_empty_grid_raises():
    g = ScalarGrid(domain=SquareDomain(1.0), h=1.0, xs=np.zeros(0),
                   ys=np.zeros(0), values=np.zeros((0, 0)))
    # absent or empty values, on either kind of domain, for each census
    # and the marching segments
    for empty in (g, replace(g, values=None), replace(g, domain=TorusDomain()),
                  replace(g, domain=TorusDomain(), values=None)):
        for reader in (count_components_plane, count_components_torus,
                       marching_segments):
            with pytest.raises(EmptyGrid):
                reader(empty)
    sq = grid_from_callable(lambda X, Y: X ** 2 + Y ** 2 - 0.25,
                            SquareDomain(1.0), 0.1)
    for bad in (np.nan, np.inf, -np.inf):
        sq.values[3, 5] = bad
        with pytest.raises(EmptyGrid):
            count_components_plane(sq)
    t = grid_from_callable(lambda X, Y: np.sin(2 * np.pi * X),
                           TorusDomain(), 1 / 64)
    for bad in (np.nan, np.inf):
        t.values[3, 5] = bad
        with pytest.raises(EmptyGrid):
            count_components_torus(t)
    t.values[:] = np.inf
    with pytest.raises(EmptyGrid):
        count_components_torus(t)


def test_small_domains_monotone_and_total():
    s = sample(preset("uniform_circle", K=32), seed=6)
    _assert_census_matches_oracles(evaluate_grid(s, SquareDomain(8.0)))


def test_torus_two_vertical_circles():
    g = grid_from_callable(lambda X, Y: np.sin(2 * np.pi * X),
                           TorusDomain(), 1 / 256)
    c = count_components_torus(g)
    assert c.wrapping_components == 2
    assert c.interior_components == 0
    assert c.total_components == 2


def test_torus_contractible_blob():
    g = grid_from_callable(
        lambda X, Y: np.cos(2 * np.pi * X) + np.cos(2 * np.pi * Y) - 1.2,
        TorusDomain(), 1 / 256)
    c = count_components_torus(g)
    assert c.interior_components == 1
    assert c.wrapping_components == 0


def test_torus_constant_has_no_components():
    g = grid_from_callable(lambda X, Y: np.ones_like(X), TorusDomain(), 1 / 64)
    c = count_components_torus(g)
    assert c.total_components == 0


def test_torus_axis_field_all_wrapping():
    from nodalfields.arithmetic import cilleruelo_torus_field
    for seed in range(5):
        s = cilleruelo_torus_field(5, seed)
        c = count_components_torus(evaluate_grid(s, TorusDomain(), 1 / 80))
        assert c.interior_components == 0
        assert 2 <= c.wrapping_components <= 20


@pytest.mark.parametrize("p, q", [(1, -1), (1, 2), (3, -2)],
                         ids=["x-y", "x+2y", "3x-2y"])
def test_torus_diagonal_wrapping_classification(p, q):
    # zero set of sin(2 pi (p x + q y)) is two circles of class (q, -p); those
    # of (1, 2) and (3, -2) cross the x-seam an even number of times, so a
    # rule reading that seam alone would call them contractible
    g = grid_from_callable(lambda X, Y: np.sin(2 * np.pi * (p * X + q * Y)),
                           TorusDomain(), 1 / 128)
    c = count_components_torus(g)
    assert c.interior_components == 0
    assert c.wrapping_components == 2


def test_torus_census_needs_three_nodes_per_axis():
    g = ScalarGrid(domain=TorusDomain(), h=0.5, xs=np.array([0.0, 0.5]),
                   ys=np.array([0.0, 0.5]),
                   values=np.array([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(ValueError):
        count_components_torus(g)


@pytest.mark.parametrize("n, want", [
    (65, [(10, 2), (12, 2), (8, 2)]),
    (325, [(66, 2), (34, 2), (70, 2)]),
    (1105, [(186, 2), (134, 2), (248, 2)]),
])
def test_torus_census_seeded_counts(n, want):
    # (total, wrapping) pinned from the homology-offset union-find census
    from nodalfields.arithmetic import sample_torus_wave
    h = 1.0 / (16 * math.ceil(math.sqrt(n)))
    got = []
    for stream in range(3):
        c = count_components_torus(
            evaluate_grid(sample_torus_wave(n, 77, stream), TorusDomain(), h))
        got.append((c.total_components, c.wrapping_components))
    assert got == want


def _random_torus_values(rng, trials):
    """Random torus value grids of 3 to 60 nodes per axis, four kinds in
    turn: Gaussian noise, the same rounded, {-1, 0, 1} and saddle-dense
    checkerboards with some nodes flipped."""
    for trial in range(trials):
        nx, ny = (int(v) for v in rng.integers(3, 61, size=2))
        kind = trial % 4
        if kind < 2:
            raw = rng.standard_normal((nx, ny))
            for _ in range(int(rng.integers(0, 3))):
                raw = 0.25 * (np.roll(raw, 1, 0) + np.roll(raw, -1, 0)
                              + np.roll(raw, 1, 1) + np.roll(raw, -1, 1))
            # rounding leaves exact zeros and saddles with tied centres
            yield np.round(raw, 1) if kind else raw
        elif kind == 2:
            yield rng.integers(-1, 2, size=(nx, ny)).astype(float)
        else:
            parity = (-1.0) ** np.add.outer(np.arange(nx), np.arange(ny))
            flip = np.where(rng.random((nx, ny)) < 0.15, -1.0, 1.0)
            yield (parity * flip * rng.uniform(0.5, 1.5, (nx, ny))
                   + rng.uniform(-0.5, 0.5))


def _torus_saddle_cells(values):
    return _saddle_cells(np.pad(values, ((0, 1), (0, 1)), mode="wrap"))


def test_torus_census_matches_half_edge_oracle():
    # the oriented-segment census against the half-edge census it replaced
    from nodalfields.arithmetic import (cilleruelo_torus_field,
                                        sample_torus_wave, torus_spacing)
    rng = np.random.default_rng(2020)
    saddles = 0
    grids = []
    for values in _random_torus_values(rng, 400):
        saddles += _torus_saddle_cells(values)
        grids.append(_lattice_grid(values, periodic=True))
    assert saddles >= 10000
    # straight wrapping pairs sin 2 pi (p x + q y), on odd and even node
    # counts, Cilleruelo trains, and mu_n draws on their census grids
    for p, q in [(1, 0), (0, 1), (1, 1), (2, 1), (1, -3)]:
        for h in (1 / 96, 1 / 61):
            grids.append(grid_from_callable(
                lambda X, Y: np.sin(2 * np.pi * (p * X + q * Y)),
                TorusDomain(), h))
    grids += [evaluate_grid(cilleruelo_torus_field(m, seed), TorusDomain(),
                            1 / (16 * m))
              for m in (1, 3, 5) for seed in range(3)]
    grids += [evaluate_grid(sample_torus_wave(n, 31, stream), TorusDomain(),
                            torus_spacing(n))
              for n in (65, 1105) for stream in range(2)]
    got = [count_components_torus(g) for g in grids]
    assert got == [half_edge_torus_census(g) for g in grids]
    assert sum(c.interior_components for c in got) > 1000
    assert sum(c.wrapping_components for c in got) > 100


def test_oriented_segments_start_and_end_every_crossed_edge_once():
    rng = np.random.default_rng(2121)
    for values in _random_torus_values(rng, 200):
        pos = sign_grid(values)
        crossed = np.flatnonzero(np.stack(
            [pos != np.roll(pos, -1, 0), pos != np.roll(pos, -1, 1)], axis=-1))
        segA, segB = marching_segments(_lattice_grid(values, periodic=True))
        assert np.array_equal(np.sort(segA), crossed)
        assert np.array_equal(np.sort(segB), crossed)


# ---------------------------------------------------------------------------
# oracle: the ten-mask marching squares with its own periodic branch, as it
# stood before the case table; the case table must give the same segments,
# as unordered pairs, in the same order, and the same port coordinates

def _marching_segments_oracle(values, periodic):
    nx, ny = values.shape
    pos = sign_grid(values)
    if periodic:
        hx = pos != np.roll(pos, -1, axis=0)
        vy = pos != np.roll(pos, -1, axis=1)
        S, N = hx, np.roll(hx, -1, axis=1)
        W, E = vy, np.roll(vy, -1, axis=0)
        corner = values
        c10 = np.roll(values, -1, axis=0)
        c01 = np.roll(values, -1, axis=1)
        c11 = np.roll(c10, -1, axis=1)
    else:
        hx = pos[:-1, :] != pos[1:, :]
        vy = pos[:, :-1] != pos[:, 1:]
        S, N = hx[:, :-1], hx[:, 1:]
        W, E = vy[:-1, :], vy[1:, :]
        corner = values[:-1, :-1]
        c10 = values[1:, :-1]
        c01 = values[:-1, 1:]
        c11 = values[1:, 1:]
    segA, segB = [], []

    def emit(mask, side_a, side_b):
        ii, jj = np.nonzero(mask)
        if len(ii) == 0:
            return
        jn = (jj + 1) % ny if periodic else jj + 1
        ie = (ii + 1) % nx if periodic else ii + 1
        ids = (2 * (ii * ny + jj), 2 * (ie * ny + jj) + 1,
               2 * (ii * ny + jn), 2 * (ii * ny + jj) + 1)
        segA.append(ids[side_a])
        segB.append(ids[side_b])

    ncross = (S.astype(np.int8) + E.astype(np.int8)
              + N.astype(np.int8) + W.astype(np.int8))
    two = ncross == 2
    emit(two & S & E, 0, 1)
    emit(two & S & N, 0, 2)
    emit(two & S & W, 0, 3)
    emit(two & E & N, 1, 2)
    emit(two & E & W, 1, 3)
    emit(two & N & W, 2, 3)
    saddle = ncross == 4
    if np.any(saddle):
        center = 0.25 * (corner + c10 + c01 + c11)
        same = sign_grid(center) == sign_grid(corner)
        emit(saddle & same, 0, 1)
        emit(saddle & same, 2, 3)
        emit(saddle & ~same, 0, 3)
        emit(saddle & ~same, 1, 2)
    if segA:
        return np.concatenate(segA), np.concatenate(segB)
    return np.zeros(0, dtype=int), np.zeros(0, dtype=int)


def _edge_ports_oracle(eids, values, xs, ys, periodic):
    nx, ny = values.shape
    typ = eids & 1
    flat = eids >> 1
    ii = flat // ny
    jj = flat % ny
    hx = xs[1] - xs[0] if len(xs) > 1 else 1.0
    hy = ys[1] - ys[0] if len(ys) > 1 else 1.0
    va = values[ii, jj]
    i2 = (ii + 1) % nx if periodic else np.minimum(ii + 1, nx - 1)
    j2 = (jj + 1) % ny if periodic else np.minimum(jj + 1, ny - 1)
    vb = np.where(typ == 0, values[i2, jj], values[ii, j2])
    denom = va - vb
    t = np.where(np.abs(denom) > 0, va / np.where(denom == 0, 1.0, denom), 0.5)
    t = np.clip(t, 0.0, 1.0)
    x = xs[ii] + np.where(typ == 0, t * hx, 0.0)
    y = ys[jj] + np.where(typ == 0, 0.0, t * hy)
    return np.column_stack([x, y])


def _lattice_grid(values, periodic):
    nx, ny = values.shape
    if periodic:
        return ScalarGrid(domain=TorusDomain(), h=1.0 / nx,
                          xs=np.arange(nx) / nx, ys=np.arange(ny) / ny,
                          values=values)
    return ScalarGrid(domain=SquareDomain(1.0), h=2.0 / max(nx - 1, 1),
                      xs=np.linspace(-1, 1, nx), ys=np.linspace(-1, 1, ny),
                      values=values)


def _assert_marching_matches_oracle(g):
    # the oracle does not orient its segments: compare them as unordered
    # pairs, in the same order (``_assert_positive_side_on_left`` checks
    # the orientation)
    segA, segB = marching_segments(g)
    wantA, wantB = _marching_segments_oracle(g.values, g.periodic)
    assert segA.dtype == wantA.dtype and segB.dtype == wantB.dtype
    assert np.array_equal(np.minimum(segA, segB), np.minimum(wantA, wantB))
    assert np.array_equal(np.maximum(segA, segB), np.maximum(wantA, wantB))
    ports = np.concatenate([segA, segB])
    assert np.array_equal(
        edge_ports(ports, g),
        _edge_ports_oracle(ports, g.values, g.xs, g.ys, g.periodic))
    return len(segA)


def _assert_positive_side_on_left(values, periodic, segA, segB):
    """Each segment segA -> segB has the positive node of segA's edge
    strictly on its left, in lattice coordinates unwrapped within its cell.

    An edge runs from its first node one step along its axis, and its
    midpoint lies half a step along.  On a torus with >= 3 nodes per axis,
    segB's midpoint is moved by whole periods to the image nearest segA's:
    the two sides of one cell lie within one step of each other on each
    axis, any other image two or more steps away.  Returns the number of
    segments checked.
    """
    nx, ny = values.shape
    pos = sign_grid(values)

    def first_node_and_axis(eids):
        i, j = np.divmod(eids >> 1, ny)
        axis = np.where((eids & 1)[:, None] == 0, [1, 0], [0, 1])
        return np.column_stack([i, j]), axis

    first, axis = first_node_and_axis(segA)
    second = first + axis
    # segA's edge is crossed: its nodes differ in sign
    first_pos = pos[first[:, 0], first[:, 1]]
    assert np.all(first_pos != pos[second[:, 0] % nx, second[:, 1] % ny])
    positive = np.where(first_pos[:, None], first, second)
    midA = first + 0.5 * axis
    firstB, axisB = first_node_and_axis(segB)
    midB = firstB + 0.5 * axisB
    if periodic:
        period = np.array([nx, ny])
        midB -= period * np.round((midB - midA) / period)
    assert np.all(np.abs(midB - midA) <= 1.0)
    run, left = midB - midA, positive - midA
    assert np.all(run[:, 0] * left[:, 1] - run[:, 1] * left[:, 0] > 0)
    return len(segA)


def test_marching_segments_run_with_the_positive_side_on_the_left():
    rng = np.random.default_rng(1313)
    checked = 0
    # every 2 x 2 square grid over {-1, 0, 1}: all cases, ties and saddles
    for flat in np.array(np.meshgrid(*[[-1.0, 0.0, 1.0]] * 4)).reshape(4, -1).T:
        values = flat.reshape(2, 2)
        checked += _assert_positive_side_on_left(
            values, False, *marching_segments(_lattice_grid(values, False)))
    for values in _random_lattice_values(rng, 200):
        g = _lattice_grid(values, periodic=False)
        checked += _assert_positive_side_on_left(values, False,
                                                 *marching_segments(g))
        label = rng.random(2 * values.size) < 0.5
        checked += _assert_positive_side_on_left(
            values, False, *marching_segments(g, label=label))
        if min(values.shape) >= 3:
            checked += _assert_positive_side_on_left(
                values, True,
                *marching_segments(_lattice_grid(values, periodic=True)))
    assert checked > 1000000


def _random_lattice_values(rng, trials):
    """Random value grids of 1 to 60 nodes per axis, three kinds in turn,
    each with a rounded copy."""
    for trial in range(trials):
        nx, ny = (int(v) for v in rng.integers(1, 61, size=2))
        kind = trial % 3
        if kind == 0:   # smooth: low-pass filtered noise
            raw = rng.standard_normal((nx, ny))
            for _ in range(int(rng.integers(1, 4))):
                raw = 0.25 * (np.roll(raw, 1, 0) + np.roll(raw, -1, 0)
                              + np.roll(raw, 1, 1) + np.roll(raw, -1, 1))
        elif kind == 1:  # saddle-rich: checkerboard signs, random magnitudes
            i, j = np.indices((nx, ny))
            raw = (-1.0) ** (i + j) * rng.random((nx, ny)) \
                + 0.3 * rng.standard_normal((nx, ny))
        else:            # small integers: exact zeros and tied centers
            raw = rng.integers(-2, 3, size=(nx, ny)).astype(float)
        # the rounded copy has exact zeros, so it exercises the tie rule
        yield raw
        yield np.round(raw, 1)


def _saddle_cells(values):
    p = sign_grid(values)
    return int(np.count_nonzero(
        (p[:-1, :-1] == p[1:, 1:]) & (p[1:, :-1] == p[:-1, 1:])
        & (p[:-1, :-1] != p[1:, :-1])))


def test_marching_segments_match_ten_mask_oracle_on_random_grids():
    rng = np.random.default_rng(1010)
    # every 2 x 2 grid over {-1, 0, 1}: all cases, ties and saddle centers
    for flat in np.array(np.meshgrid(*[[-1.0, 0.0, 1.0]] * 4)).reshape(4, -1).T:
        for periodic in (False, True):
            _assert_marching_matches_oracle(
                _lattice_grid(flat.reshape(2, 2), periodic))
    saddles = 0
    for values in _random_lattice_values(rng, 300):
        for periodic in (False, True):
            _assert_marching_matches_oracle(_lattice_grid(values, periodic))
        saddles += _saddle_cells(values)
    assert saddles > 10000


def test_labeled_marching_segments_are_the_masked_unlabeled_ones():
    # the label filter keeps exactly the segments whose two edges differ in
    # label, in the unlabeled order; labels on uncrossed edges are random
    # too and must not matter, and the caller's label array is left as is
    rng = np.random.default_rng(1919)
    kept = saddles = 0
    for values in _random_lattice_values(rng, 150):
        g = _lattice_grid(values, periodic=False)
        segA, segB = marching_segments(g)
        label = rng.random(2 * values.size) < 0.5
        before = label.copy()
        gotA, gotB = marching_segments(g, label=label)
        assert np.array_equal(label, before)
        keep = label[segA] != label[segB]
        assert gotA.dtype == segA.dtype and gotB.dtype == segB.dtype
        assert np.array_equal(gotA, segA[keep])
        assert np.array_equal(gotB, segB[keep])
        kept += int(keep.sum())
        saddles += _saddle_cells(values)
        # count_flips, the one labeled caller, takes square domains only
        with pytest.raises(ValueError, match="square grid"):
            marching_segments(_lattice_grid(values, periodic=True),
                              label=label)
    assert kept > 10000 and saddles > 5000


def test_marching_segments_match_ten_mask_oracle_on_sampled_fields():
    from nodalfields.arithmetic import sample_torus_wave
    torus = evaluate_grid(sample_torus_wave(1105, 5), TorusDomain(), 1 / 544)
    plane = evaluate_grid(sample(preset("uniform_circle", K=64), 5),
                          SquareDomain(10.0))
    assert _assert_marching_matches_oracle(torus) > 1000
    assert _assert_marching_matches_oracle(plane) > 1000


def test_half_edge_successors_of_a_path_and_a_cycle():
    # path 0 - 2 - 4: half-edge 0 runs 0 -> 2 and continues along 2 -> 4;
    # ports 0 and 4 have degree 1, so the half-edges ending there have none
    assert half_edge_successors(np.array([0, 2]),
                                np.array([2, 4])).tolist() == [2, -1, -1, 1]
    # triangle 1 - 3 - 5 - 1 in both directions
    assert half_edge_successors(np.array([1, 3, 5]), np.array([3, 5, 1])
                                ).tolist() == [2, 5, 4, 1, 0, 3]


def test_portrait_chains_match_half_edge_oracle():
    # the chains stepped through the edge tables against the chains walked
    # over half-edges paired by a sort, on square grids and on tori down to
    # 2 x 2 and 1 node wide
    from nodalfields.portraits import zero_polylines
    rng = np.random.default_rng(2424)
    grids = [_lattice_grid(flat.reshape(2, 2), periodic)
             for flat in np.array(np.meshgrid(*[[-1.0, 0.0, 1.0]] * 4)
                                  ).reshape(4, -1).T
             for periodic in (False, True)]
    grids += [_lattice_grid(values, periodic)
              for values in _random_lattice_values(rng, 100)
              for periodic in (False, True)]
    grids += [_lattice_grid(values, periodic=True)
              for values in _random_torus_values(rng, 100)]
    chains = opened = 0
    for g in grids:
        got, want = zero_polylines(g), half_edge_polylines(g)
        assert len(got) == len(want)
        for (pts, closed), (want_pts, want_closed) in zip(got, want):
            assert closed == want_closed
            assert np.array_equal(pts, want_pts)
            opened += not closed
        chains += len(got)
    assert chains > 20000 and opened > 5000


@pytest.mark.parametrize("stream", [0, 1, 2])
@pytest.mark.parametrize("n", [65, 325])
def test_torus_portrait_chains_are_census_components(n, stream):
    # the portraits and the torus census walk the same zero-set graph
    from nodalfields.arithmetic import sample_torus_wave, torus_spacing
    from nodalfields.portraits import zero_polylines
    g = evaluate_grid(sample_torus_wave(n, 77, stream), TorusDomain(),
                      torus_spacing(n))
    chains = zero_polylines(g)
    assert all(closed for _, closed in chains)
    assert len(chains) == count_components_torus(g).total_components


def test_flips_of_injected_sum_of_cosines():
    # f = (cos x1 + cos x2)/sqrt(2), kappa = 1: simultaneous zeros of
    # (f, d1 f) in the closed square D_pi sit at (+-pi, 0), (0, +-pi)
    inj = inject_sample(preset("cilleruelo", kappa="one"),
                        [(1.0, 0.0), (1.0, 0.0)])
    locs = _flip_locations(inj, SquareDomain(math.pi), math.pi / 40,
                           (1.0, 0.0))
    assert len(locs) == 4
    want = {(-1, 0), (1, 0), (0, -1), (0, 1)}
    got = {(round(x / math.pi), round(y / math.pi)) for x, y in locs}
    assert got == want


def test_flips_degenerate_and_constant():
    tp = preset("two_point", theta=0.0, kappa="one")
    s = sample(tp, seed=3)
    # field depends only on x1, so f = d2 f = 0 has no isolated solutions
    assert count_flips(s, SquareDomain(10.0), direction=(0.0, 1.0)) == 0
    const = sample(preset("delta_zero"), seed=1)
    for d in ((1.0, 0.0), (0.0, 1.0)):
        assert count_flips(const, SquareDomain(5.0), h=0.25, direction=d) == 0


@pytest.mark.parametrize("rho, seed, R, direction, want", [
    (preset("uniform_circle", K=64), 2, 10.0, (1.0, 0.0), [654, 694, 653]),
    (preset("uniform_circle", K=64), 5, 6.0, (0.0, 1.0), [263, 190, 249]),
    (preset("uniform_circle", K=64), 7, 6.0, (1.0, 1.0), [204, 228, 220]),
    (preset("cilleruelo", kappa="one"), 3, 12.0, (1.0, 0.0), [0, 0, 56]),
], ids=["u64-axis1", "u64-axis2", "u64-diagonal", "cilleruelo-axis1"])
def test_count_flips_seeded_counts(rho, seed, R, direction, want):
    # pinned from the census that evaluated both ends of every segment
    got = [count_flips(sample(rho, seed, i), SquareDomain(R),
                       direction=direction)
           for i in range(3)]
    assert got == want


def test_count_flips_rejects_empty_square_and_zero_direction():
    s = sample(preset("uniform_circle", K=64), seed=2)
    # flips are counted on squares only; a torus has no half-side R
    with pytest.raises(TypeError, match="square domain.*TorusDomain"):
        count_flips(s, TorusDomain())
    for R in (0.0, -2.0):
        with pytest.raises(ValueError, match="R must be positive"):
            count_flips(s, SquareDomain(R))
    with pytest.raises(ValueError, match="direction must be nonzero"):
        count_flips(s, SquareDomain(3.0), direction=(0.0, 0.0))
    for d in ((math.nan, 0.0), (math.inf, 1.0), (1.0, -math.inf), (1.0,),
              (1.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="finite 2-vector"):
            count_flips(s, SquareDomain(3.0), direction=d)


def test_count_flips_scales_direction_to_unit_length():
    u16 = preset("uniform_circle", K=16)
    s = sample(u16, 1, 0)
    want = count_flips(s, SquareDomain(3.0), direction=(1.0, 0.0))
    assert want == 57
    # an absolute tie rule on an unscaled d would count none here
    assert count_flips(s, SquareDomain(3.0), direction=(1e-300, 0.0)) == want
    for i in range(3):
        s = sample(u16, 4, i)
        a = _flip_locations(s, SquareDomain(4.0), None, (1.0, 1.0))
        b = _flip_locations(s, SquareDomain(4.0), None, (3.0, 3.0))
        assert np.array_equal(a, b)


U64 = preset("uniform_circle", K=64)


def test_count_flips_locations_digest():
    # sha256 of (count, locations) over three draws and three directions,
    # derived while every port was evaluated exactly
    digest = hashlib.sha256()
    for d in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        for i in range(3):
            locs = _flip_locations(sample(U64, 2, i), SquareDomain(6.0),
                                   None, d)
            digest.update(np.int64(len(locs)).tobytes())
            digest.update(np.ascontiguousarray(locs).tobytes())
    assert digest.hexdigest() == (
        "91ae55cfee8d5a513938e73f8e3da6f79c5a0b94993cc0c37aee78c93ba13c10")


# (rho, seed, R, h, direction) of the flip-sign checks below
FLIP_CASES = pytest.mark.parametrize("rho, seed, R, h, direction", [
    (U64, 2, 6.0, None, (1.0, 0.0)),
    (U64, 5, 6.0, None, (0.0, 1.0)),
    (U64, 7, 6.0, None, (1.0, 1.0)),
    (preset("cilleruelo", kappa="one"), 3, 12.0, None, (1.0, 0.0)),
    (U64, 9, 3.0, 1 / 64, (1.0, 2.0)),
], ids=["u64-axis1", "u64-axis2", "u64-diagonal", "cilleruelo-axis1",
        "u64-small-h"])


def _slope_grid(gs, grid):
    """The values of the slope sample gs on grid's lattice, warned about
    as count_flips warns about it."""
    coarse = grid_too_coarse(gs, grid.h)
    with pytest.warns(GridTooCoarse) if coarse else nullcontext():
        return evaluate_grid(gs, grid.domain, grid.h).values


# the directions of the slope-sample and section 7 sign-change checks
SLOPE_DIRECTIONS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -2.0))


@pytest.mark.parametrize("s", [
    sample(U64, 2, 0),
    sample(make_atomic([((0.0, 0.0), 0.2), ((0.6, 0.8), 0.2),
                        ((-0.6, -0.8), 0.2), ((1.0, 0.0), 0.2),
                        ((-1.0, 0.0), 0.2)]), 4, 0),
    cilleruelo_field(6),
    replace(stability.section7_field("f"), freq_scale=3.0),
], ids=["u64", "origin-atom", "cilleruelo", "section7-scaled"])
def test_slope_sample_is_the_directional_derivative(s):
    # g = d.grad f is the sample with pairs (d.c_k)(b_k, -a_k) and no
    # origin term: its grid matches d.(d1, d2) of f's order-1 grid and its
    # point values the gradient oracle, within 1e-12 sum_k w_k (1 + |c_k| X)
    R = 3.0
    h = default_spacing(s)
    grid = evaluate_grid(s, SquareDomain(R), h, order=1)
    pts = np.random.default_rng(5).uniform(-R, R, (200, 2))
    for direction in SLOPE_DIRECTIONS:
        d = np.asarray(direction) / math.hypot(*direction)
        gs = _slope_sample(s, d)
        assert gs.origin_coeff == 0.0 and gs.measure is s.measure
        C = s.frequencies
        w = (np.sqrt(s.pair_weights) * np.hypot(s.coeff_a, s.coeff_b)
             * np.abs(C @ d))
        tol = 1e-12 * (w @ (1 + R * np.hypot(C[:, 0], C[:, 1])))
        want = d[0] * grid.d1 + d[1] * grid.d2
        got = evaluate_grid(gs, SquareDomain(R), h).values
        assert np.max(np.abs(got - want)) <= tol
        assert np.max(np.abs(evaluate_batch(gs, pts)
                             - point_gradients(s, pts) @ d)) <= tol
        assert np.max(np.abs(want)) > 0.1


@FLIP_CASES
def test_port_slope_signs_match_exact_evaluation(rho, seed, R, h, direction):
    # every port the interpolated slope signs gets the sign an exact
    # evaluation gives, and the interpolation error stays within
    # (h^2/8) sum_k w_k c_kj^2, w_k = sqrt(W_k) |(a_k, b_k)| |d.c_k|, computed
    # here, plus 1e-12 sum_k w_k for rounding (the code's margin is at least
    # 1e-9 sum_k w_k; edges along which g is constant need the allowance)
    d = np.asarray(direction) / math.hypot(*direction)
    for i in range(3):
        s = sample(rho, seed, i)
        step = h if h is not None else default_spacing(s)
        grid = evaluate_grid(s, SquareDomain(R + 2 * step), step)
        gs = _slope_sample(s, d)
        ports = np.unique(np.concatenate(marching_segments(grid)))
        pts, slope, bound = port_slopes(grid, ports, _slope_grid(gs, grid),
                                        _port_bounds(gs, grid)[0])
        assert np.array_equal(pts, edge_ports(ports, grid))
        exact = point_gradients(s, pts) @ d

        C = s.frequencies
        w = (np.sqrt(s.pair_weights) * np.hypot(s.coeff_a, s.coeff_b)
             * np.abs(C @ d))
        curvature = step ** 2 / 8 * np.array([w @ C[:, 0] ** 2,
                                              w @ C[:, 1] ** 2])
        assert np.all(np.abs(exact - slope)
                      <= curvature[ports & 1] + 1e-12 * w.sum())

        signed = sign_grid(slope - bound) == sign_grid(slope + bound)
        assert np.mean(signed) > 0.9
        assert np.array_equal(sign_grid(slope[signed]),
                              sign_grid(exact[signed]))


def test_count_flips_evaluates_few_ports(monkeypatch):
    # the port pass evaluates only the ports the slope bound leaves unsigned,
    # the bisection only the midpoints the rounding margin leaves unsigned
    s = sample(U64, 2, 0)
    h = default_spacing(s)
    grid = evaluate_grid(s, SquareDomain(10.0 + 2 * h), h)
    n_ports = len(np.unique(np.concatenate(marching_segments(grid))))
    calls = []

    def counted(s, pts):
        calls.append(len(pts))
        return evaluate_batch(s, pts)

    monkeypatch.setattr(topology, "evaluate_batch", counted)
    assert count_flips(s, SquareDomain(10.0)) == 654
    assert n_ports > 15000
    assert sum(calls) <= 0.05 * n_ports
    # a pass or step with nothing left unsigned evaluates nothing
    assert 0 not in calls


def _assert_sign_changes_match_oracle(s, grid, direction):
    """Byte-equal (lo, hi, slo) with every marching segment signed from the
    gradient; returns the number of candidates."""
    d = np.asarray(direction) / math.hypot(*direction)
    gs = _slope_sample(s, d)
    coarse = grid_too_coarse(gs, grid.h)
    with pytest.warns(GridTooCoarse) if coarse else nullcontext():
        got = _sign_changes(gs, grid)
    want = sign_changes_oracle(s, grid, d)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    return len(got[0])


def _flip_grid(s, R, h):
    """The grid of f that count_flips evaluates, the square padded by 2h, at
    order 1 for the oracle's gradients."""
    return evaluate_grid(s, SquareDomain(R + 2 * h), h, order=1)


@FLIP_CASES
def test_sign_changes_match_oracle(rho, seed, R, h, direction):
    # the oracle signs every crossed edge from its interpolant or the
    # gradient; at the coarse spacings lambda/4 and lambda the port bounds
    # are widest, so there the node certificate signs the fewest ports
    for i in range(3):
        s = sample(rho, seed, i)
        lam = s.min_wavelength()
        for step in (h if h is not None else default_spacing(s), lam / 4,
                     lam):
            coarse = grid_too_coarse(s, step)
            with pytest.warns(GridTooCoarse) if coarse else nullcontext():
                grid = _flip_grid(s, R, step)
            _assert_sign_changes_match_oracle(s, grid, direction)


@pytest.mark.parametrize("which", ["f", "g", "monochromatic_g"])
def test_sign_changes_match_oracle_on_section7_fields(which):
    s = stability.section7_field(which)
    candidates = 0
    for h in (0.05, 0.2):
        coarse = grid_too_coarse(s, h)
        with pytest.warns(GridTooCoarse) if coarse else nullcontext():
            grid = _flip_grid(s, 12.0, h)
        for direction in SLOPE_DIRECTIONS:
            candidates += _assert_sign_changes_match_oracle(s, grid,
                                                            direction)
    assert candidates > 100


def test_sign_changes_match_oracle_on_saddle_grids():
    # checkerboard signs with random magnitudes put a saddle in most cells:
    # both segments of a saddle cell go on, and only those whose ports
    # differ in sign come out; the grid's slopes are kept, so the ports are
    # signed as on any grid
    rng = np.random.default_rng(77)
    s = sample(U64, 3, 0)
    saddles = candidates = 0
    for trial in range(6):
        grid = _flip_grid(s, 3.0, default_spacing(s))
        parity = (-1.0) ** np.add.outer(*map(np.arange, grid.values.shape))
        flip = np.where(rng.random(grid.values.shape) < 0.1, -1.0, 1.0)
        grid.values = parity * flip * rng.uniform(0.5, 1.5,
                                                  grid.values.shape) \
            + rng.uniform(-0.5, 0.5)
        saddles += _saddle_cells(grid.values)
        for direction in ((1.0, 0.0), (1.0, 1.0)):
            candidates += _assert_sign_changes_match_oracle(s, grid,
                                                            direction)
    assert saddles > 10000 and candidates > 1000


def test_node_certificate_leaves_rounded_interpolants_to_the_port_pass(
        monkeypatch):
    # a port whose interpolant rounds above both node values: at t = 1
    # (f = 0 at the far node) ga + (gb - ga) can land an ulp above gb, so
    # with gb just below minus the largest port bound the interpolation
    # certificate fails where a node certificate without room for that
    # rounding would sign the port negative.  The oracle then evaluates g
    # there, positive at each chosen node, so only a certificate with the
    # room agrees with it.
    s = sample(U64, 2, 0)
    d = np.array([1.0, 0.0])
    gs = _slope_sample(s, d)
    grid = _flip_grid(s, 3.0, default_spacing(s))
    bounds = _port_bounds(gs, grid)[0]
    top = bounds.max()
    x_edge = int(np.argmax(bounds)) == 0
    values, d1 = grid.values, grid.d1
    nx, ny = values.shape
    g = d[0] * d1
    gb = -top - 1e-13
    while not sign_grid(np.nextafter(gb, 0.0) + top):
        gb = np.nextafter(gb, 0.0)
    ga = next(-x for x in np.linspace(1.0, 64.0, 1001) if x - (gb + x) > gb)
    chosen = 0
    for i in range(2, nx - 3, 3):
        for j in range(2, ny - 3, 3):
            ib, jb = (i + 1, j) if x_edge else (i, j + 1)
            # a port at node b, where f rises through 0 and the exact g is
            # clearly positive
            if values[i, j] < 0 and values[ib, jb] > 0 and g[ib, jb] > 0.1:
                values[ib, jb] = 0.0
                d1[i, j], d1[ib, jb] = ga, gb
                chosen += 1
    assert chosen > 5
    # _sign_changes reads g on f's lattice: give it these node values
    slopes = replace(grid, values=d[0] * grid.d1)
    monkeypatch.setattr(topology, "evaluate_grid",
                        lambda gs, domain, h: slopes)
    _assert_sign_changes_match_oracle(s, grid, d)


# oracle: the bisection as it was before the phase estimates, every
# midpoint evaluated from the gradient
def _exact_bisection(s, d, lo, hi, slo):
    for _ in range(10):
        mid = 0.5 * (lo + hi)
        take_lo = sign_grid(point_gradients(s, mid) @ d) == slo
        lo[take_lo] = mid[take_lo]
        hi[~take_lo] = mid[~take_lo]
    return 0.5 * (lo + hi)


def _assert_bisection_matches_oracle(monkeypatch, s, R, h, direction):
    """Byte-equal flip locations with the exact bisection; returns the
    number of points the bisection evaluated."""
    d = np.asarray(direction) / math.hypot(*direction)
    calls = []

    def counted(s, pts):
        calls.append(len(pts))
        return evaluate_batch(s, pts)

    def counted_bisect(*args):
        with monkeypatch.context() as m:
            m.setattr(topology, "evaluate_batch", counted)
            return _bisect(*args)

    def exact_bisect(gs, lo, hi, slo):
        return _exact_bisection(s, d, lo, hi, slo)

    with monkeypatch.context() as m:
        m.setattr(topology, "_bisect", counted_bisect)
        locs = _flip_locations(s, SquareDomain(R), h, direction)
    with monkeypatch.context() as m:
        m.setattr(topology, "_bisect", exact_bisect)
        want_locs = _flip_locations(s, SquareDomain(R), h, direction)
    assert np.ascontiguousarray(locs).tobytes() == \
        np.ascontiguousarray(want_locs).tobytes()
    return sum(calls)


@FLIP_CASES
def test_bisection_matches_exact_oracle(monkeypatch, rho, seed, R, h,
                                        direction):
    for i in range(3):
        _assert_bisection_matches_oracle(monkeypatch, sample(rho, seed, i), R,
                                         h, direction)


def _record_certified_signs(monkeypatch, seen, decide=_certified_signs):
    """Record (points, estimates, bound, signs) of each certificate call of
    the flips, its signs given by decide.  exact(k) evaluates the sample at
    the points k, so the recorder asks it for every point and takes the
    points from evaluate_batch."""
    points = []

    def batch(gs, pts):
        points.append(pts.copy())
        return evaluate_batch(gs, pts)

    def recorded(est, bound, exact):
        signs = decide(est, bound, exact)
        exact(np.arange(len(est)))
        seen.append((points[-1], est.copy(), bound, signs))
        return signs

    monkeypatch.setattr(topology, "evaluate_batch", batch)
    monkeypatch.setattr(topology, "_certified_signs", recorded)


@FLIP_CASES
def test_bisection_slope_signs_match_exact_evaluation(monkeypatch, rho, seed,
                                                      R, h, direction):
    # at every bisection midpoint the Taylor estimate of g stays within
    # 1e-12 sum_k w_k (1 + |c_k| X) of the exact one, X the candidates'
    # reach (the largest |coordinate| of their ports), far inside the margin
    # it is signed with, and every sign equals the one an exact evaluation
    # gives
    d = np.asarray(direction) / math.hypot(*direction)
    seen, reach = [], []
    _record_certified_signs(monkeypatch, seen)

    def reached(gs, lo, hi, slo):
        reach.append(max(np.abs(lo).max(initial=0.0),
                         np.abs(hi).max(initial=0.0)))
        return _bisect(gs, lo, hi, slo)

    monkeypatch.setattr(topology, "_bisect", reached)
    checked = 0
    for i in range(3):
        s = sample(rho, seed, i)
        step = h if h is not None else default_spacing(s)
        seen.clear()
        reach.clear()
        count_flips(s, SquareDomain(R), h=step, direction=direction)
        C = s.frequencies
        w = (np.sqrt(s.pair_weights) * np.hypot(s.coeff_a, s.coeff_b)
             * np.abs(C @ d))
        (X,) = reach
        tol = 1e-12 * (w @ (1 + X * np.hypot(C[:, 0], C[:, 1])))
        # the port pass, one call per edge type, then ten steps
        assert len(seen) == 12
        for pts, g, bound, signs in seen[2:]:
            checked += len(pts)
            exact = point_gradients(s, pts) @ d
            assert np.all(np.abs(g - exact) <= tol)
            assert bound >= 100 * tol
            assert np.array_equal(signs, sign_grid(exact))
    assert checked > 0


@pytest.mark.parametrize("span", np.linspace(0.2, 2.2, 21))
def test_bisection_estimates_are_good_to_the_tolerance_at_any_span(
        monkeypatch, span):
    # one pair, so the truncation bound of the chosen degree is nearly
    # reached near tau = 1: candidates of length span along the pair's
    # frequency, each keeping its upper half, at ten phases of their start;
    # every estimate stays within 1e-12 w (1 + |c| X) of the exact g
    s = inject_sample(make_atomic([((1.0, 0.0), 0.5), ((-1.0, 0.0), 0.5)],
                                  kappa="one"), [(0.6, 0.8)])
    d = np.array([1.0, 0.0])
    gs = _slope_sample(s, d)
    lo = np.column_stack([np.linspace(0.0, math.pi, 10), np.zeros(10)])
    hi = lo + [span, 0.0]
    # the candidates' reach, which sets the margin
    X = math.pi + span
    w = _slope_weights(gs, X)[0]
    tol = 1e-12 * w.sum() * (1 + X)
    seen = []
    _record_certified_signs(monkeypatch, seen,
                            lambda est, bound, exact: np.full(len(est), True))
    _bisect(gs, lo, hi, np.full(10, True))
    assert len(seen) == 10
    for pts, g, _, _ in seen:
        assert np.all(np.abs(g - point_gradients(s, pts) @ d) <= tol)
    # the last midpoints sit 2^-10 of a span below hi
    assert np.allclose(seen[-1][0][:, 0], hi[:, 0] - span / 1024)


@pytest.mark.parametrize("cells_per_wavelength", [4.0, 1.0])
def test_bisection_matches_exact_oracle_on_coarse_grids(
        monkeypatch, cells_per_wavelength):
    # a candidate's phase step c_k.(hi - lo) is up to |c| h sqrt(2), 2.2 rad
    # at 4 cells per wavelength, where the Taylor polynomials take a high
    # degree; at 1 cell per wavelength (8.9 rad) no degree keeps Horner's
    # rounding inside the tolerance, and every midpoint is evaluated
    for i in range(3):
        s = sample(U64, 4, i)
        h = s.min_wavelength() / cells_per_wavelength
        with pytest.warns(GridTooCoarse):
            _assert_bisection_matches_oracle(monkeypatch, s, 6.0, h,
                                             (1.0, 0.0))


@pytest.mark.parametrize("delta", [0.0, -1e-11])
def test_bisection_evaluates_midpoints_the_margin_cannot_sign(monkeypatch,
                                                              delta):
    # f = (cos(x1 - delta) / 2 + sin x2) / sqrt(2) flips where x1 = delta
    # (mod pi) and its zero line crosses a cell whose centre is at x1 = 0
    # (mod pi): the first midpoint sits there, within the margin of g = 0
    # (|g| ~ 1e-16 for delta = 0, a tie; ~ -3.5e-12 otherwise), so only an
    # exact evaluation signs it like the oracle does; one such midpoint for
    # each of the six flips
    inj = inject_sample(preset("cilleruelo", kappa="one"),
                        [(0.5 * math.cos(delta), 0.5 * math.sin(delta)),
                         (0.0, 1.0)])
    h = math.pi / 40
    evaluated = _assert_bisection_matches_oracle(monkeypatch, inj, 40.5 * h,
                                                 h, (1.0, 0.0))
    assert evaluated == 6


def test_flip_count_matches_newton_oracle():
    # independent oracle: Newton iteration on (f, d1 f) from dense seeds
    u16 = preset("uniform_circle", K=16)
    s = sample(u16, seed=11)
    R = 4.0

    def jets(pts):
        C = s.frequencies
        amp = s.amplitudes()
        ph = pts @ C.T
        ca, sa = np.cos(ph), np.sin(ph)
        wa, wb = amp * s.coeff_a, amp * s.coeff_b
        f = ca @ wa + sa @ wb
        trig = ca * wb - sa * wa
        curv = -(ca * wa + sa * wb)
        return (f, trig @ C[:, 0], trig @ C[:, 1],
                curv @ (C[:, 0] ** 2), curv @ (C[:, 0] * C[:, 1]))

    step = 1 / 24
    xs = np.arange(-R - 0.5, R + 0.5, step)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    for _ in range(40):
        f, f1, f2, f11, f12 = jets(pts)
        det = f1 * f12 - f2 * f11
        det = np.where(np.abs(det) < 1e-12, np.nan, det)
        pts = pts + np.column_stack([-(f12 * f - f2 * f1) / det,
                                     -(-f11 * f + f1 * f1) / det])
        pts = np.clip(pts, -R - 1, R + 1)
    f, f1, _, _, _ = jets(pts)
    ok = (np.abs(f) < 1e-9) & (np.abs(f1) < 1e-9) \
        & (np.abs(pts[:, 0]) <= R) & (np.abs(pts[:, 1]) <= R)
    roots = pts[ok]
    from scipy.spatial import cKDTree
    tree = cKDTree(roots)
    seen = set()
    n_oracle = 0
    for gi, grp in enumerate(tree.query_ball_tree(tree, 1e-4)):
        if gi not in seen:
            n_oracle += 1
            seen.update(grp)
    n_port = count_flips(s, SquareDomain(R), h=1 / 32, direction=(1.0, 0.0))
    assert n_port == n_oracle


def _unchecked_sample(rho, coeffs, origin_coeff=0.0):
    """A FieldSample of the given pairs, built without inject_sample's
    finiteness check, so that the readers' own checks can be tested."""
    coeffs = np.asarray(coeffs, dtype=float)
    return FieldSample(measure=rho, coeff_a=coeffs[:, 0].copy(),
                       coeff_b=coeffs[:, 1].copy(), origin_coeff=origin_coeff)


def test_curve_intersections_sine():
    # f = sin(x1) via the two-point measure with injected coefficients
    tp = preset("two_point", theta=0.0, kappa="one")
    sin_field = inject_sample(tp, [(0.0, 1.0)])
    assert count_curve_intersections(
        sin_field, (0.1, 0.3), (2 * math.pi - 0.1, 0.3)) == 1
    assert count_curve_intersections(
        sin_field, (-0.1, 0.0), (3 * math.pi + 0.1, 0.0)) == 4
    # segment inside one sign domain
    assert count_curve_intersections(sin_field, (0.5, 0.0), (2.5, 0.0)) == 0
    # a draw, sampled at default_spacing along the segment
    s = sample(preset("uniform_circle", K=16), 1)
    assert count_curve_intersections(s, (0.0, 0.0), (3.0, 0.0)) == 4
    with pytest.raises(ValueError):
        count_curve_intersections(sin_field, (1.0, 1.0), (1.0, 1.0))
    for p1 in ((math.inf, 0.0), (0.0, -math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="endpoints must be finite"):
            count_curve_intersections(sin_field, (0.0, 0.0), p1)
        with pytest.raises(ValueError, match="endpoints must be finite"):
            count_curve_intersections(sin_field, p1, (0.0, 0.0))
    # f itself must be finite where it is sampled
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite on the segment"):
            count_curve_intersections(_unchecked_sample(tp, [(0.0, bad)]),
                                      (0.1, 0.3), (2.0, 0.3))


def test_curve_intersections_refuse_segments_past_the_node_cap(monkeypatch):
    # finite endpoints far apart would ask for billions of samples: the
    # call raises before it allocates any, as grid_axes does
    import tracemalloc

    sin_field = inject_sample(preset("two_point", theta=0.0, kappa="one"),
                              [(0.0, 1.0)])
    h = default_spacing(sin_field)
    far = [((0.0, 0.0), (1e12, 0.0)), ((-1e308, 0.0), (1e308, 0.0)),
           ((0.0, 0.0), (0.0, 2.0**28 * h))]
    tracemalloc.start()
    try:
        for p0, p1 in far:
            with pytest.raises(ValueError, match="MAX_GRID_NODES"):
                count_curve_intersections(sin_field, p0, p1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # at the cap a segment is sampled, one step past it raises
    monkeypatch.setattr(topology, "MAX_GRID_NODES", 100)
    assert count_curve_intersections(sin_field, (0.1, 0.0),
                                     (0.1 + 98.5 * h, 0.0)) == 12
    with pytest.raises(ValueError, match="MAX_GRID_NODES"):
        count_curve_intersections(sin_field, (0.1, 0.0),
                                  (0.1 + 99.5 * h, 0.0))


def test_tiling_inequality():
    # compact components of the big square >= sum over tiles, with deficit
    # bounded by zero crossings along the tiling lines
    u32 = preset("uniform_circle", K=32)
    R2 = 8.0
    k = 2  # 2x2 tiling into side-R1 tiles (R1 = R2/k here, half-squares)
    for seed in range(5):
        s = sample(u32, seed=seed)
        g = evaluate_grid(s, SquareDomain(R2), 1 / 16)
        big = count_components_plane(g).interior_components
        total_tiles = 0
        m = (g.values.shape[0] - 1) // 2
        for ti in range(k):
            for tj in range(k):
                sl_i = slice(ti * m, ti * m + m + 1)
                sl_j = slice(tj * m, tj * m + m + 1)
                sub = ScalarGrid(domain=SquareDomain(R2 / k), h=g.h,
                                 xs=g.xs[sl_i], ys=g.ys[sl_j],
                                 values=g.values[sl_i, sl_j])
                total_tiles += count_components_plane(sub).interior_components
        assert big >= total_tiles
        crossings = 0
        for c in (0.0,):  # one interior vertical + one horizontal line
            crossings += count_curve_intersections(s, (c, -R2), (c, R2))
            crossings += count_curve_intersections(s, (-R2, c), (R2, c))
        assert big - total_tiles <= crossings


def test_resolution_stability():
    # deterministic fields with a healthy stability margin count identically
    # across grid refinements
    from nodalfields.stability import section7_field
    for which, want in (("g", 0), ("monochromatic_g", 0), ("f", None)):
        s = section7_field(which)
        counts = [count_components_plane(
            evaluate_grid(s, SquareDomain(20.0), h)).interior_components
            for h in (0.05, 0.025)]
        assert counts[0] == counts[1]
        if want is not None:
            assert counts[0] == want

    # Gaussian samples may carry nodal-line near-tangencies below any fixed
    # grid scale, so halving h may shift counts by a few units; the drift
    # stays within 5% per sample on 20 uniform-measure draws at R = 10, and
    # the counts show no bias from the spacing: the mean paired drift is
    # -0.10 per draw (+0.75 for a census that splits every saddle cell)
    u64 = preset("uniform_circle", K=64)
    drift = []
    for seed in range(20):
        s = sample(u64, seed=400 + seed)
        c1 = count_components_plane(
            evaluate_grid(s, SquareDomain(10.0), 1 / 16)).interior_components
        c2 = count_components_plane(
            evaluate_grid(s, SquareDomain(10.0), 1 / 32)).interior_components
        assert abs(c1 - c2) <= max(3, 0.05 * c1)
        drift.append(c1 - c2)
    assert abs(np.mean(drift)) <= 0.3


# ---------------------------------------------------------------------------
# certified float32 census grids: every sign, saddle decision and count is
# the float64 grid's

def _anisotropic_measure():
    theta = 2.0 * np.pi * np.arange(24) / 24
    return make_atomic([((math.cos(t), 0.3 * math.sin(t)), 1 / 24)
                        for t in theta])


def _certified_and_float64(s, domain, h=None):
    g32 = evaluate_grid(s, domain, h, certified=True)
    g64 = evaluate_grid(s, domain, h)
    assert g32.values.dtype == np.float32 and g32.bound is not None
    assert g32.sample is s
    assert g64.bound is None and g64.sample is None
    return g32, g64


def _assert_certified_census(g32, g64):
    assert np.array_equal(grid_signs(g32), grid_signs(g64))
    census = count_components_torus if g32.periodic else count_components_plane
    assert census(g32) == census(g64)


@pytest.mark.parametrize("rho", [
    preset("uniform_circle", K=16), preset("uniform_circle", K=64),
    preset("uniform_circle", K=256), _anisotropic_measure(), mu_n(65),
    mu_n(1105), preset("cilleruelo", kappa="one"),
    preset("two_point", theta=0.3)],
    ids=["K16", "K64", "K256", "anisotropic", "mu65", "mu1105",
         "cilleruelo", "two_point"])
def test_certified_census_counts_are_the_float64_counts(rho):
    for i in range(4):
        s = sample(rho, 31, i)
        g32, g64 = _certified_and_float64(s, SquareDomain(12.0))
        # the bound covers the float32 product's error with room to spare
        err = np.abs(g32.values - g64.values).max()
        assert err <= g32.bound
        _assert_certified_census(g32, g64)


def _stated_bound(s):
    """(2m + 4) (2^-23 (A + |origin|) + 2^-124), A = sum_k sqrt(W_k)
    |(a_k, b_k)|, the bound of a certified grid of s."""
    A = float(np.sum(np.sqrt(s.pair_weights)
                     * np.hypot(s.coeff_a, s.coeff_b)))
    origin = abs(s.origin_coeff) * math.sqrt(s.origin_weight)
    return (2 * len(s.coeff_a) + 4) * (2.0**-23 * (A + origin) + 2.0**-124)


def test_certified_bound_is_the_stated_one():
    # pinned, so a smaller bound cannot pass unseen
    s = sample(preset("uniform_circle", K=16), 4, 0)
    g = evaluate_grid(s, SquareDomain(3.0), certified=True)
    assert g.bound == pytest.approx(_stated_bound(s), rel=1e-12)
    with pytest.raises(ValueError, match="order 0"):
        evaluate_grid(s, SquareDomain(3.0), order=1, certified=True)


def _planted_nodes(monkeypatch, g, flat):
    """(planted, reference) for a certified grid g: planted is g with
    float32 values 1 but at the nodes flat, the first half a quarter of the
    bound inside it and the second a quarter outside, on alternate sides of
    the tie threshold; reference is the float64 grid of the same values but
    at the inside nodes, which hold their float64 values from g's tables.
    Asserts that grid_signs values exactly the inside nodes from the
    tables, in one call, and gives planted the signs of reference."""
    half = len(flat) // 2
    inside, outside = np.sort(flat[:half]), flat[half:]
    side = np.where(np.arange(len(outside)) % 2, 1.0, -1.0)
    tie = -topology.TIE_TOL
    values = np.ones(g.values.shape)
    values.flat[outside] = tie + side * 1.25 * g.bound
    planted = replace(g, values=values.astype(np.float32))
    planted.values.flat[inside] = tie + side[:half] * 0.75 * g.bound
    valued = []
    node_values = ScalarGrid.node_values

    def tabled(grid, k):
        valued.append(k.copy())
        return node_values(grid, k)

    monkeypatch.setattr(ScalarGrid, "node_values", tabled)
    pos = grid_signs(planted)
    monkeypatch.undo()
    (k,) = valued
    assert np.array_equal(k, inside)
    values.flat[inside] = g.node_values(inside)
    reference = replace(g, values=values, bound=None, sample=None,
                        tables=None)
    assert np.array_equal(pos, grid_signs(reference))
    assert np.array_equal(pos.flat[outside], side > 0)
    return planted, reference


def test_certified_nodes_just_inside_and_just_outside_the_bound(monkeypatch):
    # planted float32 values a quarter of the bound inside it are valued
    # from the grid's tables and get the float64 sign, those a quarter
    # outside are not; the grid spans several strips of the certificate,
    # and nodes are planted on either side of the first strips' ends
    s = sample(preset("uniform_circle", K=16), 8, 0)
    g = evaluate_grid(s, SquareDomain(12.0), 1 / 32, certified=True)
    assert g.bound == pytest.approx(_stated_bound(s), rel=1e-12)
    ends = topology._STRIP * np.arange(1, 3)
    assert g.values.size > ends[-1]
    rng = np.random.default_rng(3)
    flat = np.setdiff1d(rng.choice(g.values.size, 60, replace=False),
                        np.concatenate([ends - 1, ends]))
    flat = np.concatenate([ends - 1, ends, flat[:46]])
    planted, reference = _planted_nodes(monkeypatch, g, flat)
    assert (count_components_plane(planted)
            == count_components_plane(reference))


@pytest.mark.parametrize("origin", [-1e-14, -1e-14 * (1 - 1e-9), 0.0])
def test_certified_grid_at_the_tie_threshold(origin):
    # a constant field on the tie threshold, or just above it where the
    # float32 cast lands on the float32 threshold: every node is evaluated
    # and signed on the float64 side
    rho = preset("delta_zero")
    s = inject_sample(rho, np.zeros((0, 2)), origin_coeff=origin)
    g32, g64 = _certified_and_float64(s, SquareDomain(2.0), 0.25)
    assert np.all(sign_grid(g64.values) == (origin > -topology.TIE_TOL))
    _assert_certified_census(g32, g64)


def test_certified_grid_with_exact_zeros():
    # sin(2 pi x) on a lattice through x = 0: a column of exact zeros, each
    # within the bound of the tie threshold, so each is evaluated
    rho = preset("two_point", theta=0.0)
    s = inject_sample(rho, [[0.0, 1.0]])
    g32, g64 = _certified_and_float64(s, SquareDomain(2.0), 1 / 16)
    zero = np.flatnonzero(g32.xs == 0.0)
    assert len(zero) == 1 and np.all(g64.values[zero] == 0.0)
    _assert_certified_census(g32, g64)


def test_certified_saddle_centres():
    # 2 sin x sin y has a saddle at the origin, where the cell of the
    # lattice through +-h/2 has a zero mean.  Moving its corners half the
    # bound down keeps their signs and puts the float32 mean below the tie
    # threshold, so only the certificate of the mean, which evaluates the
    # cell, keeps the float64 decision
    rho = preset("tilted_cilleruelo", kappa="one")
    s = inject_sample(rho, [[1.0, 0.0], [-1.0, 0.0]],
                      freq_scale=math.sqrt(2.0))
    h = 0.25
    g32, g64 = _certified_and_float64(s, SquareDomain(8.5 * h), h)
    c = int(np.flatnonzero(g32.xs == -h / 2)[0])
    cell = g64.values[c:c + 2, c:c + 2]
    assert cell[0, 0] == cell[1, 1] and cell[0, 1] == cell[1, 0]
    assert cell[0, 0] * cell[0, 1] < 0
    assert abs(cell.mean()) < 1e-15
    g32.values[c:c + 2, c:c + 2] -= np.float32(0.5 * g32.bound)
    assert np.array_equal(grid_signs(g32), grid_signs(g64))
    assert 0.25 * g32.values[c:c + 2, c:c + 2].sum() < -topology.TIE_TOL
    i = np.array([c])
    assert np.array_equal(topology._centre_signs(g32, i, i),
                          topology._centre_signs(g64, i, i))
    _assert_certified_census(g32, g64)


@pytest.mark.parametrize("scale", [1e-35, 1e-40, 1e-14, 1e35])
def test_certified_grid_under_float32_underflow_and_overflow(scale):
    # tiny coefficients reach float32's subnormals, which the bound's
    # absolute term covers; huge ones would overflow float32, so the grid
    # stays float64
    rho = preset("uniform_circle", K=16)
    for i in range(3):
        s = sample(rho, 5, i)
        coeffs = np.column_stack([s.coeff_a, s.coeff_b]) * scale
        t = inject_sample(rho, coeffs, s.origin_coeff * scale)
        g32 = evaluate_grid(t, SquareDomain(6.0), certified=True)
        g64 = evaluate_grid(t, SquareDomain(6.0))
        if scale > 1:
            assert g32.bound is None and g32.values.dtype == np.float64
        else:
            assert g32.values.dtype == np.float32
        _assert_certified_census(g32, g64)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_certified_grid_of_non_finite_coefficients_is_empty(bad):
    # and so is the float64 grid of count_flips, refused before any port is
    # signed: a NaN slope once kept _taylor_degree's loop from ever exiting,
    # and the alarm turns such a hang into a failure
    import signal

    def hang(signum, frame):
        raise TimeoutError("count_flips did not return")

    rho = preset("uniform_circle", K=16)
    coeffs = np.ones((len(sample(rho, 0).coeff_a), 2))
    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        for t in (_unchecked_sample(rho, np.where(np.eye(len(coeffs), 2),
                                                  bad, coeffs)),
                  _unchecked_sample(rho, coeffs, origin_coeff=bad)):
            with pytest.raises(EmptyGrid):
                count_components_plane(
                    evaluate_grid(t, SquareDomain(2.0), certified=True))
            with pytest.raises(EmptyGrid):
                count_flips(t, SquareDomain(3.0))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_certified_census_makes_no_float64_copy():
    # the census of a 1281^2 certified grid peaks below one float64 grid:
    # no finiteness pass, and nothing upcasts the float32 values
    import tracemalloc

    s = sample(preset("uniform_circle", K=64), 2, 0)
    g = evaluate_grid(s, SquareDomain(40.0), certified=True)
    nx, ny = g.values.shape
    assert nx == ny == 1281 and g.values.dtype == np.float32
    want = count_components_plane(evaluate_grid(s, SquareDomain(40.0)))
    tracemalloc.start()
    try:
        census = count_components_plane(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * nx * ny
    assert census == want


# certified torus grids: the torus census reads signs only too

@pytest.mark.parametrize("draw, h", [
    (lambda i: sample_torus_wave(65, 7, i), torus_spacing(65)),
    (lambda i: sample_torus_wave(1105, 7, i), torus_spacing(1105)),
    (lambda i: cilleruelo_torus_field(5, 7, i), None)],
    ids=["mu65", "mu1105", "cilleruelo"])
def test_certified_torus_counts_are_the_float64_counts(draw, h):
    wrapping = []
    for i in range(4):
        g32, g64 = _certified_and_float64(draw(i), TorusDomain(), h)
        _assert_certified_census(g32, g64)
        wrapping.append(count_components_torus(g32).wrapping_components)
    assert min(wrapping) >= 2


def test_certified_torus_nodes_on_the_last_row_and_column(monkeypatch):
    # planted values the bound cannot sign, on the last row and column of
    # a torus grid, are valued at their own nodes from the grid's tables,
    # and the torus census counts the components of their float64 values
    s = sample_torus_wave(65, 3, 0)
    g = evaluate_grid(s, TorusDomain(), torus_spacing(65), certified=True)
    nx, ny = g.values.shape
    last_row = (nx - 1) * ny + np.arange(0, ny, 3)
    last_column = np.arange(1, nx - 1, 3) * ny + ny - 1
    flat = np.concatenate([last_row[0::2], last_column[0::2],
                           last_row[1::2], last_column[1::2]])
    planted, reference = _planted_nodes(monkeypatch, g, flat)
    census = count_components_torus(reference)
    assert census.interior_components > 10
    assert count_components_torus(planted) == census


def test_certified_torus_saddle_centre_across_the_seams():
    # sin(2 pi x') sin(2 pi y') with x' = x + h/2, y' = y + h/2 has a
    # saddle at the centre of the cell whose corners are the last and the
    # first rows and columns, where its mean is zero.  Moving the corners
    # half the bound down keeps their signs and puts the float32 mean below
    # the tie threshold; only the certificate of the mean, which evaluates
    # the corners across both seams, keeps the float64 decision
    n = 24
    phi = 2.0 * math.pi / n
    s = inject_sample(preset("tilted_cilleruelo", kappa="two_pi"),
                      [[-math.cos(phi), math.sin(phi)], [1.0, 0.0]],
                      freq_scale=math.sqrt(2.0))
    g32, g64 = _certified_and_float64(s, TorusDomain(), 1.0 / n)
    assert g32.values.shape == (n, n)
    cell = g64.values[np.ix_([n - 1, 0], [n - 1, 0])]
    assert cell[0, 0] == pytest.approx(cell[1, 1], abs=1e-15)
    assert cell[0, 1] == pytest.approx(cell[1, 0], abs=1e-15)
    assert cell[0, 0] * cell[0, 1] < 0
    assert abs(cell.mean()) < 1e-15
    g32.values[np.ix_([n - 1, 0], [n - 1, 0])] -= np.float32(0.5 * g32.bound)
    assert np.array_equal(grid_signs(g32), grid_signs(g64))
    assert (0.25 * g32.values[np.ix_([n - 1, 0], [n - 1, 0])].sum()
            < -topology.TIE_TOL)
    i = np.array([n - 1])
    assert np.array_equal(topology._centre_signs(g32, i, i),
                          topology._centre_signs(g64, i, i))
    assert np.array_equal(marching_segments(g32), marching_segments(g64))
    _assert_certified_census(g32, g64)


# the certificate's float64 values: a certified grid carries the float64
# tables its float32 product was cast from, and an undecided node is valued
# from them, the same formula as the float64 grid's product

def _subsquare(monkeypatch, g, R):
    """The sub-square of g that ``stability._subcensus`` counts on [-R, R]^2."""
    subs = []

    def recording(sub):
        subs.append(sub)
        return count_components_plane(sub)

    with monkeypatch.context() as m:
        m.setattr(stability, "count_components_plane", recording)
        stability._subcensus(g, R)
    (sub,) = subs
    return sub


def _origin_atom_measure():
    return make_atomic([((0.0, 0.0), 0.2), ((0.6, 0.8), 0.2),
                        ((-0.6, -0.8), 0.2), ((1.0, 0.0), 0.2),
                        ((-1.0, 0.0), 0.2)])


NODE_VALUE_GRIDS = {
    "K16": lambda mp: evaluate_grid(sample(preset("uniform_circle", K=16), 9),
                                    SquareDomain(6.0), certified=True),
    "K64": lambda mp: evaluate_grid(sample(preset("uniform_circle", K=64), 9),
                                    SquareDomain(5.0), certified=True),
    "K256": lambda mp: evaluate_grid(
        sample(preset("uniform_circle", K=256), 9), SquareDomain(4.0),
        certified=True),
    "mu65": lambda mp: evaluate_grid(sample_torus_wave(65, 9, 0),
                                     TorusDomain(), torus_spacing(65),
                                     certified=True),
    "mu1105": lambda mp: evaluate_grid(sample_torus_wave(1105, 9, 0),
                                       TorusDomain(), torus_spacing(1105),
                                       certified=True),
    "origin-atom": lambda mp: evaluate_grid(sample(_origin_atom_measure(), 4),
                                            SquareDomain(4.0), certified=True),
    "section7-f": lambda mp: evaluate_grid(stability.section7_field("f"),
                                           SquareDomain(6.0), certified=True),
    # the strided R - 1 window of the sandwich at R = 8
    "subsquare-K128": lambda mp: _subsquare(mp, evaluate_grid(
        sample(preset("uniform_circle", K=128), 9), SquareDomain(9.0), 1 / 16,
        certified=True), 7.0),
}


@pytest.mark.parametrize("name", sorted(NODE_VALUE_GRIDS))
def test_node_values_are_the_exact_values_at_the_nodes(monkeypatch, name):
    # within 2^-40 (A + |origin|) of evaluate_batch at the node's point,
    # A = sum_k sqrt(W_k) |(a_k, b_k)|: far below the bound of about
    # 2^-23 (2m + 4) (A + |origin|), so the certificate signs a float64
    # value of the field at every node, the last row and column included
    g = NODE_VALUE_GRIDS[name](monkeypatch)
    s = g.sample
    assert g.values.dtype == np.float32 and g.bound is not None
    if name == "origin-atom":
        assert s.origin_coeff * s.origin_weight != 0.0
    nx, ny = g.values.shape
    rng = np.random.default_rng(11)
    flat = np.concatenate([rng.choice(nx * ny, 300, replace=False),
                           (nx - 1) * ny + np.arange(ny),
                           np.arange(nx) * ny + ny - 1])
    i, j = np.divmod(flat, ny)
    exact = evaluate_batch(s, np.column_stack([g.xs[i], g.ys[j]]))
    origin = abs(s.origin_coeff) * math.sqrt(s.origin_weight)
    A = float(np.sqrt(s.pair_weights) @ np.hypot(s.coeff_a, s.coeff_b))
    tol = 2.0**-40 * (A + origin)
    assert tol < 1e-6 * g.bound
    assert np.abs(g.node_values(flat) - exact).max() <= tol


def test_node_values_do_not_depend_on_the_batch():
    g = evaluate_grid(sample(preset("uniform_circle", K=256), 5),
                      SquareDomain(4.0), certified=True)
    flat = np.random.default_rng(2).choice(g.values.size, 400, replace=False)
    alone = np.concatenate([g.node_values(flat[k:k + 1])
                            for k in range(len(flat))])
    for n in (7, 37, 400):
        batched = np.concatenate([g.node_values(flat[k:k + n])
                                  for k in range(0, len(flat), n)])
        assert batched.tobytes() == alone.tobytes()


def test_certified_grid_tables_are_the_measure_tables(monkeypatch):
    # no copy: a certified grid's tables are the read-only float64 tables
    # of the measure's slot, and a sub-square's are views of its grid's
    s = sample(preset("uniform_circle", K=128), 9)
    g = evaluate_grid(s, SquareDomain(9.0), 1 / 16, certified=True)
    _, (_, _, _, U, _, cy, sy) = s.measure.__dict__["_axis_tables"]
    for got, kept in zip(g.tables, (U, cy, sy)):
        assert got.dtype == np.float64 and not got.flags.writeable
        assert np.shares_memory(got, kept)
    sub = _subsquare(monkeypatch, g, 7.0)
    assert sub.tables[0].shape == (len(sub.xs), U.shape[1])
    assert sub.tables[1].shape == sub.tables[2].shape == (len(cy), len(sub.ys))
    for got, parent in zip(sub.tables, g.tables):
        assert np.shares_memory(got, parent)
    # a float64 grid carries none
    assert evaluate_grid(s, SquareDomain(9.0), 1 / 16).tables is None
    # sample, bound and tables come together or not at all, on every grid
    # and every window of it; a window has values only
    d64 = evaluate_grid(s, SquareDomain(9.0), 1 / 16, order=1)
    for grid in (g, evaluate_grid(s, SquareDomain(9.0), 1 / 16), d64,
                 evaluate_grid(s, TorusDomain(), 1 / 32, certified=True)):
        windows = [grid] if grid.periodic else [grid, grid.window(7.0)]
        for w in windows:
            assert len({x is None for x in (w.sample, w.bound, w.tables)}) == 1
    w = d64.window(7.0)
    assert w.sample is w.bound is w.tables is w.d1 is w.d2 is None


def test_census_certificates_evaluate_no_point(monkeypatch):
    # the estimates' and the sandwich's censuses value their undecided
    # nodes from the grids' tables; the flips still evaluate their ports
    # and midpoints off the lattice
    from nodalfields.estimators import estimate_cns, torus_count_report

    batches, valued = [], []
    node_values = ScalarGrid.node_values

    def batch(s, pts):
        batches.append(len(pts))
        return evaluate_batch(s, pts)

    def tabled(g, flat):
        valued.append(len(flat))
        return node_values(g, flat)

    def uniform(K):
        return preset("uniform_circle", K=K)

    monkeypatch.setattr(topology, "evaluate_batch", batch)
    monkeypatch.setattr(ScalarGrid, "node_values", tabled)
    for run in (lambda: estimate_cns(uniform(64), [2.5, 5, 10], 10, 1),
                lambda: torus_count_report(65, 2, seed=1, planar_M=10),
                lambda: stability.sandwich_check(uniform(128), uniform(256),
                                                 8.0, 3, math.inf, 1)):
        batches.clear()
        valued.clear()
        run()
        assert batches == [] and sum(valued) > 0
    count_flips(sample(U64, 2, 0), SquareDomain(10.0))
    assert sum(batches) > 0
