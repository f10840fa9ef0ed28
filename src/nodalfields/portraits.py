"""Zero-set portraits: polyline extraction and SVG / PPM emission.

Zero curves are chained from marching-squares cell segments with linear
interpolation on cell edges; saddle cells are resolved by the sign of the
cell-center mean.  The marching segments run with the positive side on
their left, and the chains step along them through the tables of the
segments leaving and entering each port (``topology.edge_table``); the
torus census steps through the same table of segment starts, so torus
pictures and torus counts agree on the same grid, and at their
defaults they draw and count on the same one: both ``portrait --torus-n n``
and ``torus_count_report`` take ``arithmetic.torus_spacing(n)`` (144^2
nodes at n = 65, 544^2 at n = 1105).
The square census counts the closed chains of the same graph.  Output is
byte-stable for identical inputs.
"""

from __future__ import annotations

import numpy as np

from .fields import ScalarGrid
from .topology import edge_ports, edge_table, grid_signs, marching_segments


def zero_polylines(grid: ScalarGrid):
    """Chained zero curves as (points, closed) pairs.

    Points are (N, 2) coordinate arrays of the crossing ports the chain
    passes; a closed chain ends on its first point.  Open chains come first,
    each starting at the lower of its two boundary ports, in ascending order
    of that port; then cycles, each starting at its smallest port and leaving
    along its lower-numbered segment.  Port coordinates stay within the grid
    (in [0, 1] on the torus), so a torus chain jumps where it crosses a seam;
    ``render_svg`` splits it there.
    """
    segA, segB = marching_segments(grid)
    if len(segA) == 0:
        return []
    # half-edge 2k runs segA[k] -> segB[k] and 2k + 1 back; a port is left
    # by the forward half-edge of the segment starting there and the
    # backward one of the segment ending there (negative where none does),
    # and a half-edge goes on along the other segment of the port it reaches
    n_edges = 2 * grid.values.size
    leaving = 2 * edge_table(segA, n_edges)
    entering = 2 * edge_table(segB, n_edges) + 1
    step = np.column_stack([leaving[segB], entering[segA]]).ravel()
    coords = edge_ports(np.column_stack([segA, segB]).ravel(), grid)
    # open chains leave their lower degree-1 port, cycles their smallest
    # port along its lower-numbered segment, whose half-edge is the lower
    # one; both are met in port order
    end = (leaving < 0) != (entering < 0)
    first = np.where(end, np.maximum(leaving, entering),
                     np.minimum(leaving, entering))
    starts = np.concatenate([first[end], first[first >= 0]])

    succ = step.tolist()
    used = bytearray(len(segA))
    chains = []
    for h0 in starts.tolist():
        if used[h0 >> 1]:
            continue
        path = []
        h = h0
        while True:
            used[h >> 1] = 1
            path.append(h)
            h = succ[h]
            if h < 0 or h == h0:
                break
        path.append(path[-1] ^ 1)
        chains.append((coords[path], h == h0))
    return chains


def _wrap_split(pts: np.ndarray):
    """Split a torus chain wherever it jumps across the fundamental domain."""
    wrapped = pts % 1.0
    jumps = np.abs(np.diff(wrapped, axis=0)).max(axis=1) > 0.5
    pieces = []
    start = 0
    for i in np.nonzero(jumps)[0]:
        pieces.append(wrapped[start:i + 1])
        start = i + 1
    pieces.append(wrapped[start:])
    return [p for p in pieces if len(p) >= 2]


def render_svg(grid: ScalarGrid, path, size: int = 800) -> int:
    """Write the zero-set portrait as SVG; returns the number of chains."""
    if size < 1:
        raise ValueError("portrait size must be at least 1 pixel")
    chains = zero_polylines(grid)
    x0, x1 = float(grid.xs[0]), float(grid.xs[-1])
    y0, y1 = float(grid.ys[0]), float(grid.ys[-1])
    if grid.periodic:
        x0, x1, y0, y1 = 0.0, 1.0, 0.0, 1.0
    span = max(x1 - x0, y1 - y0)
    stroke_width = span / size * 1.5

    def fmt(v):
        return f"{v:.6f}"

    paths = []
    for pts, closed in chains:
        pieces = _wrap_split(pts) if grid.periodic else [pts]
        for piece in pieces:
            d = "M " + " L ".join(f"{fmt(p[0])} {fmt(p[1])}" for p in piece)
            if closed and len(pieces) == 1:
                d += " Z"
            paths.append(f'<path d="{d}"/>')

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{fmt(x0)} {fmt(y0)} {fmt(x1 - x0)} {fmt(y1 - y0)}">',
        f'<rect x="{fmt(x0)}" y="{fmt(y0)}" width="{fmt(x1 - x0)}" '
        f'height="{fmt(y1 - y0)}" fill="white"/>',
        f'<g fill="none" stroke="black" stroke-width="{fmt(stroke_width)}" '
        'stroke-linecap="round">',
        *paths,
        "</g>",
        "</svg>",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(chains)


def render_ppm(grid: ScalarGrid, path):
    """Binary P6 raster: sign field in two grays, crossings in black."""
    pos = grid_signs(grid)
    nx, ny = pos.shape
    img = np.where(pos[:, :, None], np.uint8(235), np.uint8(170))
    img = np.repeat(img, 3, axis=2)
    # a node is black when its upper x or y neighbour has the other sign; a
    # square grid's last row and column compare with themselves
    ext = np.pad(pos, ((0, 1), (0, 1)), mode="wrap" if grid.periodic else "edge")
    img[(pos != ext[1:, :-1]) | (pos != ext[:-1, 1:])] = 0
    # image rows run top-down: transpose so x is horizontal, flip y
    img = np.transpose(img, (1, 0, 2))[::-1]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{nx} {ny}\n255\n".encode())
        fh.write(img.tobytes())


def dump_grid_csv(grid: ScalarGrid, path, seed: int | None, kappa: str):
    """Matrix dump with a one-line header: the grid's domain and spacing,
    the draw's seed ("none" for a fixed field) and the measure's kappa."""
    header = (f"# domain={grid.domain.descriptor()} h={grid.h:.17g} "
              f"seed={'none' if seed is None else seed} kappa={kappa}")
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in grid.values:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
