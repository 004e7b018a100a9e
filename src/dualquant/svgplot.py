"""Self-contained SVG figures for planar grids.

Renders the grid as a scatter over its Delaunay edges with an optional
hull outline.  No plotting dependency: the output is a plain SVG string
with fixed two-decimal pixel coordinates, so a given grid always maps
to byte-identical markup.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .delaunay import Triangulation, triangulate
from .geometry import Grid, save_grid

__all__ = ["render_grid_svg", "write_figure"]

_POINT_R = 3.5
_SIZE = 640  # width and height in pixels
_STYLE = (
    "  <style>\n"
    "    .edge { stroke: #9aa3ab; stroke-width: 1; }\n"
    "    .hull { stroke: #2c7a4b; stroke-width: 2; }\n"
    "    .pt   { fill: #c23b22; }\n"
    "    .pin  { fill: #1f4e79; }\n"
    "    text  { font: 13px sans-serif; fill: #333; }\n"
    "  </style>\n"
)


def _edge_set(tri: Triangulation) -> list[tuple[int, int]]:
    edges = set()
    for i, j, k in tri.triangles:
        for a, b in ((i, j), (j, k), (k, i)):
            edges.add((a, b) if a < b else (b, a))
    return sorted(edges)


def render_grid_svg(grid: Grid, show_hull: bool = True,
                    title: str | None = None) -> str:
    """Render a 2D grid to an SVG string (points, edges, hull outline)."""
    if grid.dim != 2:
        raise ValueError("SVG rendering is for two-dimensional grids")
    tri = triangulate(grid) if grid.n >= 3 else None
    pts = grid.points
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-30)
    margin = 40.0
    scale = (_SIZE - 2 * margin) / max(span[0], span[1])
    mid = 0.5 * (lo + hi)

    def to_px(p):
        # y grows downward in SVG, so flip the second axis
        x = _SIZE / 2 + (p[0] - mid[0]) * scale
        y = _SIZE / 2 - (p[1] - mid[1]) * scale
        return f"{x:.2f}", f"{y:.2f}"

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">\n',
        _STYLE,
        f'  <rect width="{_SIZE}" height="{_SIZE}" fill="#ffffff"/>\n',
    ]
    if title:
        out.append(f'  <text x="{margin:.0f}" y="24">{title}</text>\n')
    if tri is not None:
        hull = set()
        if show_hull:
            hull = {(min(a, b), max(a, b))
                    for a, b in tri.mesh.qhull.convex_hull.tolist()}
        for a, b in _edge_set(tri):
            xa, ya = to_px(pts[a])
            xb, yb = to_px(pts[b])
            cls = "hull" if (a, b) in hull else "edge"
            out.append(f'  <line class="{cls}" x1="{xa}" y1="{ya}" '
                       f'x2="{xb}" y2="{yb}"/>\n')
    for i, p in enumerate(pts):
        x, y = to_px(p)
        cls = "pin" if i in grid.pinned else "pt"
        out.append(f'  <circle class="{cls}" cx="{x}" cy="{y}" '
                   f'r="{_POINT_R}"/>\n')
    out.append("</svg>\n")
    return "".join(out)


def write_figure(grid: Grid, path, show_hull: bool = True,
                 title: str | None = None) -> Path:
    """Write the SVG plus a sibling CSV of the plotted coordinates."""
    path = Path(path)
    if path.suffix.lower() != ".svg":
        path = path.with_suffix(".svg")
    path.write_text(render_grid_svg(grid, show_hull=show_hull, title=title))
    save_grid(grid, path.with_suffix(".csv"))
    return path
