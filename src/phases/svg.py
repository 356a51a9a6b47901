"""Self-contained SVG heatmap emitter (rect grid plus a linear color ramp).

No plotting dependency: the output is a figure-style file.  The color ramp
interpolates linearly in RGB between the documented hex stops.
"""

from __future__ import annotations

import math

VIRIDIS_STOPS = ("#440154", "#3b528b", "#21918c", "#5ec962", "#fde725")
NAN_COLOR = "#c8c8c8"
CELL_PX = 12  # side of one grid cell


def _hex_to_rgb(h: str) -> tuple[int, int, int]:
    h = h.lstrip("#")
    return int(h[0:2], 16), int(h[2:4], 16), int(h[4:6], 16)


def ramp_color(t: float) -> str:
    """Linear color at t in [0,1] along the VIRIDIS_STOPS ramp."""
    t = min(1.0, max(0.0, t))
    n = len(VIRIDIS_STOPS) - 1
    pos = t * n
    i = min(int(pos), n - 1)
    frac = pos - i
    r0, g0, b0 = _hex_to_rgb(VIRIDIS_STOPS[i])
    r1, g1, b1 = _hex_to_rgb(VIRIDIS_STOPS[i + 1])
    return "#{:02x}{:02x}{:02x}".format(
        round(r0 + frac * (r1 - r0)),
        round(g0 + frac * (g1 - g0)),
        round(b0 + frac * (b1 - b0)),
    )


def heatmap_svg(values, x_values, y_values, title: str, x_label: str, y_label: str) -> str:
    """Render values[iy][ix] as an SVG rect grid; y increases upward.

    NaN cells are drawn in gray.  Returns the SVG document as a string."""
    ny = len(values)
    nx = len(values[0]) if ny else 0
    finite = [v for row in values for v in row if v == v and not math.isinf(v)]
    lo = min(finite) if finite else 0.0
    hi = max(finite) if finite else 1.0
    span = hi - lo if hi > lo else 1.0
    margin_l, margin_b, margin_t, margin_r = 70, 46, 34, 90
    w = margin_l + nx * CELL_PX + margin_r
    h = margin_t + ny * CELL_PX + margin_b
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{margin_l}" y="20" font-family="monospace" font-size="13">{title}</text>',
    ]
    for iy in range(ny):
        for ix in range(nx):
            v = values[iy][ix]
            if v != v or math.isinf(v):
                color = NAN_COLOR
            else:
                color = ramp_color((v - lo) / span)
            x = margin_l + ix * CELL_PX
            y = margin_t + (ny - 1 - iy) * CELL_PX
            out.append(
                f'<rect x="{x}" y="{y}" width="{CELL_PX}" height="{CELL_PX}" fill="{color}"/>'
            )
    axis_y = margin_t + ny * CELL_PX
    out.append(
        f'<text x="{margin_l}" y="{axis_y + 16}" font-family="monospace" '
        f'font-size="11">{x_label}: {x_values[0]:.6g} .. {x_values[-1]:.6g}</text>'
    )
    out.append(
        f'<text x="8" y="{margin_t + 10}" font-family="monospace" '
        f'font-size="11">{y_label}</text>'
    )
    out.append(
        f'<text x="8" y="{margin_t + 24}" font-family="monospace" '
        f'font-size="10">{y_values[-1]:.6g}</text>'
    )
    out.append(
        f'<text x="8" y="{axis_y}" font-family="monospace" '
        f'font-size="10">{y_values[0]:.6g}</text>'
    )
    # legend ramp
    lx = margin_l + nx * CELL_PX + 16
    steps = 24
    lh = max(1, ny * CELL_PX // steps)
    for s in range(steps):
        color = ramp_color(1.0 - s / (steps - 1))
        out.append(
            f'<rect x="{lx}" y="{margin_t + s * lh}" width="14" height="{lh}" fill="{color}"/>'
        )
    out.append(
        f'<text x="{lx + 18}" y="{margin_t + 10}" font-family="monospace" '
        f'font-size="10">{hi:.6g}</text>'
    )
    out.append(
        f'<text x="{lx + 18}" y="{margin_t + steps * lh}" font-family="monospace" '
        f'font-size="10">{lo:.6g}</text>'
    )
    out.append("</svg>")
    return "\n".join(out)
