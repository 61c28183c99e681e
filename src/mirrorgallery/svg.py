"""Deterministic SVG 1.1 rendering of polygons, regions, and markers.

Coordinates are emitted with 12 significant decimal digits (display only;
nothing here feeds back into computation) and the y axis is flipped so
renders match the usual mathematical orientation.
"""

from __future__ import annotations

from fractions import Fraction

from .geom import Point, Region, Segment, SimplePolygon, merge_region

_PALETTE = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def fmt_decimal(x: Fraction, sig: int = 12) -> str:
    x = Fraction(x)
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    x = abs(x)
    int_digits = len(str(x.numerator // x.denominator)) if x >= 1 else 0
    frac_digits = max(sig - int_digits, 0)
    scaled = x * 10**frac_digits
    n = scaled.numerator // scaled.denominator
    rem = scaled - n
    half = Fraction(1, 2)
    if rem > half or (rem == half and n % 2 == 1):
        n += 1
    s = str(n)
    if frac_digits:
        s = s.rjust(frac_digits + 1, "0")
        s = s[:-frac_digits] + "." + s[-frac_digits:]
        s = s.rstrip("0").rstrip(".")
    return sign + (s or "0")


class SvgCanvas:
    def __init__(self, bbox, scale: int = 64):
        pad = max((bbox[2] - bbox[0]) / 20, Fraction(1, 2))
        xmin, ymin, xmax, ymax = bbox[0] - pad, bbox[1] - pad, bbox[2] + pad, bbox[3] + pad
        self.xmin, self.ymin, self.xmax, self.ymax = xmin, ymin, xmax, ymax
        self.scale = scale
        self.body: list[str] = []

    def _pt(self, p: Point) -> str:
        # y axis flipped
        x = (p.x - self.xmin) * self.scale
        y = (self.ymax - p.y) * self.scale
        return f"{fmt_decimal(x)},{fmt_decimal(y)}"

    def polygon_outline(self, poly: SimplePolygon, stroke="#000000", width="2"):
        pts = " ".join(self._pt(v) for v in poly.vertices)
        self.body.append(
            f'<polygon points="{pts}" fill="none" stroke="{stroke}" stroke-width="{width}"/>'
        )

    def region_fill(self, region: Region, fill="#1f77b4", opacity="0.35"):
        for part in merge_region(region).parts:
            pts = " ".join(self._pt(v) for v in part.vertices)
            self.body.append(
                f'<polygon points="{pts}" fill="{fill}" fill-opacity="{opacity}" stroke="none"/>'
            )

    def segment(self, seg: Segment, stroke="#d62728", width="4"):
        a = self._pt(seg.a).split(",")
        b = self._pt(seg.b).split(",")
        self.body.append(
            f'<line x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" y2="{b[1]}" '
            f'stroke="{stroke}" stroke-width="{width}"/>'
        )

    def marker(self, p: Point, fill="#000000"):
        xy = self._pt(p).split(",")
        self.body.append(f'<circle cx="{xy[0]}" cy="{xy[1]}" r="5" fill="{fill}"/>')

    def render(self) -> str:
        w = fmt_decimal((self.xmax - self.xmin) * self.scale)
        h = fmt_decimal((self.ymax - self.ymin) * self.scale)
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">'
        )
        return "\n".join([head, *self.body, "</svg>"]) + "\n"


def render_scene(
    polygon: SimplePolygon,
    *,
    query: Point | None = None,
    regions: list[tuple[Region, str]] | None = None,
    highlight_edges: list[int] | None = None,
    extra_segments: list[Segment] | None = None,
) -> str:
    canvas = SvgCanvas(polygon.bbox)
    for i, (region, color) in enumerate(regions or []):
        canvas.region_fill(region, fill=color)
    canvas.polygon_outline(polygon)
    for rank, e in enumerate(highlight_edges or []):
        canvas.segment(polygon.edge(e), stroke=_PALETTE[rank % len(_PALETTE)])
    for seg in extra_segments or []:
        canvas.segment(seg, stroke="#444444", width="1")
    if query is not None:
        canvas.marker(query)
    return canvas.render()
