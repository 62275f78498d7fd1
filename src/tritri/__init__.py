"""Robust triangle-triangle intersection in 3D.

The kernel reduces the 3D problem to 2D: one triangle's plane becomes the
working plane, the other triangle's edge crossings with it become a
segment, and the segment is clipped against the first triangle's 2D image
using region codes.  Coplanar pairs are resolved by polygon clipping.

The public entry point is :func:`intersect`; :func:`prepare` does a
triangle's own share of the work once, for reuse across many ``intersect``
calls: a :class:`PreparedTriangle` keeps the triangle, its unit normal, the
tolerance that work holds under, and its frame axes and window once built.
The 2D machinery (region codes, segment clipping, coplanar contours) is
also exported for direct use.
"""

from .core import (
    DEFAULT_TOLERANCE,
    Plane,
    Point3,
    Tolerance,
    Triangle3,
    plane_from_triangle,
)
from .clip2d import (
    clip_segment_to_triangle,
    region_code,
    window_lines,
)
from .coplanar import intersect_coplanar
from .errors import (
    DegenerateTriangle,
    EmptyMesh,
    GeometryError,
    NonFiniteInput,
    ParseError,
)
from .intersect import (
    CaseLabel,
    EmptyReason,
    IntersectionResult,
    PreparedTriangle,
    contact_margin,
    intersect,
    prepare,
)

__version__ = "0.1.0"

__all__ = [
    "CaseLabel",
    "DEFAULT_TOLERANCE",
    "DegenerateTriangle",
    "EmptyMesh",
    "EmptyReason",
    "GeometryError",
    "IntersectionResult",
    "NonFiniteInput",
    "ParseError",
    "Plane",
    "Point3",
    "PreparedTriangle",
    "Tolerance",
    "Triangle3",
    "clip_segment_to_triangle",
    "contact_margin",
    "intersect",
    "intersect_coplanar",
    "plane_from_triangle",
    "prepare",
    "region_code",
    "window_lines",
]
