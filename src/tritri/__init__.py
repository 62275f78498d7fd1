"""Robust triangle-triangle intersection in 3D.

The kernel reduces the 3D problem to 2D: one triangle's plane becomes the
working plane, the other triangle's edge crossings with it become a
segment, and the segment is clipped against the first triangle's 2D image
using region codes.  Coplanar pairs are resolved by polygon clipping.

The public entry point is :func:`intersect`; :func:`prepare` does a
triangle's own share of the work once, for reuse across many ``intersect``
calls.  The 2D machinery (region codes, segment clipping, coplanar
contours) is also exported for direct use.
"""

from .core import (
    DEFAULT_TOLERANCE,
    Plane,
    PlaneRelation,
    Point3,
    Tolerance,
    Triangle3,
    classify_planes,
    plane_from_triangle,
    signed_distance,
)
from .clip2d import (
    ccw_vertices,
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
from .frame import PlaneFrame, Point2, build_frame, from_plane, to_plane
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
    "PlaneFrame",
    "PlaneRelation",
    "Point2",
    "Point3",
    "PreparedTriangle",
    "Tolerance",
    "Triangle3",
    "build_frame",
    "ccw_vertices",
    "classify_planes",
    "clip_segment_to_triangle",
    "contact_margin",
    "from_plane",
    "intersect",
    "intersect_coplanar",
    "plane_from_triangle",
    "prepare",
    "region_code",
    "signed_distance",
    "to_plane",
    "window_lines",
]
