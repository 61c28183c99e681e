"""Exception types shared across the library."""


class MirrorGalleryError(Exception):
    """Base class for every error raised by this package."""


class GeometryError(MirrorGalleryError):
    """Invalid geometric input (degenerate or non-simple polygon, bad segment)."""


class QueryOutsidePolygon(MirrorGalleryError):
    """The query point does not lie in the closed polygon."""


class SegmentOutsidePolygon(MirrorGalleryError):
    """The segment is not fully contained in the closed polygon."""


class SpecMismatch(MirrorGalleryError):
    """A reflection request does not match the kind/bounce limits it was built for."""


class SourceOnMirrorLine(MirrorGalleryError):
    """The source lies on the supporting line of the mirror edge; no virtual source exists."""


class BitBlowup(MirrorGalleryError):
    """Coordinate bit-length exceeded the configured safety cap during a bounce cascade."""


class InvariantViolated(MirrorGalleryError):
    """An invariant the algorithm guarantees did not hold: a library bug, not bad input."""


class TooLarge(MirrorGalleryError):
    """Instance too large for exhaustive enumeration."""


class GraphDisconnected(MirrorGalleryError):
    """The guard graph is not connected."""


class CoverageCertificationFailed(MirrorGalleryError):
    """A guard set failed its exact reflection-coverage certificate."""


class NotAFunnel(MirrorGalleryError):
    """Polygon is not a funnel; carries the first violating vertex index, if any."""

    def __init__(self, message, violating_vertex=None):
        super().__init__(message)
        self.violating_vertex = violating_vertex


class QueryOutside(MirrorGalleryError):
    """Query point not interior to the funnel."""


class NotWeaklyVisible(MirrorGalleryError):
    """The polygon is not weakly visible from the given chord."""


class CertificationFailed(MirrorGalleryError):
    """An exact-area certification check did not hold."""


class InvalidInstance(MirrorGalleryError):
    """Reduction generator rejected the input values."""


class VerificationFailed(MirrorGalleryError):
    """Instance verification found a violated clause; carries the report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ParseError(MirrorGalleryError):
    """Malformed instance file."""
