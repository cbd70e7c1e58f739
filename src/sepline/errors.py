"""Exception hierarchy shared by all sepline modules."""


class SeplineError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInstance(SeplineError):
    pass


class PointOffCircle(SeplineError):
    def __init__(self, point_id):
        super().__init__(f"point {point_id} does not lie on the unit circle")
        self.point_id = point_id


class PointOnLine(SeplineError):
    def __init__(self, point_id, line):
        super().__init__(f"point {point_id} lies on line {line}")
        self.point_id = point_id
        self.line = line


class HasIsolatedVertex(SeplineError):
    def __init__(self, vertex):
        super().__init__(f"graph has isolated vertex {vertex}; no edge cover exists")
        self.vertex = vertex


class TooLarge(SeplineError):
    pass


class BadPattern(SeplineError):
    pass


class DominationFailure(SeplineError):
    """A domination property that the theory guarantees failed to hold."""


class GuaranteeViolated(SeplineError):
    """A size or step bound that the theory guarantees failed to hold."""


class RepairExhausted(SeplineError):
    """The repair of a stuck cell found no separating completion of the
    kept lines to exactly kappa lines.  The solve stops here; it never
    widens the search."""


class InvalidDominatingSet(SeplineError):
    pass


class BudgetViolation(SeplineError):
    pass


class NotSeparating(SeplineError):
    pass


class NoSignalLine(SeplineError):
    def __init__(self, track):
        super().__init__(f"no usable signal line in horizontal track {track}")
        self.track = track
