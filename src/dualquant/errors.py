"""Exception types shared across the package."""


class DualQuantError(Exception):
    """Base class for errors raised by this package."""


class InfeasibleError(DualQuantError):
    """A point lies outside the convex hull of the grid."""


class FlatGridError(DualQuantError):
    """The grid does not affinely span the ambient space."""


class SampleOutsideHullError(InfeasibleError):
    """A point outside the hull, met where the extended variant is off."""


class NonDifferentiableError(DualQuantError):
    """Gradient requested at a kink of the chosen norm."""


class DegenerateGeometryError(DualQuantError):
    """Degenerate input (collinear circumcenter request, duplicate points)."""


class BasisBudgetError(DualQuantError):
    """Exhaustive basis enumeration would exceed the combinatorial budget."""


class GridFormatError(DualQuantError):
    """A grid file is missing, malformed, or inconsistent."""


class MaxIterationsError(DualQuantError):
    """Iterative solver hit its iteration cap before reaching tolerance.

    The last iterate's report is attached as ``.report`` when available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
