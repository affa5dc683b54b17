"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class NegativeProbabilityError(ToolkitError):
    def __init__(self, x, y1, y2, value):
        self.x, self.y1, self.y2, self.value = x, y1, y2, value
        super().__init__(f"negative entry {value!r} at (x={x}, y1={y1}, y2={y2})")


class RowNotNormalizedError(ToolkitError):
    def __init__(self, x, row_sum):
        self.x, self.row_sum = x, row_sum
        super().__init__(f"row x={x} sums to {row_sum!r}, expected 1")


class NotDeterministicError(ToolkitError):
    def __init__(self, x):
        self.x = x
        super().__init__(f"row x={x} is not a 0/1 point mass")


class SizeCapExceededError(ToolkitError):
    def __init__(self, needed, cap):
        self.needed, self.cap = needed, cap
        super().__init__(f"required size {needed} exceeds cap {cap}")


class EnumerationCapExceededError(ToolkitError):
    def __init__(self, needed, cap):
        self.needed, self.cap = needed, cap
        super().__init__(f"{needed} candidates exceed enumeration cap {cap}")


class DimensionMismatchError(ToolkitError):
    pass


class SideMismatchError(ToolkitError):
    pass


class InfeasibleError(ToolkitError):
    """The linear program admits no feasible point."""


class UnboundedError(ToolkitError):
    """The linear program's objective is unbounded above."""


class IterationLimitError(ToolkitError):
    def __init__(self, pivots):
        self.pivots = pivots
        super().__init__(f"simplex stopped after {pivots} pivots")


class InvariantViolationError(ToolkitError):
    pass


class BadParametersError(ToolkitError):
    pass


class ParseError(ToolkitError):
    pass


class ValidationError(ToolkitError):
    pass
