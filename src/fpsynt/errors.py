"""Exception hierarchy shared by all fpsynt stages."""


class FpsyntError(Exception):
    """Base class for all tool errors."""


class SpecError(FpsyntError):
    """A problem in the .fps source. Carries a source position when known."""

    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(str(self))

    def __str__(self):
        if self.line is not None:
            return f"{self.line}:{self.col}: {self.message}"
        return self.message


class ParseError(SpecError):
    """Lexical or syntactic error."""


class ValidationError(SpecError):
    """Declared formats or bindings violate their invariants."""


class CannotFitError(FpsyntError):
    """A value or signal cannot be represented within the configured word width."""


class PlanCheckError(FpsyntError):
    """A plan, finished or in the making, breaks an analysis invariant: a
    planner bug, not a user error."""


class MalformedRawError(FpsyntError):
    """A raw integer is inconsistent with its format (redundant sign bits disagree)."""


class RangeError(FpsyntError):
    """A real value lies outside the representable range of a format."""


class CycleError(FpsyntError):
    """The dataflow graph contains a cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("cycle in dataflow graph: " + " -> ".join(self.cycle))


class EmitError(FpsyntError):
    """Code generation cannot honor the plan (e.g. intermediate wider than the host type)."""


class VectorError(FpsyntError):
    """A test-vector file or value is malformed or out of range."""


class InternalOverflowError(FpsyntError):
    """A simulated raw value escaped its node's format range.

    Must never fire for a plan produced by the analyzer; firing indicates a
    planner bug, not a user error.
    """

    def __init__(self, node_id, raw):
        self.node_id = node_id
        self.raw = raw
        super().__init__(f"internal overflow at node '{node_id}': raw value {raw}")
