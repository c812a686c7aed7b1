"""Exception hierarchy shared across the package."""


class FractreeError(Exception):
    """Base class for all fractree errors."""


class BadParameterError(FractreeError):
    """A graph-family parameter or a setting is out of its legal range."""


class OverflowCapError(FractreeError):
    """Expanding a factored count would exceed the configured bit cap."""


class SizeCapError(FractreeError):
    """A requested construction or computation exceeds the vertex cap."""


class DisconnectedGraphError(FractreeError):
    """An operation that requires a connected graph got a disconnected one."""


class InvalidVertexError(FractreeError):
    """A vertex id does not exist in the graph."""


class InvalidVertexSetError(InvalidVertexError):
    """A vertex set contains ids that do not exist in the graph."""


class DomainViolationError(FractreeError):
    """A closed-form formula was evaluated outside its stated domain."""
