"""Exception types shared across the package."""


class AntclustError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(AntclustError, ValueError):
    """A parameter or config field is invalid; the message names the field."""


class NodeNotFoundError(AntclustError, LookupError):
    """A node id does not exist in the topology."""


class ParseError(AntclustError, ValueError):
    """A topology / clustering / spec file is malformed."""


class ValidityError(AntclustError, ValueError):
    """A clustering constraint is violated (e.g. heads do not dominate)."""

    def __init__(self, message, uncovered=()):
        super().__init__(message)
        self.uncovered = sorted(uncovered)


class NodeLimitError(AntclustError, ValueError):
    """Refusal: optimality not proven within the branch-and-bound node budget."""
