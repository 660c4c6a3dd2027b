"""Exception types shared across the package."""

__all__ = [
    "DomainError",
    "EnumerationBoundError",
    "SpecConstraintError",
    "SpecSyntaxError",
]


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class EnumerationBoundError(RuntimeError):
    """A group is too large for explicit element enumeration."""


class SpecSyntaxError(ValueError):
    """Group-spec text that does not match the grammar.

    ``position`` is the byte offset of the offending character.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class SpecConstraintError(ValueError):
    """Group-spec text that parses but violates a family bound (e.g. ``D2``)."""
