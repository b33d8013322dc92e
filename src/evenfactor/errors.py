"""Exceptions shared across modules."""


class ScaleError(RuntimeError):
    """An exhaustive enumeration was requested beyond its configured cap."""
