"""Exceptions shared across modules."""


class ScaleError(RuntimeError):
    """A request went beyond one of the configured scale caps."""
