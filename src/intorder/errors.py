"""Exception types shared across the package."""


class InputError(ValueError):
    """An argument violates an operation's input contract."""


class InternalInconsistencyError(RuntimeError):
    """Independent code paths disagree; always indicates a bug, never bad input."""


class NotIntervalGraphError(InputError):
    """An interval graph was required; carries the obstruction certificate."""

    def __init__(self, message, obstruction):
        super().__init__(message)
        self.obstruction = obstruction
