"""Exception types shared across the package."""


class CapabilityError(Exception):
    """Raised when an exact computation is requested beyond its supported size.

    Callers can distinguish "you asked for something this tool refuses to
    attempt" (this error) from a malformed input (ValueError).  The CLI maps
    this to exit code 3.
    """


class StatisticalCheckError(Exception):
    """Raised when a sweep's exact-reference rows fall outside their error band.

    Carries the offending rows; the message lists each one, and the CLI
    prints it before exiting with code 4.
    """

    def __init__(self, message: str, rows: list | None = None) -> None:
        super().__init__(message)
        self.rows = rows or []
