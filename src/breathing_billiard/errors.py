"""Exception hierarchy shared by all modules, and the one check of a count."""

import operator

MAX_COUNT = 1 << 20  # most entries any caller-sized count may ask memory for


class BilliardError(Exception):
    """Base class for all toolkit errors."""


class PreconditionError(BilliardError):
    """An operation was called with arguments outside its stated contract."""


class DomainError(BilliardError):
    """A point left the region where the map / generating function is defined."""


class ConvergenceError(BilliardError):
    """An iterative solver exhausted its budget without meeting its tolerance."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def check_count(what: str, n, floor: int | None = None, size=None) -> int:
    """The count n as an int, checked before any work it sizes.

    A non-integer n, an n below floor and, where the count sizes memory, an n
    whose size(n) entries pass MAX_COUNT (read at each call) raise
    PreconditionError.
    """
    try:
        count = operator.index(n)
    except TypeError:
        count = None
    if count is None or (floor is not None and count < floor):
        least = "" if floor is None else f" >= {floor}"
        raise PreconditionError(f"{what} must be an integer{least}, got {n!r}")
    if size is not None and size(count) > MAX_COUNT:
        raise PreconditionError(f"{what} = {count} asks for {size(count)} entries, "
                                f"more than {MAX_COUNT}")
    return count
