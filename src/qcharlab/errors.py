"""Exception types shared across the package, and the exact-integer input rules.

The CLI maps these onto its exit-code contract: invalid input exits with 2,
a theorem violation (a structural prediction contradicted by brute force,
which always signals an implementation bug) exits with 3, and any other
exception from a command exits with 4.
"""


class InvalidInput(ValueError):
    """An argument violates a documented precondition."""


class InvariantViolation(AssertionError):
    """An internal structural invariant failed; never expected on valid input."""


class TheoremViolation(InvariantViolation):
    """A closed-form prediction disagrees with the brute-force computation."""


def require_int(what: str, value) -> None:
    """Reject anything but a plain ``int`` (a ``bool`` included) rather than coerce it."""
    if type(value) is not int:
        raise InvalidInput(f"{what} must be an integer, got {value!r}")


def require_rank(n) -> None:
    """Reject a rank that is not a positive plain ``int``."""
    require_int("rank", n)
    if n < 1:
        raise InvalidInput(f"rank must be positive, got {n}")
