"""Exception types shared across the package."""


class CapExceededError(ValueError):
    """A size cap was exceeded (combinatorial explosion guard)."""


class ContractError(ArithmeticError):
    """A mathematical identity the pipeline relies on failed: a value that
    must be integral or polynomial was not, or a division that must be exact
    left a remainder.  Verification reports it as a failed record, never as
    a traceback or a usage error."""


class NonExactDivisionError(ContractError):
    """A division that must be exact left a nonzero remainder."""
