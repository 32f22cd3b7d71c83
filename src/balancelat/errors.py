"""Exception hierarchy shared by all balancelat modules."""


class BalanceLatError(Exception):
    """Base class for all errors raised by this package."""


class RankDeficient(BalanceLatError):
    """A matrix that must be full rank is not, or a linear system is singular."""


class BudgetExceeded(BalanceLatError):
    """An enumeration would visit more nodes than the configured budget."""


class PreconditionFailed(BalanceLatError):
    """A checked precondition of an operation does not hold, such as a
    dimension too small or not a perfect square."""


class NotFound(BalanceLatError):
    """No nonzero integer point exists in the searched region."""


class OracleContractViolation(BalanceLatError):
    """An oracle returned a result that fails its own claimed guarantee."""


class InternalContradiction(BalanceLatError):
    """A state the underlying proof rules out was reached; treated as an oracle fault."""


class InvalidParams(BalanceLatError):
    """Malformed CLI parameters, input documents, solutions or parameters out of range."""
