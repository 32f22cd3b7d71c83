"""Exception hierarchy shared by all balancelat modules."""


class BalanceLatError(Exception):
    """Base class for all errors raised by this package."""


class RankDeficient(BalanceLatError):
    """A matrix that must be full rank is not."""


class Singular(BalanceLatError):
    """A linear system has a singular coefficient matrix."""


class ZeroVector(BalanceLatError):
    """A candidate solution vector is identically zero."""


class CoefficientOutOfRange(BalanceLatError):
    """A solution coefficient exceeds its declared bound."""


class BudgetExceeded(BalanceLatError):
    """An enumeration would visit more nodes than the configured budget."""


class DimensionTooSmall(BalanceLatError):
    """The instance dimension cannot host the requested construction."""


class NotPerfectSquare(BalanceLatError):
    """The block construction needs a perfect-square dimension."""


class IncompatibleDimension(BalanceLatError):
    """The dimension does not support the requested number of halving rounds."""


class ParameterOutOfRange(BalanceLatError):
    """A parameter violates its declared range."""


class PreconditionFailed(BalanceLatError):
    """A checked precondition of an operation does not hold."""


class NotFound(BalanceLatError):
    """No nonzero integer point exists in the searched region."""


class OracleContractViolation(BalanceLatError):
    """An oracle returned a result that fails its own claimed guarantee."""


class InternalContradiction(BalanceLatError):
    """A state the underlying proof rules out was reached; treated as an oracle fault."""


class InvalidParams(BalanceLatError):
    """Malformed CLI parameters or input documents."""
