"""Exception hierarchy shared by all optbranch modules.

The CLI maps these onto exit codes: bad user input exits with 2,
everything else (internal invariants, numeric trouble) exits with 1.
"""


class OptBranchError(Exception):
    """Base class for all errors raised by this package."""


class InputError(OptBranchError):
    """Invalid user-supplied data: bad vertex ids, malformed files, bad flags."""


class CapacityError(OptBranchError):
    """A region or subproblem exceeds the configured enumeration limit."""


class InfeasibleError(OptBranchError):
    """A set-cover instance whose sets cannot cover the universe."""


class DegenerateClauseError(OptBranchError):
    """A clause whose application does not reduce the complexity measure."""


class NumericError(OptBranchError):
    """A numeric routine failed to converge.

    No routine of the package raises it: the set-cover LPs and MIPs run in
    HiGHS, whose failures surface as :class:`InternalError`.  It stays in
    the hierarchy for callers that catch it.
    """


class InternalError(OptBranchError):
    """An invariant that should be unreachable was violated; report as a bug."""
