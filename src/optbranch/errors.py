"""Exception hierarchy shared by all optbranch modules.

The CLI maps these onto exit codes: bad user input, a region above the
enumeration limit or the boundary limit or with too many independent
configurations to list, and a ``discover`` region with no rule that lowers
the measure exit with 2, everything else (internal invariants) exits with 1.
"""


class OptBranchError(Exception):
    """Base class for all errors raised by this package."""


class InputError(OptBranchError):
    """Invalid user-supplied data: bad vertex ids, malformed files, bad flags."""


class CapacityError(OptBranchError):
    """A region is wider than the enumeration limit, has more boundary
    vertices than the boundary limit, or its independent configurations
    would pass the kernels' listing cap."""


class InfeasibleError(OptBranchError):
    """A set-cover instance whose sets cannot cover the universe."""


class InternalError(OptBranchError):
    """An invariant that should be unreachable was violated; report as a bug."""
