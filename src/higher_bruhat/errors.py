"""Exception types shared across the library."""


class ParameterError(ValueError):
    """Arguments violate an operation's preconditions."""


class InconsistentSetError(ParameterError):
    """A member family fails the packet segment condition."""


class NotAPosetError(ParameterError):
    """The given relation or cover digraph is not a partial order."""


class NotBoundedError(ParameterError):
    """The poset has no unique minimum or maximum."""


class NotClosedError(ParameterError):
    """The simplex family is not closed under taking faces."""


class ResourceLimitError(RuntimeError):
    """A configured size budget would be exceeded."""


class InvariantError(RuntimeError):
    """A mathematically guaranteed invariant failed.

    Raised where a result is provably impossible for well-formed input;
    seeing it means the input was corrupted or there is a bug.
    """
