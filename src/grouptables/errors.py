class DomainError(ValueError):
    """An operation was applied outside its stated domain."""


class ResourceError(ValueError):
    """A construction would exceed a hard size guard."""


class UsageError(ValueError):
    """A command line that does not follow the CLI grammar."""
