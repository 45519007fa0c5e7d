"""The SQL layer's typed errors: a statement the client got wrong.

Everything a well-formed request can get wrong raises one of these (or
:class:`~.lexer.SqlSyntaxError`), so the service answers it as a client
error instead of an internal one.
"""


class SqlExecutionError(ValueError):
    """Raised on semantic errors: unknown tables/columns, bad aggregates."""


class SqlFunctionError(SqlExecutionError):
    """Raised on unknown functions or bad argument types/counts/values."""
