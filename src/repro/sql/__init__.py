"""The declarative layer: a mini SQL engine with OGC ST_* functions.

Usage::

    from repro.sql import Session

    session = Session()
    session.register_table(points_table)          # imprints-backed
    session.register_columns("zones", {...})      # geometry object column
    result = session.execute(
        "SELECT avg(z) FROM points "
        "WHERE ST_Contains(ST_GeomFromText('POLYGON((...))'), "
        "ST_Point(x, y))"
    )

Spatial predicates over registered point tables are pushed down through
the column imprints + grid refinement pipeline (Section 3.3); everything
else evaluates as vectorised numpy expressions.
"""

from .errors import SqlExecutionError, SqlFunctionError
from .executor import Relation, Result, Session
from .lexer import SqlSyntaxError
from .parser import parse

__all__ = [
    "Relation",
    "Result",
    "Session",
    "SqlExecutionError",
    "SqlFunctionError",
    "SqlSyntaxError",
    "parse",
]
