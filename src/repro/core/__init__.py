"""Core of the Proteus reproduction.

This package contains the paper's primary contribution: the nested relational
algebra, the monoid-comprehension frontends, the optimizer, and the per-query
code-generation machinery that collapses the engine into a specialized program
for every query.
"""

from repro.core.engine import PreparedQuery, ProteusEngine, ResultSet

__all__ = ["PreparedQuery", "ProteusEngine", "ResultSet"]
