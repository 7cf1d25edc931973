"""Shared helpers: acceptance functionals over query algorithms.

An acceptance functional maps a list of tables to one value per table,
as the table-averaging checks call it. ``one_table`` reads one as a
function of a single table, run alone: the form the per-key loops of
``family_reference`` call.
"""

from qromlab.adversary import QueryAlgorithm, output_distribution, run_query_algorithm
from qromlab.cli import _accept_all_zero as accept_all_zero  # noqa: F401


def one_table(accept):
    """``accept`` on one table at a time, each in a batch of its own."""
    return lambda table: accept([table])[0]


def accept_register_one(alg: QueryAlgorithm, register: str, name: str = "h"):
    """Probability that one named output register reads 1, against each
    table, one run per table."""

    def accept(tables):
        return [
            output_distribution(
                run_query_algorithm(alg, oracles={name: table}), (register,)
            ).get((1,), 0)
            for table in tables
        ]

    return accept
