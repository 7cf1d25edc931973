"""Shared helpers: acceptance functionals over query algorithms, and a
log of executor runs.

An acceptance functional maps a list of tables to one value per table,
as the table-averaging checks call it. ``one_table`` reads one as a
function of a single table, run alone: the form the per-key loops of
``family_reference`` call. ``counting_runs`` logs the start rows of
every ``run_query_algorithm`` run.
"""

from qromlab import adversary, transforms
from qromlab.adversary import QueryAlgorithm, output_distribution, run_query_algorithm
from qromlab.cli import _accept_all_zero as accept_all_zero  # noqa: F401


def counting_runs(monkeypatch) -> list:
    """Log the start-row count of every ``run_query_algorithm`` run,
    rebinding it in each module that binds it."""
    runs = []
    real = adversary.run_query_algorithm

    def counted(alg, verifier=None, oracles=(None,), *rest, **kwargs):
        runs.append(len(oracles))
        return real(alg, verifier, oracles, *rest, **kwargs)

    for module in (adversary, transforms):
        monkeypatch.setattr(module, "run_query_algorithm", counted)
    return runs


def one_table(accept):
    """``accept`` on one table at a time, each in a batch of its own."""
    return lambda table: accept([table])[0]


def accept_register_one(alg: QueryAlgorithm, register: str):
    """Probability that one named output register reads 1, against each
    table, one run per table."""

    def accept(tables):
        return [
            output_distribution(
                run_query_algorithm(alg, oracles=(table,)), (register,)
            ).get((1,), 0)
            for table in tables
        ]

    return accept
