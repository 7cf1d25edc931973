"""Shared helpers: acceptance functionals over query algorithms."""

from qromlab.adversary import QueryAlgorithm, output_distribution, run_query_algorithm
from qromlab.cli import _accept_all_zero as accept_all_zero  # noqa: F401
from qromlab.oracle import ClassicalOracle


def accept_register_one(alg: QueryAlgorithm, register: str, name: str = "h"):
    """Probability that one named output register reads 1."""

    def accept(table: ClassicalOracle):
        run = run_query_algorithm(alg, oracles={name: table})
        return output_distribution(run, (register,)).get((1,), 0)

    return accept
