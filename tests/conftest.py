"""Shared helpers: acceptance functionals over query algorithms."""

from qromlab.adversary import QueryAlgorithm, output_distribution, run_query_algorithm
from qromlab.cli import _accept_all_zero as accept_all_zero  # noqa: F401
from qromlab.oracle import ClassicalOracle


def accept_register_one(alg: QueryAlgorithm, register: str, name: str = "h"):
    """Probability that one named output register reads 1."""

    def accept(table: ClassicalOracle):
        total = 0
        for br in run_query_algorithm(alg, oracles={name: table}):
            for digits, w in output_distribution([br], (register,)).items():
                if digits[0] == 1:
                    total += w
        return total

    return accept
