from .partition import BinaryPartition, PaddedInstance, pad_to_power_of_two
from .oracles import OracleA, OracleB
from .solver import Frp3Solver, solve_3frp

__all__ = [
    "BinaryPartition", "PaddedInstance", "pad_to_power_of_two",
    "OracleA", "OracleB",
    "Frp3Solver", "solve_3frp",
]
