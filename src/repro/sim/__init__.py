"""Cycle-approximate in-order core and machine wiring (FaCSim substitute).

:class:`Cpu` interprets the ARM-like ISA; :class:`Machine` wires a
:class:`~repro.isa.program.Program`, a
:class:`~repro.mem.hierarchy.MemorySystem`, a DMA engine, and an optional
transfer schedule (the online mapping phase) into a runnable platform.
"""

from .cpu import Cpu, CpuState, ExecStats
from .machine import (
    ENGINES,
    EXIT_ADDRESS,
    Machine,
    RunResult,
    TransferAction,
    TransferSchedule,
)

__all__ = [
    "Cpu",
    "CpuState",
    "ExecStats",
    "ENGINES",
    "EXIT_ADDRESS",
    "Machine",
    "RunResult",
    "TransferAction",
    "TransferSchedule",
]
