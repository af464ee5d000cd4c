"""Shared fixtures: assembled workloads, profiles, and plans.

Expensive artifacts (full simulation runs, profiles) are session-scoped
so the suite stays fast; tests must not mutate them.
"""

from __future__ import annotations

import pytest

from repro import (
    Machine,
    assemble,
    baseline_sram_config,
    baseline_sttram_config,
    ftspm_config,
)
from repro.core.mda import MappingDeterminer
from repro.profile.profiler import Profiler, profile_program
from repro.workloads.case_study import case_study_program
from repro.workloads.kernels import kernel_program


def run_source(source, config=None, max_instructions=1_000_000):
    """Assemble and run a snippet; returns the finished machine."""
    program = assemble(source)
    machine = Machine(program, config or baseline_sram_config())
    machine.run(max_instructions=max_instructions)
    return machine


def profile_under(program, engine, config=None):
    """Profile ``program`` like :func:`profile_program`, but on the
    named engine (``profile_program`` always runs the fast one)."""
    machine = Machine(program, config or baseline_sram_config(),
                      engine=engine)
    profiler = Profiler(machine).attach()
    machine.run()
    return profiler.finish()


def register(machine, number):
    """Read a CPU register value."""
    return machine.cpu.state.registers[number]


def read_word(machine, symbol):
    """Read a data word by symbol name through the raw memory view."""
    address = machine.program.symbol(symbol)
    return int.from_bytes(machine.memory.peek_bytes(address, 4), "little")


@pytest.fixture(scope="session")
def ftspm_cfg():
    return ftspm_config()


@pytest.fixture(scope="session")
def sram_cfg():
    return baseline_sram_config()


@pytest.fixture(scope="session")
def sttram_cfg():
    return baseline_sttram_config()


@pytest.fixture(scope="session")
def case_program():
    """Small-scale case study program (fast to execute)."""
    return case_study_program(array_words=96, outer_iterations=2)


@pytest.fixture(scope="session")
def case_profile(case_program):
    return profile_program(case_program)


@pytest.fixture(scope="session")
def case_plan(case_profile, ftspm_cfg):
    return MappingDeterminer(ftspm_cfg).map(case_profile)


@pytest.fixture(scope="session")
def crc_build():
    return kernel_program("crc32")


@pytest.fixture(scope="session")
def crc_profile(crc_build):
    return profile_program(crc_build.program)
