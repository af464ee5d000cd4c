"""In-order single-issue interpreter for the ARM-like ISA.

Cycle model (documented, deliberately simple — the paper's methodology
needs per-access latencies and instruction counts, not micro-architectural
detail):

* every instruction costs its fetch latency (1 cycle from STT-RAM or
  parity SRAM I-SPM, 2 from SEC-DED SRAM, more on cache miss),
* data-processing instructions add 1 execute cycle (MUL/MLA add 2,
  SDIV/UDIV add 10),
* loads/stores add the routed memory latency per transferred word,
* taken branches add a 1-cycle redirect penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import IllegalInstructionError, SimulationError
from ..isa.instructions import Condition, Mnemonic
from ..isa.registers import LR, NUM_REGISTERS, PC, SP

_MASK32 = 0xFFFFFFFF

_EXTRA_EXEC_CYCLES = {
    Mnemonic.MUL: 2,
    Mnemonic.MLA: 2,
    Mnemonic.SDIV: 10,
    Mnemonic.UDIV: 10,
}


def _signed(value):
    value &= _MASK32
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


@dataclass
class CpuState:
    """Architectural state: registers and NZCV flags."""

    registers: list = field(default_factory=lambda: [0] * NUM_REGISTERS)
    negative: bool = False
    zero: bool = False
    carry: bool = False
    overflow: bool = False

    @property
    def pc(self):
        return self.registers[PC]

    @pc.setter
    def pc(self, value):
        self.registers[PC] = value & _MASK32

    @property
    def sp(self):
        return self.registers[SP]

    @sp.setter
    def sp(self, value):
        self.registers[SP] = value & _MASK32


@dataclass
class ExecStats:
    """Execution counters maintained by the CPU."""

    instructions: int = 0
    cycles: int = 0
    branches: int = 0
    taken_branches: int = 0
    loads: int = 0
    stores: int = 0
    mnemonic_counts: dict = field(default_factory=dict)

    def count(self, mnemonic):
        self.mnemonic_counts[mnemonic] = (
            self.mnemonic_counts.get(mnemonic, 0) + 1)


class Cpu:
    """Interpreter core.  ``data_access`` is a callable provided by the
    machine: ``data_access(address, size, is_write, value) -> (value, cycles)``.
    """

    def __init__(self, data_access, events=None):
        self.state = CpuState()
        self.stats = ExecStats()
        self._data_access = data_access
        self.halted = False
        #: event bus ``bl`` targets are published on as
        #: :class:`~repro.events.CallEvent`; the machine wires this to the
        #: memory system's bus so one stream carries calls and accesses.
        self.events = events

    # --- flag helpers ---------------------------------------------------------

    def _condition_passed(self, condition):
        state = self.state
        if condition is Condition.AL:
            return True
        if condition is Condition.EQ:
            return state.zero
        if condition is Condition.NE:
            return not state.zero
        if condition is Condition.LT:
            return state.negative != state.overflow
        if condition is Condition.LE:
            return state.zero or state.negative != state.overflow
        if condition is Condition.GT:
            return not state.zero and state.negative == state.overflow
        if condition is Condition.GE:
            return state.negative == state.overflow
        if condition is Condition.MI:
            return state.negative
        if condition is Condition.PL:
            return not state.negative
        if condition is Condition.HS:
            return state.carry
        if condition is Condition.LO:
            return not state.carry
        if condition is Condition.HI:
            return state.carry and not state.zero
        if condition is Condition.LS:
            return not state.carry or state.zero
        raise SimulationError("unknown condition %r" % condition)

    def _set_nz(self, result):
        self.state.negative = bool(result & 0x8000_0000)
        self.state.zero = (result & _MASK32) == 0

    def _set_add_flags(self, a, b, result):
        self._set_nz(result)
        self.state.carry = result > _MASK32
        self.state.overflow = (
            ((a ^ result) & (b ^ result)) & 0x8000_0000) != 0

    def _set_sub_flags(self, a, b, result):
        self._set_nz(result)
        self.state.carry = (a & _MASK32) >= (b & _MASK32)
        self.state.overflow = (
            ((a ^ b) & (a ^ result)) & 0x8000_0000) != 0

    # --- operand helpers ---------------------------------------------------------

    def _value(self, operand):
        if operand.is_register:
            return self.state.registers[operand.value] & _MASK32
        if operand.is_immediate:
            return operand.value & _MASK32
        raise SimulationError("operand has no runtime value: %r" % (operand,))

    def _write_register(self, number, value):
        self.state.registers[number] = value & _MASK32

    # --- execution ------------------------------------------------------------

    def execute(self, instruction):
        """Execute one decoded instruction at the current PC.

        The PC has already been advanced past the instruction by the
        machine; branches overwrite it.  Returns the execute-stage cycle
        cost (the machine adds the fetch cost separately).
        """
        stats = self.stats
        stats.instructions += 1
        stats.count(instruction.mnemonic)
        if not self._condition_passed(instruction.condition):
            return 1
        handler = _DISPATCH.get(instruction.mnemonic)
        if handler is None:
            raise IllegalInstructionError(
                "no handler for %r" % instruction.mnemonic)
        return handler(self, instruction)

    # --- handlers ----------------------------------------------------------------

    def _exec_mov(self, instruction):
        rd = instruction.operands[0].value
        value = self._value(instruction.operands[1])
        if instruction.mnemonic is Mnemonic.MVN:
            value = ~value & _MASK32
        self._write_register(rd, value)
        if instruction.set_flags:
            self._set_nz(value)
        return 1

    def _exec_arith(self, instruction):
        mnemonic = instruction.mnemonic
        rd = instruction.operands[0].value
        a = self._value(instruction.operands[1])
        b = self._value(instruction.operands[2])
        if mnemonic is Mnemonic.ADD:
            result = a + b
            if instruction.set_flags:
                self._set_add_flags(a, b, result)
        elif mnemonic is Mnemonic.SUB:
            result = a - b
            if instruction.set_flags:
                self._set_sub_flags(a, b, result & (2 ** 33 - 1))
        elif mnemonic is Mnemonic.RSB:
            result = b - a
            if instruction.set_flags:
                self._set_sub_flags(b, a, result & (2 ** 33 - 1))
        else:
            raise IllegalInstructionError("bad arith %r" % mnemonic)
        self._write_register(rd, result)
        return 1

    def _exec_mul(self, instruction):
        rd = instruction.operands[0].value
        a = self._value(instruction.operands[1])
        b = self._value(instruction.operands[2])
        result = a * b
        if instruction.mnemonic is Mnemonic.MLA:
            result += self._value(instruction.operands[3])
        self._write_register(rd, result)
        if instruction.set_flags:
            self._set_nz(result)
        return 1 + _EXTRA_EXEC_CYCLES[instruction.mnemonic]

    def _exec_div(self, instruction):
        rd = instruction.operands[0].value
        a = self._value(instruction.operands[1])
        b = self._value(instruction.operands[2])
        if instruction.mnemonic is Mnemonic.SDIV:
            sa, sb = _signed(a), _signed(b)
            result = 0 if sb == 0 else int(sa / sb)  # truncate toward zero
        else:
            result = 0 if b == 0 else a // b
        self._write_register(rd, result)
        return 1 + _EXTRA_EXEC_CYCLES[instruction.mnemonic]

    def _exec_logic(self, instruction):
        mnemonic = instruction.mnemonic
        rd = instruction.operands[0].value
        a = self._value(instruction.operands[1])
        b = self._value(instruction.operands[2])
        if mnemonic is Mnemonic.AND:
            result = a & b
        elif mnemonic is Mnemonic.ORR:
            result = a | b
        elif mnemonic is Mnemonic.EOR:
            result = a ^ b
        elif mnemonic is Mnemonic.BIC:
            result = a & ~b
        else:
            raise IllegalInstructionError("bad logic %r" % mnemonic)
        self._write_register(rd, result)
        if instruction.set_flags:
            self._set_nz(result)
        return 1

    def _exec_shift(self, instruction):
        mnemonic = instruction.mnemonic
        rd = instruction.operands[0].value
        a = self._value(instruction.operands[1])
        amount = self._value(instruction.operands[2]) & 0xFF
        if mnemonic is Mnemonic.LSL:
            result = a << amount if amount < 32 else 0
        elif mnemonic is Mnemonic.LSR:
            result = a >> amount if amount < 32 else 0
        else:  # ASR
            result = _signed(a) >> amount if amount < 32 else (
                _MASK32 if a & 0x8000_0000 else 0)
        self._write_register(rd, result)
        if instruction.set_flags:
            self._set_nz(result)
        return 1

    def _exec_compare(self, instruction):
        mnemonic = instruction.mnemonic
        a = self._value(instruction.operands[0])
        b = self._value(instruction.operands[1])
        if mnemonic is Mnemonic.CMP:
            self._set_sub_flags(a, b, (a - b) & (2 ** 33 - 1))
        elif mnemonic is Mnemonic.CMN:
            self._set_add_flags(a, b, a + b)
        else:  # TST
            self._set_nz(a & b)
        return 1

    def _exec_load_store(self, instruction):
        mnemonic = instruction.mnemonic
        operands = instruction.operands
        rd = operands[0].value
        size = 1 if mnemonic in (Mnemonic.LDRB, Mnemonic.STRB) else 4
        if len(operands) == 2:
            # 'ldr rd, =sym' pseudo: pure address generation, no access.
            if mnemonic is not Mnemonic.LDR:
                raise IllegalInstructionError(
                    "%s requires an addressing mode" % mnemonic.value)
            self._write_register(rd, operands[1].value)
            return 1
        address = (self._value(operands[1]) + _signed(
            self._value(operands[2]))) & _MASK32
        if mnemonic in (Mnemonic.STR, Mnemonic.STRB):
            self.stats.stores += 1
            value = self.state.registers[rd] & ((1 << (8 * size)) - 1)
            _, cycles = self._data_access(address, size, True, value)
        else:
            self.stats.loads += 1
            value, cycles = self._data_access(address, size, False, 0)
            self._write_register(rd, value)
        return cycles

    def _exec_push(self, instruction):
        registers = instruction.operands[0].value
        cycles = 0
        self.state.sp = self.state.sp - 4 * len(registers)
        address = self.state.sp
        for number in registers:
            self.stats.stores += 1
            _, access_cycles = self._data_access(
                address, 4, True, self.state.registers[number] & _MASK32)
            cycles += access_cycles
            address += 4
        return max(cycles, 1)

    def _exec_pop(self, instruction):
        registers = instruction.operands[0].value
        cycles = 0
        address = self.state.sp
        branched = False
        for number in registers:
            self.stats.loads += 1
            value, access_cycles = self._data_access(address, 4, False, 0)
            cycles += access_cycles
            self._write_register(number, value)
            if number == PC:
                branched = True
            address += 4
        self.state.sp = self.state.sp + 4 * len(registers)
        if branched:
            self.stats.branches += 1
            self.stats.taken_branches += 1
            cycles += 1
        return max(cycles, 1)

    def _exec_branch(self, instruction):
        mnemonic = instruction.mnemonic
        self.stats.branches += 1
        self.stats.taken_branches += 1
        if mnemonic is Mnemonic.BX:
            target = self._value(instruction.operands[0])
        else:
            target = instruction.operands[0].value
            if mnemonic is Mnemonic.BL:
                self._write_register(LR, self.state.pc)
                if self.events is not None:
                    self.events.publish_call(target)
        self.state.pc = target
        return 2  # 1 execute + 1 redirect penalty

    def _exec_nop(self, instruction):
        return 1

    def _exec_halt(self, instruction):
        self.halted = True
        return 1


_DISPATCH = {
    Mnemonic.MOV: Cpu._exec_mov,
    Mnemonic.MVN: Cpu._exec_mov,
    Mnemonic.ADD: Cpu._exec_arith,
    Mnemonic.SUB: Cpu._exec_arith,
    Mnemonic.RSB: Cpu._exec_arith,
    Mnemonic.MUL: Cpu._exec_mul,
    Mnemonic.MLA: Cpu._exec_mul,
    Mnemonic.SDIV: Cpu._exec_div,
    Mnemonic.UDIV: Cpu._exec_div,
    Mnemonic.AND: Cpu._exec_logic,
    Mnemonic.ORR: Cpu._exec_logic,
    Mnemonic.EOR: Cpu._exec_logic,
    Mnemonic.BIC: Cpu._exec_logic,
    Mnemonic.LSL: Cpu._exec_shift,
    Mnemonic.LSR: Cpu._exec_shift,
    Mnemonic.ASR: Cpu._exec_shift,
    Mnemonic.CMP: Cpu._exec_compare,
    Mnemonic.CMN: Cpu._exec_compare,
    Mnemonic.TST: Cpu._exec_compare,
    Mnemonic.LDR: Cpu._exec_load_store,
    Mnemonic.STR: Cpu._exec_load_store,
    Mnemonic.LDRB: Cpu._exec_load_store,
    Mnemonic.STRB: Cpu._exec_load_store,
    Mnemonic.PUSH: Cpu._exec_push,
    Mnemonic.POP: Cpu._exec_pop,
    Mnemonic.B: Cpu._exec_branch,
    Mnemonic.BL: Cpu._exec_branch,
    Mnemonic.BX: Cpu._exec_branch,
    Mnemonic.NOP: Cpu._exec_nop,
    Mnemonic.HALT: Cpu._exec_halt,
}
