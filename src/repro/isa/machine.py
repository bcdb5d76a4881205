"""The virtual machine.

:class:`Machine` executes an assembled :class:`~repro.isa.program.Program`
and, when tracing is enabled, records

* the **instruction trace** — the fetch address ``code_base + pc`` of
  every executed instruction, and
* the **data trace** — the word address and kind (read/write) of every
  ``lw``/``sw``,

which are exactly the two traces the paper's MIPS R3000 simulator was
instrumented to emit.

Execution semantics: 32-bit two's-complement registers, ``r0`` hardwired
to zero, signed compare/shift/divide where MIPS has them, division
truncating toward zero, faults on division by zero and runaway PCs, and a
configurable cycle limit as a safety net for buggy kernels.
"""

from __future__ import annotations

import enum
from array import array
from typing import List, Optional, Union

from repro.isa.errors import CycleLimitExceeded, MachineError, MachineFault
from repro.isa.instructions import (
    Opcode,
    REGISTER_ALIASES,
    WORD_MASK,
    to_signed,
)
from repro.isa.program import Program
from repro.trace.reference import AccessKind
from repro.trace.trace import Trace


class MachineState(enum.Enum):
    """Lifecycle of a machine run."""

    READY = "ready"
    PAUSED = "paused"
    HALTED = "halted"


class Machine:
    """Executes one program, optionally collecting traces.

    Args:
        program: the assembled program to run.
        cycle_limit: maximum instructions to execute before raising
            :class:`CycleLimitExceeded`.
        trace: collect instruction/data traces while running.

    Example:
        >>> from repro.isa import assemble, Machine
        >>> program = assemble('''
        ...         .text
        ...         li r1, 6
        ...         li r2, 7
        ...         mul r3, r1, r2
        ...         halt
        ... ''')
        >>> machine = Machine(program)
        >>> machine.run()
        <MachineState.HALTED: 'halted'>
        >>> machine.register("r3")
        42
    """

    def __init__(
        self,
        program: Program,
        cycle_limit: int = 20_000_000,
        trace: bool = True,
    ) -> None:
        if cycle_limit < 1:
            raise ValueError("cycle_limit must be positive")
        self.program = program
        self.cycle_limit = cycle_limit
        self.tracing = trace
        self.memory: List[int] = [0] * (1 << program.address_bits)
        for address, value in program.data:
            if not 0 <= address < len(self.memory):
                raise MachineFault(
                    f"data image address {address:#x} outside memory"
                )
            self.memory[address] = value & WORD_MASK
        self.registers: List[int] = [0] * 16
        # Conventional stack: top of memory, growing down.
        self.registers[REGISTER_ALIASES["sp"]] = len(self.memory) - 16
        self.state = MachineState.READY
        self.pc = 0
        self.instructions_executed = 0
        # One merged event stream in program order; instruction and data
        # traces are filtered views, and the merged stream itself is the
        # unified-cache trace.
        self._taddr = array("q")
        self._tkind = array("b")

    # -- inspection ---------------------------------------------------------------

    def register(self, which: Union[int, str]) -> int:
        """Read a register by index or name/alias."""
        if isinstance(which, str):
            which = REGISTER_ALIASES[which.lower()]
        return self.registers[which]

    def read_word(self, address: int) -> int:
        """Read a memory word (no trace side effects)."""
        return self.memory[address]

    def read_symbol(self, name: str) -> int:
        """Read the memory word at a data label."""
        return self.memory[self.program.symbol(name)]

    def read_block(self, name: str, count: int) -> List[int]:
        """Read ``count`` words starting at a data label."""
        base = self.program.symbol(name)
        return self.memory[base : base + count]

    def _default_name(self, suffix: str) -> str:
        return f"{self.program.name}.{suffix}" if self.program.name else ""

    def instruction_trace(self, name: str = "") -> Trace:
        """The fetch-address trace collected so far, tagged ``FETCH``."""
        fetch = AccessKind.FETCH.value
        addresses = [
            addr for addr, kind in zip(self._taddr, self._tkind) if kind == fetch
        ]
        return Trace(
            addresses,
            address_bits=self.program.address_bits,
            kinds=[AccessKind.FETCH] * len(addresses),
            name=name or self._default_name("inst"),
        )

    def data_trace(self, name: str = "") -> Trace:
        """The data-address trace collected so far (kinds preserved)."""
        fetch = AccessKind.FETCH.value
        pairs = [
            (addr, AccessKind(kind))
            for addr, kind in zip(self._taddr, self._tkind)
            if kind != fetch
        ]
        return Trace(
            (addr for addr, _ in pairs),
            address_bits=self.program.address_bits,
            kinds=[kind for _, kind in pairs],
            name=name or self._default_name("data"),
        )

    def combined_trace(self, name: str = "") -> Trace:
        """Instruction and data accesses merged in program order.

        This is the trace a *unified* cache sees: each instruction's
        fetch immediately precedes any data access it performs.
        """
        return Trace(
            self._taddr,
            address_bits=self.program.address_bits,
            kinds=self._tkind.tobytes(),  # dinero labels, one byte each
            name=name or self._default_name("unified"),
        )

    # -- execution -----------------------------------------------------------------

    def step(self, count: int = 1) -> MachineState:
        """Execute at most ``count`` instructions, then pause (debugger aid).

        Resumable: a subsequent :meth:`run` or :meth:`step` continues
        from the paused program counter.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        return self.run(max_instructions=count)

    def dump_registers(self) -> str:
        """Human-readable register file snapshot (debugger aid)."""
        cells = [
            f"r{i:<2}={value:#010x}" for i, value in enumerate(self.registers)
        ]
        rows = [
            "  ".join(cells[start : start + 4]) for start in range(0, 16, 4)
        ]
        return "\n".join(rows + [f"pc ={self.pc:#010x}  state={self.state.value}"])

    def run(
        self,
        entry: Optional[str] = None,
        max_instructions: Optional[int] = None,
    ) -> MachineState:
        """Execute until ``halt`` (or for ``max_instructions`` steps).

        Starts from ``entry`` when given; otherwise from instruction 0 on
        a fresh machine, or from the paused program counter when resuming.

        Raises:
            MachineFault: on bad PCs, bad addresses or division by zero.
            CycleLimitExceeded: when the cycle limit is hit.
        """
        if self.state is MachineState.HALTED:
            raise MachineError("machine already halted; build a new one")
        if max_instructions is not None and max_instructions < 1:
            raise ValueError("max_instructions must be >= 1")
        program = self.program
        instructions = [(i.op, i.a, i.b, i.c) for i in program.instructions]
        count = len(instructions)
        code_base = program.code_base
        memory = self.memory
        address_mask = len(memory) - 1
        regs = self.registers
        tracing = self.tracing
        taddr = self._taddr.append
        tkind = self._tkind.append
        read_kind = AccessKind.READ.value
        write_kind = AccessKind.WRITE.value
        fetch_kind = AccessKind.FETCH.value
        limit = self.cycle_limit
        executed = self.instructions_executed
        # stop_at folds the pause point into the cycle-limit comparison so
        # the hot loop pays one check, not two.
        stop_at = (
            limit
            if max_instructions is None
            else min(limit, executed + max_instructions)
        )

        if entry is not None:
            pc = program.symbol(entry) - code_base
        elif self.state is MachineState.PAUSED:
            pc = self.pc
        else:
            pc = 0

        op_lw, op_sw = Opcode.LW, Opcode.SW
        op_add, op_addi, op_li = Opcode.ADD, Opcode.ADDI, Opcode.LI
        op_beq, op_bne, op_blt, op_bge = (
            Opcode.BEQ,
            Opcode.BNE,
            Opcode.BLT,
            Opcode.BGE,
        )
        op_bltu, op_bgeu = Opcode.BLTU, Opcode.BGEU
        op_j, op_jal, op_jr, op_halt = Opcode.J, Opcode.JAL, Opcode.JR, Opcode.HALT
        op_sub, op_and, op_or, op_xor, op_nor = (
            Opcode.SUB,
            Opcode.AND,
            Opcode.OR,
            Opcode.XOR,
            Opcode.NOR,
        )
        op_sll, op_srl, op_sra = Opcode.SLL, Opcode.SRL, Opcode.SRA
        op_slt, op_sltu = Opcode.SLT, Opcode.SLTU
        op_mul, op_div, op_rem = Opcode.MUL, Opcode.DIV, Opcode.REM
        op_andi, op_ori, op_xori, op_slti = (
            Opcode.ANDI,
            Opcode.ORI,
            Opcode.XORI,
            Opcode.SLTI,
        )
        op_slli, op_srli, op_srai = Opcode.SLLI, Opcode.SRLI, Opcode.SRAI

        while True:
            if not 0 <= pc < count:
                raise MachineFault(f"program counter out of range ({count} insns)", pc)
            if executed >= stop_at:
                self.instructions_executed = executed
                if executed >= limit:
                    raise CycleLimitExceeded(
                        f"cycle limit of {limit} instructions exceeded"
                    )
                self.pc = pc
                self.state = MachineState.PAUSED
                return self.state
            executed += 1
            if tracing:
                taddr(code_base + pc)
                tkind(fetch_kind)
            op, a, b, c = instructions[pc]
            pc += 1

            if op is op_lw:
                address = (regs[c] + b) & address_mask
                if tracing:
                    taddr(address)
                    tkind(read_kind)
                if a:
                    regs[a] = memory[address]
            elif op is op_sw:
                address = (regs[c] + b) & address_mask
                if tracing:
                    taddr(address)
                    tkind(write_kind)
                memory[address] = regs[a]
            elif op is op_addi:
                if a:
                    regs[a] = (regs[b] + c) & WORD_MASK
            elif op is op_add:
                if a:
                    regs[a] = (regs[b] + regs[c]) & WORD_MASK
            elif op is op_beq:
                if regs[a] == regs[b]:
                    pc = c
            elif op is op_bne:
                if regs[a] != regs[b]:
                    pc = c
            elif op is op_blt:
                if to_signed(regs[a]) < to_signed(regs[b]):
                    pc = c
            elif op is op_bge:
                if to_signed(regs[a]) >= to_signed(regs[b]):
                    pc = c
            elif op is op_bltu:
                if regs[a] < regs[b]:
                    pc = c
            elif op is op_bgeu:
                if regs[a] >= regs[b]:
                    pc = c
            elif op is op_li:
                if a:
                    regs[a] = b & WORD_MASK
            elif op is op_j:
                pc = a
            elif op is op_jal:
                regs[15] = code_base + pc  # pc already advanced: return address
                pc = a
            elif op is op_jr:
                pc = regs[a] - code_base
            elif op is op_sub:
                if a:
                    regs[a] = (regs[b] - regs[c]) & WORD_MASK
            elif op is op_and:
                if a:
                    regs[a] = regs[b] & regs[c]
            elif op is op_or:
                if a:
                    regs[a] = regs[b] | regs[c]
            elif op is op_xor:
                if a:
                    regs[a] = regs[b] ^ regs[c]
            elif op is op_nor:
                if a:
                    regs[a] = ~(regs[b] | regs[c]) & WORD_MASK
            elif op is op_sll:
                if a:
                    regs[a] = (regs[b] << (regs[c] & 31)) & WORD_MASK
            elif op is op_srl:
                if a:
                    regs[a] = regs[b] >> (regs[c] & 31)
            elif op is op_sra:
                if a:
                    regs[a] = (to_signed(regs[b]) >> (regs[c] & 31)) & WORD_MASK
            elif op is op_slt:
                if a:
                    regs[a] = 1 if to_signed(regs[b]) < to_signed(regs[c]) else 0
            elif op is op_sltu:
                if a:
                    regs[a] = 1 if regs[b] < regs[c] else 0
            elif op is op_mul:
                if a:
                    regs[a] = (regs[b] * regs[c]) & WORD_MASK
            elif op is op_div:
                divisor = to_signed(regs[c])
                if divisor == 0:
                    raise MachineFault("division by zero", pc - 1)
                quotient = int(to_signed(regs[b]) / divisor)  # truncate to zero
                if a:
                    regs[a] = quotient & WORD_MASK
            elif op is op_rem:
                divisor = to_signed(regs[c])
                if divisor == 0:
                    raise MachineFault("remainder by zero", pc - 1)
                dividend = to_signed(regs[b])
                remainder = dividend - int(dividend / divisor) * divisor
                if a:
                    regs[a] = remainder & WORD_MASK
            elif op is op_andi:
                if a:
                    regs[a] = regs[b] & (c & WORD_MASK)
            elif op is op_ori:
                if a:
                    regs[a] = regs[b] | (c & WORD_MASK)
            elif op is op_xori:
                if a:
                    regs[a] = regs[b] ^ (c & WORD_MASK)
            elif op is op_slti:
                if a:
                    regs[a] = 1 if to_signed(regs[b]) < c else 0
            elif op is op_slli:
                if a:
                    regs[a] = (regs[b] << (c & 31)) & WORD_MASK
            elif op is op_srli:
                if a:
                    regs[a] = regs[b] >> (c & 31)
            elif op is op_srai:
                if a:
                    regs[a] = (to_signed(regs[b]) >> (c & 31)) & WORD_MASK
            elif op is op_halt:
                break
            else:  # pragma: no cover - every opcode is handled above
                raise MachineFault(f"unimplemented opcode {op!r}", pc - 1)

        self.instructions_executed = executed
        self.pc = pc
        self.state = MachineState.HALTED
        return self.state


def run_program(
    program: Program, cycle_limit: int = 20_000_000, trace: bool = True
) -> Machine:
    """Assemble-and-go helper: run a program and return the halted machine."""
    machine = Machine(program, cycle_limit=cycle_limit, trace=trace)
    machine.run()
    return machine
