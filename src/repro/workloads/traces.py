"""Memory-access traces: record, save, load, and replay.

FaCSim-style trace-driven evaluation: a :class:`TraceRecorder` attached
to a machine captures every architectural access as a compact record;
traces can be persisted to a simple line format and replayed against any
:class:`~repro.mem.hierarchy.MemorySystem` (or profiled) without
re-executing the CPU — useful for sweeping memory configurations over a
workload captured once.

Format (one record per line, ``#`` comments allowed)::

    F <hex-address>            instruction fetch
    R <hex-address> <size>     data read
    W <hex-address> <size>     data write
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from ..errors import TraceError
from ..events import AccessEvent, EventSubscriber
from ..mem.hierarchy import AccessType


@dataclass(frozen=True)
class TraceRecord:
    """One architectural access."""

    kind: str  # 'F', 'R', or 'W'
    address: int
    size: int = 4

    @property
    def is_fetch(self):
        return self.kind == "F"

    @property
    def is_write(self):
        return self.kind == "W"


class Trace:
    """An ordered sequence of :class:`TraceRecord`."""

    def __init__(self, records=None, name="<trace>"):
        self.records = list(records or [])
        self.name = name

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def append(self, record):
        self.records.append(record)

    # --- statistics -----------------------------------------------------------

    def counts(self):
        """(fetches, reads, writes) record counts."""
        fetches = reads = writes = 0
        for record in self.records:
            if record.kind == "F":
                fetches += 1
            elif record.kind == "R":
                reads += 1
            else:
                writes += 1
        return fetches, reads, writes

    def footprint(self):
        """Set of distinct 4-byte-aligned data words touched."""
        return {record.address & ~3 for record in self.records
                if not record.is_fetch}

    # --- persistence --------------------------------------------------------------

    def dump(self, stream):
        """Write the trace in the line format."""
        stream.write("# trace %s (%d records)\n" % (self.name,
                                                    len(self.records)))
        for record in self.records:
            if record.is_fetch:
                stream.write("F %x\n" % record.address)
            else:
                stream.write("%s %x %d\n" % (record.kind, record.address,
                                             record.size))

    def dumps(self):
        buffer = io.StringIO()
        self.dump(buffer)
        return buffer.getvalue()

    def save(self, path):
        with open(path, "w") as handle:
            self.dump(handle)

    @classmethod
    def parse(cls, stream, name="<trace>"):
        """Parse the line format; raises TraceError on malformed input."""
        records = []
        for line_no, raw in enumerate(stream, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            kind = parts[0].upper()
            try:
                if kind == "F":
                    if len(parts) != 2:
                        raise ValueError
                    records.append(TraceRecord("F", int(parts[1], 16), 4))
                elif kind in ("R", "W"):
                    if len(parts) != 3:
                        raise ValueError
                    size = int(parts[2], 10)
                    if size not in (1, 2, 4):
                        raise ValueError
                    records.append(
                        TraceRecord(kind, int(parts[1], 16), size))
                else:
                    raise ValueError
            except ValueError:
                raise TraceError(
                    "malformed trace line %d: %r" % (line_no,
                                                     raw.rstrip())) from None
        return cls(records, name=name)

    @classmethod
    def loads(cls, text, name="<trace>"):
        return cls.parse(io.StringIO(text), name=name)

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            return cls.parse(handle, name=path)


class TraceRecorder(EventSubscriber):
    """Event-bus subscriber that captures a :class:`Trace`."""

    def __init__(self, machine, name=None):
        self.machine = machine
        self.trace = Trace(name=name or machine.program.source_name)
        self._attached = False

    def attach(self):
        if self._attached:
            raise TraceError("recorder is already attached")
        self.machine.events.subscribe(self)
        self._attached = True
        return self

    def detach(self):
        if self._attached:
            self.machine.events.unsubscribe(self)
            self._attached = False
        return self.trace

    def on_access(self, event: AccessEvent):
        if event.is_fetch:
            self.trace.append(TraceRecord("F", event.address, event.size))
        elif event.is_write:
            self.trace.append(TraceRecord("W", event.address, event.size))
        else:
            self.trace.append(TraceRecord("R", event.address, event.size))


def record_trace(program, config, schedule=None, max_instructions=None):
    """Run a program once and return its access trace."""
    from ..sim.machine import Machine
    machine = Machine(program, config, schedule=schedule)
    recorder = TraceRecorder(machine).attach()
    if max_instructions is None:
        machine.run()
    else:
        machine.run(max_instructions=max_instructions)
    return recorder.detach()


class TraceReplayer:
    """Replay a trace against a memory system, accumulating cycles.

    The replay issues each record through the router exactly as the CPU
    would, so per-region latency/energy accounting, remap entries, cache
    behaviour, and STT wear all apply — without interpreting a single
    instruction.
    """

    def __init__(self, memory):
        self.memory = memory
        self.cycles = 0
        self.replayed = 0

    def replay(self, trace):
        access = self.memory.access
        for record in trace:
            result = access(
                record.address, record.size, record.is_write, 0,
                access_type=(AccessType.FETCH if record.is_fetch
                             else AccessType.DATA))
            self.cycles += result.cycles
            self.replayed += 1
        return self
