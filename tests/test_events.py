"""The access-event bus: dispatch, energy ledger, order invariance.

The contract under test: one simulation pass publishes one typed stream
that every consumer (profiler with its ACE tracking, trace recorder,
energy ledger) reads uniformly, and no consumer's output depends on
where in the subscription order it sits.
"""

import pytest

from repro import Machine, assemble, baseline_sram_config
from repro.events import (
    AccessEvent,
    CallEvent,
    EnergyLedger,
    EventBus,
    EventKind,
    EventSubscriber,
)
from repro.pipeline import profile_fingerprint
from repro.profile.profiler import Profiler
from repro.workloads.case_study import case_study_program
from repro.workloads.traces import TraceRecorder

SOURCE = """
        .text
        .func main
main:   mov   r0, #0
        mov   r1, #10
loop:   add   r0, r0, r1
        sub   r1, r1, #1
        cmp   r1, #0
        bne   loop
        ldr   r2, =scratch
        str   r0, [r2]
        bl    leaf
        halt
        .endfunc
        .func leaf
leaf:   mov   r3, #7
        bx    lr
        .endfunc
        .data
scratch: .word 0
"""


class Collector(EventSubscriber):
    def __init__(self):
        self.accesses = []
        self.calls = []

    def on_access(self, event):
        self.accesses.append(event)

    def on_call(self, event):
        self.calls.append(event)


# --- bus mechanics ------------------------------------------------------------

def test_bus_subscribe_publish_unsubscribe():
    bus = EventBus()
    seen = []
    handler = bus.subscribe(seen.append)
    event = bus.publish_access(EventKind.READ, 0x100, 4, "dev", 1, 2.5)
    assert seen == [event]
    assert event.energy == 2.5 and not event.is_write
    bus.unsubscribe(handler)
    assert bus.publish_access(EventKind.READ, 0x100, 4, "dev", 1) is None
    assert seen == [event]


def test_bus_skips_event_allocation_without_subscribers():
    bus = EventBus()
    assert bus.publish_access(EventKind.WRITE, 0, 4, "dev", 1) is None
    assert bus.publish_call(0x40) is None
    assert bus.subscriber_count == 0


def test_bus_clock_stamps_events():
    ticks = iter((7, 42))
    bus = EventBus(clock=lambda: next(ticks))
    seen = []
    bus.subscribe(seen.append)
    bus.publish_access(EventKind.FETCH, 0, 4, "dev", 1)
    bus.publish_call(0x40)
    assert [e.at_cycle for e in seen] == [7, 42]
    assert isinstance(seen[0], AccessEvent) and isinstance(seen[1], CallEvent)


def test_subscriber_base_dispatches_by_type():
    collector = Collector()
    collector(AccessEvent(EventKind.READ, 0, 4, "dev", 1))
    collector(CallEvent.at(0x80))
    assert len(collector.accesses) == 1
    assert collector.calls[0].target == 0x80


# --- the machine publishes the full stream -----------------------------------

def test_machine_run_publishes_fetches_data_and_calls():
    machine = Machine(assemble(SOURCE), baseline_sram_config())
    collector = Collector()
    machine.events.subscribe(collector)
    machine.run()
    kinds = {event.kind for event in collector.accesses}
    assert EventKind.FETCH in kinds and EventKind.WRITE in kinds
    assert len(collector.calls) == 1
    # events carry the CPU clock: timestamps are monotonic
    stamps = [event.at_cycle for event in collector.accesses]
    assert stamps == sorted(stamps)


def test_energy_ledger_matches_device_accounting():
    from repro.tech.nvsim_lite import energy_models_for

    config = baseline_sram_config()
    machine = Machine(assemble(SOURCE), config,
                      energy_models=energy_models_for(config))
    ledger = EnergyLedger()
    machine.events.subscribe(ledger)
    machine.run()
    assert ledger.events > 0
    assert ledger.total_energy > 0
    # the bus-side view agrees with the device's own per-access counters
    # (line-fill traffic is charged to DRAM, not to cache access events)
    assert ledger.energy_of("l1-cache") == pytest.approx(
        machine.memory.cache.stats.accesses_stats.dynamic_energy)


# --- order invariance ---------------------------------------------------------

def _run_instrumented(order):
    """One profiling run with subscribers attached in the given order."""
    program = case_study_program(array_words=64, outer_iterations=1)
    machine = Machine(program, baseline_sram_config())
    profiler = Profiler(machine)
    recorder = TraceRecorder(machine)
    ledger = EnergyLedger()
    subscribers = {"profiler": profiler.attach,
                   "recorder": recorder.attach,
                   "ledger": lambda: machine.events.subscribe(ledger)}
    for name in order:
        subscribers[name]()
    machine.run()
    profile = profiler.finish()
    return profile, recorder.detach(), ledger


def test_subscriber_order_does_not_change_outputs():
    from repro.eval.structures import evaluate_structure

    results = [_run_instrumented(order) for order in
               (("profiler", "recorder", "ledger"),
                ("ledger", "recorder", "profiler"),
                ("recorder", "ledger", "profiler"))]
    profiles = [profile for profile, _, _ in results]
    fingerprints = {profile_fingerprint(p) for p in profiles}
    assert len(fingerprints) == 1  # identical profiles, incl. ACE cycles
    assert len({t.dumps() for _, t, _ in results}) == 1  # identical traces
    assert len({l.total_energy for _, _, l in results}) == 1
    # and the AVF pipeline downstream of the profile agrees too
    vulnerabilities = {
        evaluate_structure(p, "ftspm").vulnerability for p in profiles}
    assert len(vulnerabilities) == 1


# --- the profiler's fetch-run feed ---------------------------------------------

class _FetchCounting:
    """Mixin counting the FETCH events a subscriber receives."""

    fetch_events = 0

    def on_access(self, event):
        if event.is_fetch:
            self.fetch_events += 1
        super().on_access(event)


class _CountingProfiler(_FetchCounting, Profiler):
    pass


class _CountingLedger(_FetchCounting, EnergyLedger):
    pass


def _case_machine():
    return Machine(case_study_program(array_words=64, outer_iterations=1),
                   baseline_sram_config())


def test_bus_offers_fetch_runs_only_when_every_subscriber_takes_them():
    machine = _case_machine()
    bus = machine.events
    assert bus.fetch_runs is None
    profiler = Profiler(machine).attach()
    assert bus.fetch_runs == (profiler.fetch_run,)
    ledger = bus.subscribe(EnergyLedger())
    assert bus.fetch_runs is None
    bus.unsubscribe(ledger)
    assert bus.fetch_runs == (profiler.fetch_run,)
    profiler.detach()
    assert bus.fetch_runs is None


def test_lone_profiler_sees_no_fetch_events_under_fast_engine():
    """Alone on the bus, the profiler takes one fetch run per basic
    block: no instruction fetch reaches it as an AccessEvent, yet its
    profile equals the reference step loop's."""
    machine = _case_machine()
    profiler = _CountingProfiler(machine).attach()
    machine.run()
    fed = profiler.finish()
    assert profiler.fetch_events == 0
    assert fed.get("Main").reads > 0

    reference = Machine(machine.program, baseline_sram_config(),
                        engine="reference")
    oracle = _CountingProfiler(reference).attach()
    reference.run()
    assert profile_fingerprint(oracle.finish()) == profile_fingerprint(fed)
    assert oracle.fetch_events == reference.cpu.stats.instructions


def test_profiler_beside_energy_ledger_gets_every_fetch_event():
    """A subscriber without ``fetch_run`` (the energy ledger) puts the
    fast engine back on one FETCH event per instruction, for every
    subscriber, and the profile is unchanged."""
    alone = _case_machine()
    lone = Profiler(alone).attach()
    alone.run()
    expected = profile_fingerprint(lone.finish())

    machine = _case_machine()
    profiler = _CountingProfiler(machine).attach()
    ledger = machine.events.subscribe(_CountingLedger())
    machine.run()
    instructions = machine.cpu.stats.instructions
    assert profiler.fetch_events == ledger.fetch_events == instructions
    assert profile_fingerprint(profiler.finish()) == expected


# --- engine invariance --------------------------------------------------------

def _collect_stream(engine):
    machine = Machine(assemble(SOURCE), baseline_sram_config(),
                      engine=engine)
    collector = Collector()
    machine.events.subscribe(collector)
    machine.run()
    return collector


def test_event_stream_identical_across_engines():
    """A subscriber sees the exact same typed stream whichever engine
    retires the instructions: the fast engine's granular mode publishes
    event-for-event what the reference loop publishes (the events are
    frozen dataclasses, so == is full field equality)."""
    reference = _collect_stream("reference")
    fast = _collect_stream("fast")
    assert reference.accesses == fast.accesses
    assert reference.calls == fast.calls


def test_sim_profiler_attribution_identical_across_engines():
    """The obs hot-spot subscriber aggregates to the same table under
    both engines — cycle, energy, and access attribution per device and
    per program block all agree."""
    from repro.obs.simprofile import SimProfiler
    from repro.tech.nvsim_lite import energy_models_for

    def profile_with(engine):
        config = baseline_sram_config()
        program = case_study_program(array_words=64, outer_iterations=1)
        machine = Machine(program, config,
                          energy_models=energy_models_for(config),
                          engine=engine)
        profiler = SimProfiler(program).attach(machine.events)
        machine.run()
        profiler.detach(machine.events)
        return profiler.report()

    reference = profile_with("reference")
    fast = profile_with("fast")
    assert reference.events == fast.events > 0
    assert reference.devices == fast.devices
    assert reference.blocks == fast.blocks
    assert reference.calls == fast.calls
