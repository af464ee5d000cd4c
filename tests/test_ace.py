"""ACE-window accounting: a run of reads equals its single reads."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.ace import AceTracker

# one step: (block, gap to the previous step, n reads or 0 for a write,
# spread of the run's cycles)
_steps = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]),
              st.integers(min_value=0, max_value=50),
              st.integers(min_value=0, max_value=6),
              st.lists(st.integers(min_value=0, max_value=9),
                       min_size=6, max_size=6)),
    max_size=40)


@settings(max_examples=200, deadline=None)
@given(_steps, st.integers(min_value=0, max_value=100))
def test_read_run_equals_single_reads(steps, tail):
    """For any mix of writes and read runs at non-decreasing cycles,
    ``record_reads`` banks exactly what ``n`` single ``record`` reads
    bank, with ``finish`` closing the same write windows."""
    runs, singles = AceTracker(), AceTracker()
    now = 0
    for name, gap, n, spread in steps:
        now += gap
        if n == 0:
            runs.record(name, now, True)
            singles.record(name, now, True)
            continue
        cycles = []
        for delta in spread[:n]:
            now += delta
            cycles.append(now)
        runs.record_reads(name, n, cycles[0], cycles[-1])
        for cycle in cycles:
            singles.record(name, cycle, False)
        assert runs.ace_cycles == singles.ace_cycles
    runs.finish(now + tail)
    singles.finish(now + tail)
    assert runs.ace_cycles == singles.ace_cycles
    assert runs._last_touch == singles._last_touch
    assert runs._open_write == singles._open_write


def test_first_read_run_banks_only_its_own_span():
    tracker = AceTracker()
    tracker.record_reads("a", 3, 10, 25)
    assert tracker.ace_cycles == {"a": 15}
    tracker.record_reads("b", 1, 30, 30)
    assert "b" not in tracker.ace_cycles  # a lone first read has no gap
