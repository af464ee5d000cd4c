"""L1 cache model: hits, misses, LRU, write-back accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.mem import Cache, DramDevice, EnergyModel


@pytest.fixture
def dram():
    return DramDevice("dram", 0, 64 * 1024, latency=50,
                      burst_word_latency=4,
                      energy_model=EnergyModel(1e-9, 1e-9, 0))


def make_cache(dram, size=1024, line_size=32, associativity=2):
    return Cache("l1", dram, size=size, line_size=line_size,
                 associativity=associativity,
                 energy_model=EnergyModel(1e-12, 1e-12, 0))


def test_first_access_misses_then_hits(dram):
    cache = make_cache(dram)
    first = cache.access(0x100, 4, False)
    second = cache.access(0x104, 4, False)  # same line
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert first.cycles > second.cycles


def test_miss_pays_line_fill(dram):
    cache = make_cache(dram)
    result = cache.access(0, 4, False)
    words = 32 // 4
    assert result.cycles == 1 + dram.burst_cycles(words)


def test_values_come_from_backing(dram):
    dram.poke_word(0x200, 0xABCD)
    cache = make_cache(dram)
    assert cache.access(0x200, 4, False).value == 0xABCD


def test_write_through_to_backing_storage(dram):
    cache = make_cache(dram)
    cache.access(0x300, 4, True, value=0x77)
    assert dram.peek_word(0x300) == 0x77


def test_lru_eviction(dram):
    cache = make_cache(dram, size=128, line_size=32, associativity=2)
    # 2 sets; addresses mapping to set 0: multiples of 64
    cache.access(0, 4, False)
    cache.access(64, 4, False)
    cache.access(0, 4, False)      # touch line 0 -> 64 is LRU
    cache.access(128, 4, False)    # evicts 64
    assert cache.stats.evictions == 1
    cache.access(0, 4, False)      # still resident
    assert cache.stats.hits == 2


def test_dirty_eviction_counts_writeback(dram):
    cache = make_cache(dram, size=128, line_size=32, associativity=2)
    cache.access(0, 4, True, value=1)   # dirty line in set 0
    cache.access(64, 4, False)
    cache.access(128, 4, False)  # set 0 full: evicts LRU (dirty line 0)
    assert cache.stats.writebacks == 1


def test_flush_invalidates_and_writes_back(dram):
    cache = make_cache(dram)
    cache.access(0, 4, True, value=1)
    cycles = cache.flush()
    assert cycles > 0
    cache.access(0, 4, False)
    assert cache.stats.misses == 2


def test_miss_rate(dram):
    cache = make_cache(dram)
    cache.access(0, 4, False)
    cache.access(0, 4, False)
    cache.access(0, 4, False)
    cache.access(0, 4, False)
    assert cache.stats.miss_rate == pytest.approx(0.25)


def test_dram_traffic_recorded_on_fills(dram):
    cache = make_cache(dram)
    cache.access(0, 4, False)
    assert dram.stats.reads == 1
    assert dram.stats.read_bytes == 32


def test_invalid_geometry_rejected(dram):
    with pytest.raises(ConfigurationError):
        Cache("bad", dram, size=100, line_size=32, associativity=4)
    with pytest.raises(ConfigurationError):
        Cache("bad", dram, size=128, line_size=24, associativity=2)


def test_reset_stats(dram):
    cache = make_cache(dram)
    cache.access(0, 4, False)
    cache.reset_stats()
    assert cache.stats.accesses == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=255),
                          st.sampled_from(["fetch", "read", "write"])),
                max_size=60))
def test_fetch_has_the_effects_of_a_read(accesses):
    """``fetch`` is a timing-only read: the same cycles, hit/miss/fill,
    LRU and access statistics as ``access(..., is_write=False)``."""
    def build():
        memory = DramDevice("dram", 0, 64 * 1024, latency=50,
                            burst_word_latency=4,
                            energy_model=EnergyModel(1e-9, 1e-9, 0))
        return memory, make_cache(memory, size=256)

    fetched_dram, fetched = build()
    read_dram, read = build()
    for word, kind in accesses:
        address = 4 * word
        if kind == "write":
            fetched.access(address, 4, True, word)
            read.access(address, 4, True, word)
        elif kind == "fetch":
            assert fetched.fetch(address, 4) == \
                read.access(address, 4, False).cycles
        else:
            fetched.access(address, 4, False)
            read.access(address, 4, False)
    assert fetched.stats == read.stats
    assert fetched_dram.stats == read_dram.stats
    assert ([[(line.tag, line.valid, line.dirty, line.lru) for line in lines]
             for lines in fetched._sets]
            == [[(line.tag, line.valid, line.dirty, line.lru)
                 for line in lines] for lines in read._sets])
