"""System configurations, including the Table IV presets from the paper.

The paper evaluates three SPM organisations on the same processor:

* **baseline pure SRAM SPM** — 16 KB SEC-DED SRAM instruction SPM and
  16 KB SEC-DED SRAM data SPM (2-clock read and write),
* **baseline pure STT-RAM (NVM) SPM** — 16 KB STT-RAM instruction and data
  SPMs (1-clock read, 10-clock write),
* **FTSPM** — 16 KB STT-RAM instruction SPM; a data SPM made of a 2 KB
  parity-protected SRAM region (1 clock), a 2 KB SEC-DED SRAM region
  (2 clocks) and a 12 KB STT-RAM region (1-clock read, 10-clock write).

All three share an 8 KB unprotected SRAM L1 instruction/data cache with
1-clock access for references that miss the SPM address windows.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field, replace

from .errors import ConfigurationError
from .units import kilobytes


class MemoryTechnology(enum.Enum):
    """Underlying cell technology of a memory region."""

    SRAM = "sram"
    STT_RAM = "stt-ram"
    DRAM = "dram"


class Protection(enum.Enum):
    """Soft-error protection scheme applied to a memory region."""

    NONE = "unprotected"
    PARITY = "parity"
    SECDED = "sec-ded"
    IMMUNE = "immune"  # STT-RAM cells: no radiation-induced upsets

    @property
    def is_sram_scheme(self):
        """True for the schemes that apply redundancy to SRAM cells."""
        return self in (Protection.PARITY, Protection.SECDED)


@dataclass(frozen=True)
class RegionConfig:
    """One physically homogeneous region of an SPM.

    ``read_latency`` and ``write_latency`` are in CPU clock cycles and come
    straight from Table IV of the paper.
    """

    name: str
    technology: MemoryTechnology
    protection: Protection
    size: int
    read_latency: int
    write_latency: int

    def __post_init__(self):
        if self.size <= 0:
            raise ConfigurationError(
                "region %r must have a positive size" % self.name)
        if self.read_latency < 1 or self.write_latency < 1:
            raise ConfigurationError(
                "region %r latencies must be at least one cycle" % self.name)
        if (self.technology is MemoryTechnology.STT_RAM
                and self.protection is not Protection.IMMUNE):
            raise ConfigurationError(
                "STT-RAM regions are modelled as soft-error immune; "
                "region %r must use Protection.IMMUNE" % self.name)
        if (self.technology is MemoryTechnology.SRAM
                and self.protection is Protection.IMMUNE):
            raise ConfigurationError(
                "SRAM region %r cannot be declared immune" % self.name)


@dataclass(frozen=True)
class CacheConfig:
    """L1 cache used for references outside the SPM windows (Table IV)."""

    size: int = kilobytes(8)
    line_size: int = 32
    associativity: int = 4
    latency: int = 1
    technology: MemoryTechnology = MemoryTechnology.SRAM
    protection: Protection = Protection.NONE

    def __post_init__(self):
        if self.size % (self.line_size * self.associativity) != 0:
            raise ConfigurationError(
                "cache size must be a multiple of line_size * associativity")


@dataclass(frozen=True)
class SpmConfig:
    """An SPM composed of one or more regions laid out contiguously."""

    name: str
    regions: tuple

    def __post_init__(self):
        if not self.regions:
            raise ConfigurationError("SPM %r has no regions" % self.name)
        names = [region.name for region in self.regions]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                "SPM %r has duplicate region names: %r" % (self.name, names))

    @property
    def size(self):
        """Total capacity in bytes across all regions."""
        return sum(region.size for region in self.regions)

    def region(self, name):
        """Return the region called ``name``; raise if absent."""
        for region in self.regions:
            if region.name == name:
                return region
        raise ConfigurationError(
            "SPM %r has no region named %r" % (self.name, name))


@dataclass(frozen=True)
class OffChipConfig:
    """Off-chip DRAM backing store.

    FaCSim models an embedded SDRAM; the exact miss penalty is not in the
    paper, so we use a typical embedded-class figure and expose it here so
    sweeps can vary it.
    """

    size: int = 8 * kilobytes(1024)  # 8 MB covers text, data and stack
    latency: int = 50  # cycles per word access
    burst_word_latency: int = 4  # per additional word within a DMA burst


@dataclass(frozen=True)
class SystemConfig:
    """A complete simulated platform: CPU clock, cache, SPMs, off-chip."""

    name: str
    clock_hz: float = 400e6  # FaCSim models an ARM9-class embedded core
    word_size: int = 4
    cache: CacheConfig = field(default_factory=CacheConfig)
    instruction_spm: SpmConfig = None
    data_spm: SpmConfig = None
    off_chip: OffChipConfig = field(default_factory=OffChipConfig)
    technology_node_nm: int = 40

    def __post_init__(self):
        if self.instruction_spm is None or self.data_spm is None:
            raise ConfigurationError(
                "system %r needs both an instruction SPM and a data SPM"
                % self.name)
        if self.clock_hz <= 0:
            raise ConfigurationError("clock frequency must be positive")

    @property
    def cycle_time(self):
        """Duration of one CPU clock cycle, in seconds."""
        return 1.0 / self.clock_hz

    def with_data_spm(self, data_spm):
        """Return a copy of this config with a different data SPM."""
        return replace(self, data_spm=data_spm)


# --- region factories -------------------------------------------------------

def sram_region(name, size, protection=Protection.NONE):
    """An SRAM region with Table IV latencies for its protection scheme.

    Parity checking overlaps the access (1 clock); SEC-DED adds a cycle for
    encode/decode (2 clocks), matching Table IV.
    """
    latency = 2 if protection is Protection.SECDED else 1
    return RegionConfig(
        name=name,
        technology=MemoryTechnology.SRAM,
        protection=protection,
        size=size,
        read_latency=latency,
        write_latency=latency,
    )


def sttram_region(name, size):
    """An STT-RAM region: 1-clock read, 10-clock write (Table IV)."""
    return RegionConfig(
        name=name,
        technology=MemoryTechnology.STT_RAM,
        protection=Protection.IMMUNE,
        size=size,
        read_latency=1,
        write_latency=10,
    )


# --- Table IV presets -------------------------------------------------------

def baseline_sram_config():
    """Pure SEC-DED SRAM SPM baseline (first column of Table IV)."""
    return SystemConfig(
        name="baseline-sram",
        instruction_spm=SpmConfig(
            name="I-SPM",
            regions=(sram_region("ispm-secded", kilobytes(16),
                                 Protection.SECDED),),
        ),
        data_spm=SpmConfig(
            name="D-SPM",
            regions=(sram_region("dspm-secded", kilobytes(16),
                                 Protection.SECDED),),
        ),
    )


def baseline_sttram_config():
    """Pure STT-RAM SPM baseline (second column of Table IV)."""
    return SystemConfig(
        name="baseline-sttram",
        instruction_spm=SpmConfig(
            name="I-SPM",
            regions=(sttram_region("ispm-stt", kilobytes(16)),),
        ),
        data_spm=SpmConfig(
            name="D-SPM",
            regions=(sttram_region("dspm-stt", kilobytes(16)),),
        ),
    )


def ftspm_config(parity_kb=2, secded_kb=2, stt_kb=12):
    """The FTSPM hybrid structure (third column of Table IV).

    The region split of the 16 KB data SPM is parameterised so the
    region-sizing ablation can sweep it; defaults match the paper.
    """
    return SystemConfig(
        name="ftspm",
        instruction_spm=SpmConfig(
            name="I-SPM",
            regions=(sttram_region("ispm-stt", kilobytes(16)),),
        ),
        data_spm=SpmConfig(
            name="D-SPM",
            regions=(
                sram_region("dspm-parity", kilobytes(parity_kb),
                            Protection.PARITY),
                sram_region("dspm-secded", kilobytes(secded_kb),
                            Protection.SECDED),
                sttram_region("dspm-stt", kilobytes(stt_kb)),
            ),
        ),
    )


ALL_PRESETS = {
    "baseline-sram": baseline_sram_config,
    "baseline-sttram": baseline_sttram_config,
    "ftspm": ftspm_config,
}


# --- run options --------------------------------------------------------------

#: accepted ``--engine`` values (``auto`` resolves to ``fast``)
ENGINES = ("reference", "fast", "auto")
#: accepted ``--injector`` values (``auto`` resolves to ``batch``)
INJECTORS = ("trial", "batch", "auto")
ENGINE_ENV = "REPRO_ENGINE"
INJECTOR_ENV = "REPRO_INJECTOR"


@dataclass(frozen=True)
class RunOptions:
    """The execution choices one run actually used, fully resolved.

    ``engine`` is the simulation engine (``reference`` step loop or the
    predecoded ``fast`` engine of :mod:`repro.sim.fastpath`);
    ``injector`` is the shard evaluator (``trial`` or the vectorized
    ``batch`` of :mod:`repro.campaign.batch`).  Both are
    result-invariant — they change throughput, never counts — which is
    why they stay out of artifact keys and job-coalescing keys, and
    why the run ledger records them as knobs beside the results.

    Build it with :meth:`resolve` at the edge (CLI, service, library
    entry points given ``None``) and pass the fields down explicitly.
    """

    engine: str
    injector: str

    def __post_init__(self):
        if (self.engine not in ("reference", "fast")
                or self.injector not in ("trial", "batch")):
            raise ConfigurationError(
                "RunOptions holds resolved choices only, got engine=%r "
                "injector=%r (use RunOptions.resolve)"
                % (self.engine, self.injector))

    @classmethod
    def resolve(cls, engine=None, injector=None):
        """Validate flag/service values and resolve ``auto``.

        A field left as ``None`` is read from ``REPRO_ENGINE`` /
        ``REPRO_INJECTOR`` (``auto`` when unset).  Typos raise
        :class:`~repro.errors.ConfigurationError` rather than silently
        running another engine.  Nothing is cached: every call reads
        the environment afresh.
        """
        resolved = {}
        for name, value, env, choices, auto in (
                ("engine", engine, ENGINE_ENV, ENGINES, "fast"),
                ("injector", injector, INJECTOR_ENV, INJECTORS, "batch")):
            if value is None:
                value = os.environ.get(env, "").strip().lower() or "auto"
                origin = "%s=%r" % (env, value)
            else:
                origin = "%s %r" % (name, value)
            if value not in choices:
                raise ConfigurationError("unknown %s (one of %s)"
                                         % (origin, "/".join(choices)))
            resolved[name] = auto if value == "auto" else value
        return cls(**resolved)


def preset(name):
    """Look up a configuration preset by name."""
    try:
        factory = ALL_PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            "unknown preset %r (choose from %s)"
            % (name, ", ".join(sorted(ALL_PRESETS)))) from None
    return factory()
