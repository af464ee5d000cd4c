"""RunOptions: the one place execution choices are resolved.

Contracts under test: ``RunOptions.resolve`` validates flag and
environment values alike, resolves ``auto``, and yields a frozen value
holding only resolved choices; no module in the package writes
``os.environ`` and only ``RunOptions`` reads ``REPRO_ENGINE`` (the
retired ``REPRO_INJECTOR`` is read nowhere); a ``Machine`` built
without an engine honours ``REPRO_ENGINE``; and a pooled campaign
leaves the environment alone.
"""

import ast
import dataclasses
import os

import pytest

from conftest import read_word
from repro import Machine, assemble, baseline_sram_config
from repro.campaign import CampaignRunner, CampaignSpec
from repro.config import ENGINE_ENV, RunOptions
from repro.errors import ConfigurationError
from repro.workloads import synthetic_profile

PACKAGE_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                            "repro")

KNOB_ENV_NAMES = {"REPRO_ENGINE", "REPRO_INJECTOR"}

_SOURCE = """
        .text
        .func main
main:   ldr r1, =table
        mov r0, #0
        mov r4, #0
loop:   ldr r2, [r1, r0]
        add r4, r4, r2
        add r0, r0, #4
        cmp r0, #16
        blt loop
        ldr r3, =result
        str r4, [r3]
        halt
        .endfunc
        .data
table:  .word 1, 2, 3, 4
result: .word 0
"""


@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    return monkeypatch


# --- resolution -------------------------------------------------------------

def test_defaults_resolve_auto(clean_env):
    assert RunOptions.resolve() == RunOptions(engine="fast")
    assert RunOptions.resolve(engine="auto") == RunOptions(engine="fast")


def test_flags_win_over_environment(clean_env):
    clean_env.setenv(ENGINE_ENV, "fast")
    assert RunOptions.resolve(engine="reference").engine == "reference"


def test_environment_fills_unset_fields(clean_env):
    clean_env.setenv(ENGINE_ENV, "Reference ")
    assert RunOptions.resolve() == RunOptions(engine="reference")
    # the retired injector variable is ignored, whatever it holds
    clean_env.setenv("REPRO_INJECTOR", "warp")
    assert RunOptions.resolve().engine == "reference"


@pytest.mark.parametrize("kwargs", [{"engine": "turbo"},
                                    {"engine": "batch"},
                                    {"engine": "FAST"}])
def test_flag_typos_rejected(clean_env, kwargs):
    with pytest.raises(ConfigurationError, match="unknown"):
        RunOptions.resolve(**kwargs)


@pytest.mark.parametrize("env", [ENGINE_ENV])
def test_environment_typos_rejected(clean_env, env):
    clean_env.setenv(env, "bogus")
    with pytest.raises(ConfigurationError, match=env):
        RunOptions.resolve()


def test_resolution_is_not_cached(clean_env):
    clean_env.setenv(ENGINE_ENV, "reference")
    assert RunOptions.resolve().engine == "reference"
    clean_env.setenv(ENGINE_ENV, "fast")
    assert RunOptions.resolve().engine == "fast"


def test_frozen_and_resolved_only():
    options = RunOptions(engine="reference")
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.engine = "fast"
    for engine in ("auto", None, "trial"):
        with pytest.raises(ConfigurationError):
            RunOptions(engine=engine)
    assert [field.name for field in dataclasses.fields(RunOptions)] == \
        ["engine"]


# --- the package never writes the environment ------------------------------

def _modules():
    for directory, _, files in sorted(os.walk(PACKAGE_ROOT)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    yield (os.path.relpath(path, PACKAGE_ROOT),
                           ast.parse(handle.read(), filename=path))


def _is_environ(node):
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            and isinstance(node.value, ast.Name)
            and node.value.id == "os")


def _environ_writes(tree):
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if (isinstance(target, ast.Subscript)
                    and _is_environ(target.value)) or _is_environ(target):
                yield node.lineno
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            func = node.func
            if _is_environ(func.value) and func.attr in (
                    "pop", "popitem", "setdefault", "update", "clear",
                    "__setitem__", "__delitem__"):
                yield node.lineno
            if (isinstance(func.value, ast.Name) and func.value.id == "os"
                    and func.attr in ("putenv", "unsetenv")):
                yield node.lineno


def _knob_env_reads(tree):
    """Line numbers naming the knob variables, outside RunOptions."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "RunOptions":
            inside.update(id(child) for child in ast.walk(node))
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Constant) and node.value in KNOB_ENV_NAMES:
            yield node.lineno
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else None)
        if name == "ENGINE_ENV" and isinstance(
                getattr(node, "ctx", None), ast.Load):
            yield node.lineno


def test_no_module_writes_os_environ():
    offenders = ["%s:%d" % (path, line)
                 for path, tree in _modules()
                 for line in _environ_writes(tree)]
    assert not offenders, offenders


def test_only_run_options_reads_knob_environment():
    offenders = [(path, line)
                 for path, tree in _modules()
                 for line in _knob_env_reads(tree)]
    # the only hit is config.py's module-level name constant
    assert [path for path, _ in offenders] == ["config.py"], offenders


def test_scanner_flags_writes_and_reads():
    tree = ast.parse(
        "import os\n"
        "os.environ['REPRO_ENGINE'] = 'fast'\n"
        "os.environ.pop('X', None)\n"
        "del os.environ['Y']\n"
        "value = os.environ.get(ENGINE_ENV)\n")
    assert sorted(_environ_writes(tree)) == [2, 3, 4]
    assert sorted(_knob_env_reads(tree)) == [2, 5]


# --- the resolved engine reaches the machine ------------------------------

def test_machine_without_engine_honours_environment(clean_env):
    program = assemble(_SOURCE)
    clean_env.setenv(ENGINE_ENV, "reference")
    machine = Machine(program, baseline_sram_config())
    assert machine.engine == "reference"
    machine.run()
    assert machine._fastpath is None  # the reference step loop ran
    assert read_word(machine, "result") == 10

    clean_env.delenv(ENGINE_ENV)
    fast = Machine(program, baseline_sram_config())
    assert fast.engine == "fast"
    fast.run()
    assert fast._fastpath is not None
    assert read_word(fast, "result") == 10


# --- campaigns never touch the environment ---------------------------------

def test_pooled_campaign_matches_serial_and_leaves_environment(clean_env):
    spec = CampaignSpec.from_structure(
        synthetic_profile("sha"), "ftspm", trials=6_000, seed=0xC0DE,
        shard_size=2_000)
    before = dict(os.environ)
    serial = CampaignRunner(spec, jobs=1).run()
    pooled = CampaignRunner(spec, jobs=2).run()
    assert dict(os.environ) == before
    assert pooled.complete and serial.complete
    assert pooled.result.to_dict() == serial.result.to_dict()
