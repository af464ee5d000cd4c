"""Run-option guards: one simulation engine a run can reach.

Contracts under test: ``Machine`` runs the fast engine unless it is
built with ``engine="reference"``, accepts exactly those two names and
never consults the environment; inside the package only
``sim/diffcheck.py`` passes ``engine=`` when it builds a ``Machine``; no
module names the retired ``REPRO_ENGINE``/``REPRO_INJECTOR`` variables
or writes ``os.environ``; no subcommand accepts ``--engine``; and a
pooled campaign leaves the environment alone.
"""

import ast
import inspect
import os

import pytest

from conftest import read_word
from repro import Machine, assemble, baseline_sram_config
from repro.campaign import CampaignRunner, CampaignSpec
from repro.cli import build_parser
from repro.errors import ConfigurationError
from repro.sim import ENGINES
from repro.workloads import synthetic_profile

PACKAGE_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                            "repro")

RETIRED_ENV_NAMES = ("REPRO_ENGINE", "REPRO_INJECTOR")

#: the one module allowed to pick a Machine's engine: the oracle harness
ENGINE_SELECTORS = ["sim/diffcheck.py"]

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
    for name in RETIRED_ENV_NAMES:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


# --- the Machine's engine argument ------------------------------------------

@pytest.mark.parametrize("kwargs", [{"engine": "turbo"},
                                    {"engine": "batch"},
                                    {"engine": "FAST"}])
def test_flag_typos_rejected(kwargs):
    with pytest.raises(ConfigurationError, match="unknown engine"):
        Machine(assemble(_SOURCE), baseline_sram_config(), **kwargs)


def test_flags_win_over_environment(clean_env):
    """An explicit engine is the only selector: the retired variable
    neither overrides it nor fills in the default."""
    program = assemble(_SOURCE)
    clean_env.setenv("REPRO_ENGINE", "fast")
    assert Machine(program, baseline_sram_config(),
                   engine="reference").engine == "reference"
    clean_env.setenv("REPRO_ENGINE", "reference")
    assert Machine(program, baseline_sram_config()).engine == "fast"


def test_frozen_and_resolved_only():
    """The accepted set is fixed at the two resolved names; ``auto`` and
    ``None`` no longer resolve to anything, and the default is the
    literal ``"fast"``."""
    assert ENGINES == ("reference", "fast")
    default = inspect.signature(Machine).parameters["engine"].default
    assert default == "fast"
    program = assemble(_SOURCE)
    for engine in ("auto", None, "trial"):
        with pytest.raises(ConfigurationError):
            Machine(program, baseline_sram_config(), engine=engine)


def test_machine_without_engine_ignores_environment(clean_env):
    program = assemble(_SOURCE)
    clean_env.setenv("REPRO_ENGINE", "reference")
    fast = Machine(program, baseline_sram_config())
    assert fast.engine == "fast"
    fast.run()
    assert fast._fastpath is not None  # the block engine ran
    assert read_word(fast, "result") == 10

    reference = Machine(program, baseline_sram_config(), engine="reference")
    reference.run()
    assert reference._fastpath is None  # the reference step loop ran
    assert read_word(reference, "result") == 10


# --- package-wide AST guards -------------------------------------------------

def _modules():
    for directory, _, files in sorted(os.walk(PACKAGE_ROOT)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    relative = os.path.relpath(path, PACKAGE_ROOT)
                    yield (relative.replace(os.sep, "/"),
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


def _retired_env_names(tree):
    """Line numbers of any string constant naming a retired variable
    (docstrings and messages included) or the old ``ENGINE_ENV``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and any(name in node.value for name in RETIRED_ENV_NAMES)):
            yield node.lineno
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else None)
        if name == "ENGINE_ENV":
            yield node.lineno


def _engine_selections(tree):
    """Line numbers of ``Machine(..., engine=...)`` constructions."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = (func.id if isinstance(func, ast.Name)
                  else func.attr if isinstance(func, ast.Attribute)
                  else None)
        if callee == "Machine" and any(keyword.arg == "engine"
                                       for keyword in node.keywords):
            yield node.lineno


def test_no_module_writes_os_environ():
    offenders = ["%s:%d" % (path, line)
                 for path, tree in _modules()
                 for line in _environ_writes(tree)]
    assert not offenders, offenders


def test_no_module_names_knob_environment():
    offenders = ["%s:%d" % (path, line)
                 for path, tree in _modules()
                 for line in _retired_env_names(tree)]
    assert not offenders, offenders


def test_only_diffcheck_selects_a_machine_engine():
    selectors = sorted({path for path, tree in _modules()
                        if any(_engine_selections(tree))})
    assert selectors == ENGINE_SELECTORS


def test_scanner_flags_writes_and_reads():
    tree = ast.parse(
        "import os\n"
        "os.environ['REPRO_ENGINE'] = 'fast'\n"
        "os.environ.pop('X', None)\n"
        "del os.environ['Y']\n"
        "value = os.environ.get(ENGINE_ENV)\n"
        "Machine(program, config, engine='reference')\n"
        "sim.Machine(program, config, engine=name)\n"
        "Machine(program, config)\n"
        "'''set REPRO_INJECTOR to pick one'''\n")
    assert sorted(_environ_writes(tree)) == [2, 3, 4]
    assert sorted(_retired_env_names(tree)) == [2, 5, 9]
    assert sorted(_engine_selections(tree)) == [6, 7]


# --- the CLI has no engine flag ----------------------------------------------

#: a minimal valid invocation of every subcommand
SUBCOMMAND_ARGV = {
    "list": ["list"],
    "experiments": ["experiments"],
    "report": ["report"],
    "golden": ["golden"],
    "diff": ["diff"],
    "profile": ["profile", "sha"],
    "lint": ["lint", "case"],
    "devlint": ["devlint"],
    "map": ["map", "sha"],
    "run": ["run", "case"],
    "inject": ["inject", "sha"],
    "campaign": ["campaign", "sha"],
    "serve": ["serve"],
    "submit": ["submit", "campaign", "sha"],
    "runs": ["runs", "list"],
    "disasm": ["disasm", "case"],
    "trace": ["trace", "case"],
}


def _subcommands(parser):
    for action in parser._actions:
        if action.choices and action.dest == "command":
            return sorted(action.choices)
    raise AssertionError("no subcommand table")


def test_engine_flag_table_covers_every_subcommand():
    parser = build_parser()
    assert _subcommands(parser) == sorted(SUBCOMMAND_ARGV)
    for argv in SUBCOMMAND_ARGV.values():
        parser.parse_args(argv)  # each base invocation is valid


@pytest.mark.parametrize(
    "argv",
    [argv + ["--engine", "fast"] for argv in SUBCOMMAND_ARGV.values()]
    + [["diff", "--workload", "case", "--%s-engine" % side, "reference"]
       for side in ("a", "b")],
    ids=list(SUBCOMMAND_ARGV) + ["diff-a-engine", "diff-b-engine"])
def test_every_subcommand_rejects_engine_flag(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
