"""The top-level `hyperwalk` namespace: each module's `__all__` and the
exception classes of `errors`, and nothing else; and the rules every
module's source keeps: one freezing rule, no dataclass, no call to the
builtin sum(), and one writer per memo entry."""

import ast
import inspect
import os
import pickle
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hyperwalk
from hyperwalk import (HyperwalkError, core, errors, rankagg, reduction, spectral, stationary,
                       walk)
from oracles import Unmixed

MODULES = [core, walk, stationary, spectral, reduction, rankagg]
SOURCES = sorted(Path(hyperwalk.__file__).parent.glob("*.py"))


def source_lines():
    """(file name, line number, line) of every line of the library."""
    for path in SOURCES:
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            yield path.name, number, line


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_a_modules_all_is_top_level(module):
    for name in module.__all__:
        assert getattr(hyperwalk, name, None) is getattr(module, name), name


def test_every_public_error_is_top_level():
    public = [name for name in vars(errors) if not name.startswith("_")]
    assert public
    for name in public:
        value = getattr(errors, name)
        assert inspect.isclass(value) and issubclass(value, HyperwalkError), name
        assert getattr(hyperwalk, name, None) is value, name


def test_every_top_level_name_has_one_record():
    recorded = {name for module in MODULES for name in module.__all__}
    recorded |= {name for name in vars(errors) if not name.startswith("_")}
    extra = {name for name, value in vars(hyperwalk).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert extra - recorded == set()


@pytest.mark.parametrize("cls", [value for value in vars(errors).values()
                                 if inspect.isclass(value) and issubclass(value, Exception)]
                         + [Unmixed], ids=lambda cls: cls.__name__)
def test_every_error_keeps_its_type_and_message_through_pickle(cls):
    # a trial's error reaches the experiment's parent process pickled
    for error in (cls("a message"), cls(7)):
        again = pickle.loads(pickle.dumps(error))
        assert type(again) is cls
        assert str(again) == str(error)
        assert vars(again) == vars(error)


def test_importing_the_cli_generates_no_code():
    # the result records are plain slotted classes, so a fresh interpreter
    # builds no dataclass at start-up; numpy alone does not import dataclasses
    env = dict(os.environ, PYTHONPATH=str(Path(hyperwalk.__file__).parents[1]))
    script = ("import sys, numpy; print('dataclasses' in sys.modules); "
              "import hyperwalk.cli; print('dataclasses' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60)
    assert (run.returncode, run.stdout.split(), run.stderr) == (0, ["False", "False"], "")


def test_the_commands_import_no_masked_arrays(tmp_path):
    # np.unique imports numpy.ma (numpy 2.4), which adds to a command's peak
    # RSS; no command on the demo reaches it
    demo = tmp_path / "demo.json"
    demo.write_text(hyperwalk.dumps_json(hyperwalk.demo_hypergraph()))
    commands = [["reduce", "--mode", "sandwich"], ["stationary", "--method", "auto"],
                ["stationary", "--method", "direct"], ["spectral", "--check-cheeger"]]
    argvs = [command + ["--input", str(demo), "--out", str(tmp_path / f"c{i}.json")]
             for i, command in enumerate(commands)]
    env = dict(os.environ, PYTHONPATH=str(Path(hyperwalk.__file__).parents[1]))
    script = ("import sys; from hyperwalk.cli import dispatch; "
              f"codes = [dispatch(argv) for argv in {argvs!r}]; "
              "print(codes, 'numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60)
    assert (run.returncode, run.stdout.split("\n")[-2:], run.stderr) == \
        (0, ["[0, 0, 0, 0] False", ""], "")


def test_only_core_freezes_and_nothing_is_formed_lazily():
    # an array is made read-only only in core._frozen, an attribute set only
    # in core._Frozen's setter, and no object forms one lazily; a line's
    # scope is the last def or class its file opened at column 0
    bad, scope = [], ""
    for name, number, line in source_lines():
        if number == 1:
            scope = ""
        if re.match(r"(def|class) ", line):
            scope = f"{name}:{line.split()[1]}"
        if ("setflags(" in line and not scope.startswith("core.py:_frozen(")
                or "object.__setattr__" in line and scope != "core.py:_Frozen:"
                or "cached_property" in line):
            bad.append(f"{name}:{number}: {line}")
    assert bad == []


def test_no_dataclass_in_the_library():
    # a result record is a core._Record, never a dataclass, whose methods
    # would be generated and compiled at every import
    assert [f"{name}:{number}: {line}" for name, number, line in source_lines()
            if "dataclass" in line] == []


def test_no_call_to_the_builtin_sum():
    # Python 3.12 and later compensate sum(), so a seeded output summed by it
    # has other bits there than on 3.10 and 3.11
    calls = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "sum"]
    assert calls == [], "add through core._add_in_order, left to right on every Python"


def test_the_memo_is_touched_only_in_core():
    assert [f"{name}:{number}: {line}" for name, number, line in source_lines()
            if "._memo" in line and name != "core.py"] == []


def test_each_memo_key_has_one_writer():
    # each memo key is written by one _memo(H, "<key>", ...) call
    keys = [key for _, _, line in source_lines()
            for key in re.findall(r'_memo\([A-Za-z_]+, "([^"]*)"', line)]
    assert keys and {key for key in keys if keys.count(key) > 1} == set()
