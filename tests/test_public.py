"""The top-level `hyperwalk` namespace: each module's `__all__` and the
exception classes of `errors`, and nothing else."""

import inspect
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hyperwalk
from hyperwalk import (HyperwalkError, core, errors, rankagg, reduction, spectral, stationary,
                       walk)

MODULES = [core, walk, stationary, spectral, reduction, rankagg]


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
                                 if inspect.isclass(value) and issubclass(value, Exception)],
                         ids=lambda cls: cls.__name__)
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
