"""The top-level `hyperwalk` namespace: each module's `__all__` and the
exception classes of `errors`, and nothing else."""

import inspect
import pickle
import types

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
