import importlib
import inspect

import pytest

import galoiskit


def test_every_export_resolves():
    missing = [name for name in galoiskit.__all__ if not hasattr(galoiskit, name)]
    assert missing == []
    assert len(set(galoiskit.__all__)) == len(galoiskit.__all__)


def _exported_routines():
    """(name, routine) for every exported function and every method defined
    in galoiskit on an exported class."""
    for name in galoiskit.__all__:
        obj = getattr(galoiskit, name)
        if inspect.isclass(obj):
            for attr, member in inspect.getmembers(obj, inspect.isroutine):
                if (getattr(member, "__module__", None) or "").startswith("galoiskit"):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


def test_no_routine_takes_a_seed_or_a_factor_order():
    # factorizations are unique and canonically ordered, so neither a random
    # seed nor a factor order can change an answer
    found = [(name, p) for name, fn in _exported_routines()
             for p in inspect.signature(fn).parameters if p in ("seed", "factor_order")]
    assert found == []
    assert len(dict(_exported_routines())) > 100


def test_dir_lists_the_exports():
    assert dir(galoiskit) == sorted(galoiskit.__all__)


def test_each_export_is_its_home_modules_object():
    for module, names in galoiskit._HOMES.items():
        home = importlib.import_module(f"galoiskit.{module}")
        for name in names:
            assert getattr(galoiskit, name) is getattr(home, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from galoiskit import *", namespace)
    assert set(galoiskit.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        galoiskit.nope


def test_submodules_still_import_by_name():
    from galoiskit import numfield, radical
    from galoiskit.errors import DEFAULT_DEGREE_CAP

    assert numfield.__name__ == "galoiskit.numfield"
    assert radical.__name__ == "galoiskit.radical"
    assert numfield.DEFAULT_DEGREE_CAP is DEFAULT_DEGREE_CAP
