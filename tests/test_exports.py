import inspect

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
