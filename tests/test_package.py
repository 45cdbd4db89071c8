import inspect

import landau


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from landau import *", namespace)  # a stale __all__ entry raises here
    del namespace["__builtins__"]
    assert set(namespace) == set(landau.__all__)
    # and every public name __init__ imports is listed
    public = {k for k, v in vars(landau).items() if not k.startswith("_") and not inspect.ismodule(v)}
    assert public == set(landau.__all__)


def test_all_is_sorted_without_duplicates():
    assert landau.__all__ == sorted(set(landau.__all__))
