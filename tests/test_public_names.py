"""The package's public name set: what `from hesnil import *` exports."""

import types

import hesnil


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from hesnil import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(hesnil.__all__)
    assert len(hesnil.__all__) == len(set(hesnil.__all__)) == 83
    for name in hesnil.__all__:
        assert namespace[name] is getattr(hesnil, name)
        assert not isinstance(namespace[name], types.ModuleType), name
