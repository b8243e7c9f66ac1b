"""The package's public surface: one list, built from its import block."""

import types

import staticgeo


def test_all_lists_every_public_name_once():
    names = staticgeo.__all__
    assert len(names) == 78
    assert len(set(names)) == len(names)
    assert "__version__" in names
    for name in names:
        value = getattr(staticgeo, name)
        assert not isinstance(value, types.ModuleType), name
