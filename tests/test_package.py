import types

import nonholo


def test_all_names_resolve_and_none_is_a_module():
    # `from nonholo import *` binds exactly these, so not `path` or `sim`
    assert nonholo.__all__
    for name in nonholo.__all__:
        assert not isinstance(getattr(nonholo, name), types.ModuleType), name
