import types

import rtd


def test_all_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(rtd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(rtd.__all__) == sorted(public)
