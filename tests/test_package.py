"""Public surface of the package."""

import catloss


def test_all_names_resolve_once():
    names = catloss.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(catloss, name)]
    assert missing == []
