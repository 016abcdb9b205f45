"""The package's public names."""

import vcdf


def test_every_exported_name_resolves_once_in_sorted_order():
    names = vcdf.__all__
    assert [name for name in names if not hasattr(vcdf, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)  # code-point (ASCII) order
