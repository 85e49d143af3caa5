"""The package's public names."""

import finhopf


def test_every_exported_name_resolves_once():
    assert len(finhopf.__all__) == len(set(finhopf.__all__))
    missing = [name for name in finhopf.__all__ if not hasattr(finhopf, name)]
    assert missing == []
