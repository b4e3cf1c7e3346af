"""The package's public export list."""

import tailrisk


def test_every_exported_name_resolves():
    missing = [name for name in tailrisk.__all__ if not hasattr(tailrisk, name)]
    assert missing == []
    assert len(set(tailrisk.__all__)) == len(tailrisk.__all__)
