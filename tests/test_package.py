"""The package's public surface."""

import metareplay


def test_every_exported_name_resolves():
    missing = [name for name in metareplay.__all__ if not hasattr(metareplay, name)]
    assert missing == []
