"""Package surface."""
import lidsn


def test_every_exported_name_resolves():
    missing = [name for name in lidsn.__all__ if not hasattr(lidsn, name)]
    assert missing == []
