"""Every name the package exports resolves, so `import *` cannot break."""
import hybridssd


def test_every_exported_name_resolves():
    missing = [name for name in hybridssd.__all__
               if not hasattr(hybridssd, name)]
    assert missing == []
