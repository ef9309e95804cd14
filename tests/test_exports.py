"""Every name the package exports resolves, so `import *` cannot break, and
every entry point the benchmark tracer wraps still exists."""
import importlib.util
from pathlib import Path

import hybridssd

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_exported_name_resolves():
    missing = [name for name in hybridssd.__all__
               if not hasattr(hybridssd, name)]
    assert missing == []


def test_every_traced_entry_point_resolves():
    # the tracer reads owner.__dict__[attr], so `--trace 1` raises KeyError
    # on an entry point that was deleted, renamed or is only inherited
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{owner.__name__}.{attr}"
               for pairs in tracer.LAYERS.values()
               for owner, attrs in pairs for attr in attrs
               if attr not in vars(owner)]
    assert missing == []
