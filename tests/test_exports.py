"""Every name the package exports resolves, so `import *` cannot break,
every entry point the benchmark tracer wraps still exists, and no module
imports a name it never uses."""
import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import hybridssd

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


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


def test_cli_import_needs_no_third_party_library():
    # a fresh interpreter, so modules the tests imported do not count
    code = ("import sys, hybridssd.cli; print(sorted({m.split('.')[0] "
            "for m in sys.modules} & {'numpy', 'requests', 'urllib3'}))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.stdout.strip() == "[]"


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export; a __future__ import is a directive
    unused = []
    for path in sorted((ROOT / "src" / "hybridssd").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported
                   if name not in used]
    assert unused == []
