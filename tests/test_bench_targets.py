"""Every library name the traced benchmark run wraps still exists.

The benchmark's tracer (perfbench/tracing.py) patches the names in its
TARGETS table; a name that is missing there only drops its per-layer metrics
at run time. This test turns a rename or deletion into a failure here.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dyngibbs"


def load_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_traced_names_resolve_in_the_package():
    targets = load_targets()
    assert targets
    for module, cls, attr, _how in targets:
        mod = importlib.import_module(module)
        assert Path(mod.__file__).resolve().parent == PACKAGE, module
        owner = mod if cls is None else getattr(mod, cls, None)
        assert owner is not None, f"{module}.{cls}"
        assert callable(getattr(owner, attr, None)), f"{module}.{cls or ''}.{attr}"
