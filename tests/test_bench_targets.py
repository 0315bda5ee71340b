"""The traced benchmark run still sees every layer and still ends in a result.

The benchmark's tracer (perfbench/tracing.py) patches the names in its
TARGETS table; a name that is missing there only drops its per-layer metrics
at run time. The first test turns a rename or deletion into a failure here.
The smoke tests run a short traced benchmark per workload and check its last
line of standard output, which is what the benchmark's consumers parse.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def _reject(token):
    raise ValueError(f"non-finite number {token} in the result line")


@pytest.mark.parametrize("workload, seconds", [("edit-n10k", 2), ("churn-hardcore", 6)])
def test_traced_run_ends_in_a_result(workload, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
