"""The benchmark scripts import the checkout's reflarr on their own.

Each script under ``benchmarks/`` is loaded by path, without running
its ``main``, in a fresh interpreter with PYTHONPATH unset and the
working directory outside the checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ("bench_kernel.py", "bench_lattice.py", "bench_monodromy.py", "bench_structure.py")
LOAD = (
    "import importlib.util, sys; "
    "spec = importlib.util.spec_from_file_location('bench', sys.argv[1]); "
    "spec.loader.exec_module(importlib.util.module_from_spec(spec)); "
    "print(sys.modules['reflarr'].__file__)"
)


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_loads_without_pythonpath(script, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", LOAD, str(ROOT / "benchmarks" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()) == ROOT / "src" / "reflarr" / "__init__.py"
