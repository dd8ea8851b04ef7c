"""The names the benchmark in ``perfbench/`` reads from the package.

Its traced runs wrap the functions listed in ``perfbench.probes.PROBES``
(and count ``DegeneratePolesWarning``), and its setup metrics time the
modules of ``perfbench.run.IMPORT_MODULES`` under ``import fpinoise.cli``.
A name that stops resolving, or a module that stops loading, turns the
metrics that need it into null.  These tests only read ``perfbench/``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import fpinoise.cli  # noqa: E402,F401  (the probes patch every loaded fpinoise module)
from perfbench import probes, run  # noqa: E402


def test_every_probe_resolves():
    installer = probes.Probes(probes.Tracer())
    with installer.installed():
        assert installer.missing == []
        assert installer.warning_class is not None


def test_cli_import_loads_every_timed_module():
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import fpinoise.cli"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    loaded = run.parse_importtime(done.stderr)
    assert [m for m in run.IMPORT_MODULES.values() if m not in loaded] == []
