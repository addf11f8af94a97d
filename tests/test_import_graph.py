"""What `import lpnse` loads: of scipy the package uses only scipy.fft."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg",
         "scipy.spatial")

PROBE = f"""
import sys
import lpnse.cli
for name in sorted(sys.modules):
    if any(name == h or name.startswith(h + ".") for h in {HEAVY!r}):
        print(name)
"""


def test_cli_import_loads_no_heavy_scipy_subpackage():
    # a fresh interpreter: the modules this test process holds do not count
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
