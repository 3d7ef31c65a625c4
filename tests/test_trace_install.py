"""The traced benchmark run wraps package functions by name.

``perfbench/layers.py`` lists the functions it wraps; a rename in the
package would otherwise surface only when ``perfbench/run.py --trace 1``
fails.  The install runs in a fresh process, so its wrappers do not leak
into the rest of the suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_function_exists():
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]\n"
        "import layers\n"
        "layers.install(layers.Recorder())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
