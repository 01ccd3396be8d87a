"""The benchmark's tracer still finds every sdxa name it wraps.

``perfbench/tracing.py`` wraps each function in its ``TRACED`` table by name,
so deleting or renaming one of them breaks ``perfbench/run.py --trace 1``.
Installing the tracer in a fresh interpreter catches that in tier-1.  The
test only reads ``perfbench/``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_every_traced_name():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    script = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'perfbench')!r}); "
        "from tracing import Tracer; Tracer().install()"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
