"""The traced benchmark wraps bcc functions by name; every name must exist."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_spans_install_finds_every_traced_name():
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import spans; spans.install(spans.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"),
                           str(ROOT / "src")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
