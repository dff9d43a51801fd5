"""The benchmark's tracer contract, checked in the default suite.

``perfbench/tracing.py`` wraps library functions by name and reads what
some of them take and return (``f.z_comps[...].terms`` among them), so a
renamed or removed name breaks every traced benchmark run.  This runs the
benchmark's own tracer and coordinate-change self-tests in a fresh
interpreter, as ``perfbench/selftest.py`` does.  The host-speed sampler
check is left out: it counts SIGALRM probes, which a loaded host can miss.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_tracer_and_transform_selftests_pass():
    code = ("import json, selftest; "
            "print(json.dumps([selftest.check_tracer(), selftest.check_transform()]))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench",
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], []]
