"""The benchmark's tracer contract, checked in the default suite.

``perfbench/tracing.py`` wraps library functions by name and reads what
some of them take and return (``f.z_comps[...].terms`` among them), so a
renamed or removed name breaks every traced benchmark run.  This runs the
benchmark's own tracer and coordinate-change self-tests in a fresh
interpreter, as ``perfbench/selftest.py`` does.  The host-speed sampler
check is left out: it counts SIGALRM probes, which a loaded host can miss.
The traced structure counts are pinned too, so a change in how often
``_bracket_pair`` or ``check_jacobi`` runs also shows here.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

from crprolong.prolong import jacobi_triple_count

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run_in_perfbench(code):
    """The last stdout line of ``code`` run by a fresh interpreter in
    ``perfbench/``, read as JSON."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench",
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracer_and_transform_selftests_pass():
    code = ("import json, selftest; "
            "print(json.dumps([selftest.check_tracer(), selftest.check_transform()]))")
    assert _run_in_perfbench(code) == [[], []]


def test_traced_structure_counts():
    code = textwrap.dedent("""\
        import json, worker
        worker._import_package()
        import workloads
        from tracing import Tracer
        with Tracer() as tracer:
            code, text, _ = workloads.run_cli(["prolong", "--check-jacobi", "--structure",
                                               "--json", "--catalog", "heisenberg",
                                               "--extra", "1"])
        print(json.dumps([code, json.loads(text)["dims"], tracer.layer_metrics()]))
        """)
    code, dims, layers = _run_in_perfbench(code)
    assert code == 0
    dims = {int(d): v for d, v in dims.items()}
    top = max(d for d, v in dims.items() if v)
    # one _bracket_pair call per computed pair, mirrored pairs included
    assert layers["structure.pairs"] == sum(dims[i] * dims[j] for i in range(top + 1)
                                            for j in range(i, top + 1 - i))
    assert layers["structure.jacobi_triples"] == jacobi_triple_count(dims)
