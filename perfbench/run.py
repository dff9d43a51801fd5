"""crprolong benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload report --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  One client runs a closed loop:
each pass of the workload runs in a fresh worker process (worker.py), and
the next pass starts only after the previous one has finished and every
output has been checked.  Passes start until ``--seconds`` would be
exceeded, with at least MIN_PASSES of them.

--trace 0 prints the end-to-end metrics:
    wall_s       seconds for one pass of the workload's jobs, outputs checked;
                 the median over the passes
    setup_s      seconds from starting the worker until its inputs are ready
                 (interpreter start, import, catalog entries, seeded inputs);
                 the median over the passes
    peak_rss_mb  ru_maxrss of the worker at the end of its pass; the median

Both times are scaled to a reference host speed.  On a shared host the
processor's speed drifts by up to 1.7x over seconds to minutes, so the
worker times a fixed stdlib probe every 0.2 s while it runs and scales each
stretch of its time by the probe's speed there (hostspeed.py; DESIGN.md
gives the figures).  The times as measured are printed as well, with the
pass count and every pass time.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics (self times, counts) of the traced ones, plus the tracing overhead.

Warm-up: before the first pass, one untimed interpreter imports crprolong,
which writes its bytecode cache and loads the files into the OS page cache,
the state of an installed CLI.  Nothing computed survives into a timed pass.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A failed job counts in ``failed`` and
makes ``correct`` false; it never counts as a timing.  DESIGN.md describes
the workloads, the checks and the layer metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("report", "structure", "families", "fields")
MIN_PASSES = 3             # untraced passes per run
MIN_TRACED = 2             # traced passes per run with --trace 1
PASS_TIMEOUT_S = 120
RUN_LIMIT_S = 150          # start no pass after this; the run must end in 180 s

PER_LAYER = (
    ("model.validate_s", "s"), ("model.validate_calls", "count"),
    ("model.levi_s", "s"),
    ("prolong.total_s", "s"), ("prolong.build_s", "s"), ("prolong.steps", "count"),
    ("linalg.kernel_s", "s"), ("linalg.kernel_max_s", "s"),
    ("linalg.kernel_calls", "count"), ("linalg.kernel_rows", "count"),
    ("linalg.kernel_cols", "count"), ("linalg.kernel_nnz", "count"),
    ("linalg.kernel_dim", "count"),
    ("structure.sc_s", "s"), ("structure.pairs", "count"),
    ("structure.jacobi_s", "s"), ("structure.jacobi_triples", "count"),
    ("realize.s", "s"), ("realize.fields", "count"), ("realize.terms", "count"),
    ("poly.bracket_s", "s"), ("poly.brackets", "count"),
    ("verify.s", "s"), ("verify.fields", "count"), ("verify.tangent", "count"),
    ("verify.jet_s", "s"),
    ("cli.json_s", "s"), ("cli.json_bytes", "bytes"),
    ("cli.other_s", "s"), ("trace.overhead_s", "s"),
)


class PassFailed(Exception):
    pass


def run_pass(workload, seed, workdir, trace):
    """One worker process; returns (setup_s, result dict).  Untraced
    passes give their set-up time scaled to the reference host speed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir]
    if trace:
        cmd.append("--trace")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed(f"pass timed out after {PASS_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not ready.startswith('{"ready"'):
        raise PassFailed(f"worker exit code {proc.returncode}: {err.strip()[-500:]}")
    result = json.loads(out.strip().splitlines()[-1])["result"]
    ready = json.loads(ready)
    if not trace:
        result["setup_raw_s"] = setup_s - ready["probe_s"]
        setup_s = result["setup_raw_s"] * ready["speed"]
    return setup_s, result


def warm_up():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-c", "import crprolong.cli"], cwd=ROOT,
                   env=env, check=True, timeout=60)


def summary(name, values, unit):
    """Median, mean, sample count and the highest percentile with ten
    samples beyond it (none below 11 samples)."""
    vals = sorted(values)
    n = len(vals)
    text = (f"{name}: median {statistics.median(vals):.4f} {unit}, "
            f"mean {statistics.fmean(vals):.4f} {unit}, n={n}")
    if n >= 11:
        p = 100 * (n - 10) // n
        text += f", p{p} {vals[max(0, -(-p * n // 100) - 1)]:.4f} {unit}"
    else:
        text += ", no percentile with ten samples beyond it"
    text += "; passes " + " ".join(f"{v:.3f}" for v in values)
    return text


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "crprolong", "__init__.py")):
        print(f"error: no crprolong sources under {ROOT}/src", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return measure(args, workdir)
    except (PassFailed, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    warm_up()
    plain, traced, setups = [], [], []
    start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        enough = len(traced) >= MIN_TRACED if args.trace else len(plain) >= MIN_PASSES
        if enough and elapsed + last > args.seconds:
            break
        if elapsed > RUN_LIMIT_S:
            break
        t0 = time.perf_counter()
        setup_s, res = run_pass(args.workload, args.seed, workdir, trace=False)
        setups.append(setup_s)
        plain.append(res)
        if args.trace:
            _, res = run_pass(args.workload, args.seed, workdir, trace=True)
            if not res["restored"]:
                raise PassFailed("a traced function was not restored")
            if res["self_total_s"] > res["wall_s"]:
                raise PassFailed("layer self times exceed the traced wall time")
            traced.append(res)
        last = time.perf_counter() - t0

    passes = plain + traced
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    for r in passes:
        for reason in r["failures"]:
            print(f"FAILED: {reason}")
    wall = [r["wall_ref_s"] for r in plain]
    print(summary("wall_s", wall, "s"))
    print(summary("setup_s", setups, "s"))
    print(summary("wall_s as measured", [r["wall_s"] for r in plain], "s"))
    print(summary("setup_s as measured", [r["setup_raw_s"] for r in plain], "s"))
    for i, key in enumerate(plain[0]["jobs"]):
        ref = statistics.median(r["job_ref_s"][i] for r in plain)
        raw = statistics.median(r["job_s"][i] for r in plain)
        print(f"job {key}: median {ref:.4f} s, as measured {raw:.4f} s")
    if args.trace:
        metrics = layer_metrics(plain, traced, args)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(wall), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(plain, traced, args):
    """Medians over the traced passes; overhead and the unaccounted rest
    against the untraced passes of the same run."""
    wall = statistics.median(r["wall_s"] for r in plain)
    out = {}
    for name, unit in PER_LAYER:
        vals = [r["layers"].get(name, 0) for r in traced]
        # counts repeat exactly; keep them whole numbers
        middle = statistics.median if unit == "s" else statistics.median_low
        out[name] = {"value": middle(vals), "unit": unit}
    self_total = statistics.median(r["self_total_s"] for r in traced)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["cli.other_s"]["value"] = wall - self_total
    out["trace.overhead_s"]["value"] = traced_wall - wall
    write_trace(traced[-1], args)
    return out


def write_trace(res, args):
    """Spans and the per-degree kernel table of the last traced pass."""
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "jobs": res["jobs"],
                   "kernels": res["kernels"], "spans": res["spans"]}, fh)
    print(f"trace written to {os.path.relpath(path, ROOT)}")
    for rec in res["kernels"]:
        print("kernel job {job} degree {degree}: {rows} x {cols}, nnz {nnz}, "
              "kernel dim {kernel_dim}, {seconds:.4f} s".format(**rec))


if __name__ == "__main__":
    sys.exit(main())
