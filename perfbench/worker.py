"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR [--trace]

A fresh process per pass means no module-level cache of crprolong (the
prolongation memo, lazily filled structure constants) carries over from an
earlier pass, and ``ru_maxrss`` describes this pass alone.  The worker
writes two JSON lines to stdout: ``{"ready": ...}`` once set-up is done
(import, catalog entries, seeded inputs written), then ``{"result": ...}``.

An untraced pass samples the host speed throughout (hostspeed.py) and
reports its set-up and job times both as measured, with the probes' own time
taken out, and scaled to the reference speed.  A traced pass does not
sample, so that no probe lands inside a span.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_package():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import crprolong
    if not os.path.abspath(crprolong.__file__).startswith(src + os.sep):
        raise SystemExit(f"crprolong imported from {crprolong.__file__}, not {src}")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    proto = sys.stdout
    sampler = None if args.trace else hostspeed.Sampler().start()

    _import_package()
    import workloads
    refs = workloads.load_references()
    jobs = workloads.setup(args.workload, args.seed, args.workdir, refs)
    ready = {"ready": len(jobs)}
    if sampler is not None:
        sampler.tick()
        durs = [e - s for s, e in sampler.samples]
        ready["probe_s"] = sum(durs)
        ready["speed"] = hostspeed.REF_PROBE_S / statistics.median(durs)
    print(json.dumps(ready), file=proto, flush=True)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer().install()
    failures = []
    intervals = []
    t0 = time.perf_counter()
    try:
        for job_id, (key, thunk) in enumerate(jobs):
            if tracer is not None:
                tracer.job = job_id
            t1 = time.perf_counter()
            try:
                reason = thunk()
            except Exception as exc:  # a crash is a failed job, not a dead pass
                reason = f"{type(exc).__name__}: {exc}"
            intervals.append((t1, time.perf_counter()))
            if reason:
                failures.append(f"{key}: {reason}")
    finally:
        t_end = time.perf_counter()
        wall = t_end - t0
        if tracer is not None:
            tracer.restore()
        if sampler is not None:
            sampler.stop()
    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures[:10],
        "job_s": [b - a for a, b in intervals],
        "jobs": [key for key, _ in jobs],
    }
    if sampler is not None:
        # probes are taken out of the times as measured, too
        result["wall_s"] = wall - sampler.probe_time(t0, t_end)
        result["wall_ref_s"] = sampler.scaled(t0, t_end)
        result["job_s"] = [b - a - sampler.probe_time(a, b) for a, b in intervals]
        result["job_ref_s"] = [sampler.scaled(a, b) for a, b in intervals]
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["self_total_s"] = tracer.self_total()
        result["restored"] = tracer.originals_restored()
        result["kernels"] = tracer.kernel_records()
        result["spans"] = [[s[0], s[1] - t0, s[2] - t0, s[3], s[4]]
                           for s in tracer.spans]
    print(json.dumps({"result": result}), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
