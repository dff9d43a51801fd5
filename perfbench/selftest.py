"""Self-tests of the benchmark's own parts.

    python3 perfbench/selftest.py

1. The seeded change of coordinates keeps the algebra: for several seeds on
   heisenberg and codim4 the transformed model validates, and its dims
   profile, top degree and jet order equal the original's.
2. The tracer: on a small traced run of every layer, the self times sum to
   no more than the traced wall time, every patched function is restored
   afterwards, and the per-layer names match BENCHMARK.json.
3. The host speed sampler: it probes while work runs, takes the probes' time
   out, scales the rest, and puts the old SIGALRM handler back.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import signal
import sys
import time

import hostspeed
import worker
worker._import_package()

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from transform import transform_model  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1, 2, 3)


def check_transform():
    from crprolong.prolong import prolong_full
    failures = []
    for name in ("heisenberg", "codim4"):
        base = workloads.base_model(name)
        want = prolong_full(base, use_cache=False)
        changed = 0
        for seed in SEEDS:
            model = transform_model(base, seed, shears=2)
            changed += model != base
            if not model.validate().all_passed:
                failures.append(f"{name} seed {seed}: does not validate")
                continue
            got = prolong_full(model, use_cache=False)
            for key in ("dims", "top_degree", "jet_order"):
                if getattr(got, key) != getattr(want, key):
                    failures.append(f"{name} seed {seed}: {key} {getattr(got, key)}")
        if not changed:
            failures.append(f"{name}: no seed changed the model")
        if transform_model(base, 5) != transform_model(base, 5):
            failures.append(f"{name}: the same seed gave different models")
    return failures


def check_tracer():
    from crprolong import catalog, prolong, realize, verify
    failures = []
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer:
        tracer.job = 0
        workloads.run_cli(["report", "--json", "--catalog", "heisenberg"])
        tracer.job = 1
        workloads.run_cli(["prolong", "--check-jacobi", "--structure", "--json",
                           "--catalog", "heisenberg", "--extra", "1"])
        tracer.job = 2
        model = catalog.get("heisenberg").model
        result = prolong.prolong_full(model, use_cache=False)
        fields = realize.realize_basis(result, 1)
        f = fields[0].bracket(fields[1])
        verify.verify_hol(f, model)
        verify.jet_certificate(f, model, 1)
    wall = time.perf_counter() - t0
    if not tracer.originals_restored():
        failures.append("a patched function was not restored")
    if tracer.self_total() > wall:
        failures.append(f"self times {tracer.self_total():.6f} s exceed wall {wall:.6f} s")
    if any(t < 0 for t in tracer.self_times()):
        failures.append("a negative self time")
    layers = tracer.layer_metrics()
    derived = {"cli.other_s", "trace.overhead_s"}
    missing = [name for name, _ in run.PER_LAYER
               if name not in derived and name not in layers]
    if missing:
        failures.append(f"layers not recorded: {missing}")
    if not tracer.kernel_records():
        failures.append("no kernel records")
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    if declared != list(run.PER_LAYER):
        failures.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    return failures


def check_sampler():
    failures = []
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler().start()
    a = time.perf_counter()
    while time.perf_counter() - a < 1.0:
        sum(i * i for i in range(1000))
    b = time.perf_counter()
    sampler.stop()
    if signal.getsignal(signal.SIGALRM) is not before:
        failures.append("the SIGALRM handler was not restored")
    if len(sampler.samples) < 4:
        failures.append(f"{len(sampler.samples)} probes in 1 s")
    probes = sampler.probe_time(a, b)
    if not 0 < probes < (b - a) / 2:
        failures.append(f"probe time {probes:.4f} s in {b - a:.4f} s")
    # the scaled time is the program time times REF_PROBE_S over a probe time
    durs = [e - s for s, e in sampler.samples]
    lo = (b - a - probes) * hostspeed.REF_PROBE_S / max(durs)
    hi = (b - a - probes) * hostspeed.REF_PROBE_S / min(durs)
    if not lo * 0.999 <= sampler.scaled(a, b) <= hi * 1.001:
        failures.append(f"scaled time {sampler.scaled(a, b):.4f} s not in "
                        f"[{lo:.4f}, {hi:.4f}] s")
    return failures


def main():
    failures = check_transform() + check_tracer() + check_sampler()
    for f in failures:
        print(f"FAIL: {f}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
