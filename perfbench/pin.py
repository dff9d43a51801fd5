"""Regenerate references.json from the code in src/.

    python3 perfbench/pin.py

Pins the sha256 of the exact output bytes of every catalog job, and the
invariants that the seeded jobs must reproduce, taken from the catalog
model each seeded model is derived from.  Run it only when an output is
meant to change, and say why in CHANGES.md.
"""

import json
import os
import sys

import worker
worker._import_package()

import workloads  # noqa: E402


def main():
    from crprolong import catalog
    from crprolong.prolong import prolong_full
    from crprolong.realize import realize_basis

    refs = {"digests": {}, "invariants": {}}
    for jobs in workloads.CLI_JOBS.values():
        for kind, argv in jobs:
            if kind != "catalog":
                continue
            code, text, err = workloads.run_cli(argv)
            if code != 0:
                raise SystemExit(f"{argv}: exit code {code}: {err}")
            refs["digests"][workloads.job_key(argv)] = workloads.digest(text)

    for names in workloads.SEEDED.values():
        for name in names:
            model = workloads.base_model(name)
            result = prolong_full(model)
            inv = {"dims": {str(d): v for d, v in sorted(result.dims.items())},
                   "top_degree": result.top_degree,
                   "jet_order": result.jet_order,
                   "jacobi_triples": result.algebra.check_jacobi()}
            os.makedirs(os.path.join(worker.HERE, "_work"), exist_ok=True)
            path = os.path.join(worker.HERE, "_work", "pin_model.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(model.to_json(), fh)
            code, text, err = workloads.run_cli(["report", "--json", path])
            if code != 0:
                raise SystemExit(f"report {name}: exit code {code}: {err}")
            data = json.loads(text)
            inv["report"] = {c: data[c]["certified"] if data[c] else None
                             for c in ("counterexample_2jet", "sharpness")}
            refs["invariants"][name] = inv

    result = prolong_full(catalog.get("codim5").model)
    basis = {str(d): [f.to_json() for f in realize_basis(result, d)]
             for d in sorted(result.dims)}
    refs["digests"]["fields codim5 basis"] = workloads.digest(
        json.dumps(basis, sort_keys=True))

    out = os.path.join(worker.HERE, "references.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
