"""The four workloads: the jobs of one pass and the check of each output.

Every job goes through a public entry point: ``crprolong.cli.main`` for the
CLI workloads and the library API for ``fields``.  Catalog jobs are checked
against pinned digests of their exact output bytes; jobs on seeded models
(see transform.py) are checked against invariants that any equivalent model
must reproduce: dims profile, top degree, jet order, tangency, Jacobi triple
count and jet certificates.  ``references.json`` holds both kinds of
reference; ``pin.py`` regenerates it.

Workload sizes are chosen so one pass takes 2-7 seconds on a 2-core
machine, which lets a 30-second run take the median of several passes.
"""

import contextlib
import hashlib
import io
import json
import os
import random

from transform import transform_model

# seeded model name -> (z-shears, form shear).  Shears make the systems and
# fields denser, and their cost then varies with the seed: two z-shears and a
# form shear spread a codim5 report over 0.9-8.3 s, mostly in verify_hol, and
# a so_family(3) prolong over 0.17-0.53 s (one z-shear: 0.16-0.30 s), so the
# seeded models whose cost is a large share of a pass get fewer of them.
SEEDED = {
    "report": {"codim5": (0, False)},
    "structure": {"heisenberg+3": (2, True)},
    "families": {"so_family(3)": (1, True)},
    "fields": {"codim4": (0, False)},
}

CLI_JOBS = {
    "report": [
        ("catalog", ["report", "--json", "--catalog", "codim4"]),
        ("catalog", ["report", "--json", "--catalog", "codim5"]),
        ("catalog", ["report", "--json", "--catalog", "codim5", "--extra", "2"]),
        ("seeded", ["report", "--json", "codim5"]),
    ],
    "structure": [
        ("catalog", ["prolong", "--check-jacobi", "--structure", "--json",
                     "--catalog", "codim5"]),
        ("seeded", ["prolong", "--check-jacobi", "--structure", "--json",
                    "heisenberg+3"]),
    ],
    "families": [
        ("catalog", ["prolong", "--json", "--catalog", "so_family", "--n", "4"]),
        ("seeded", ["prolong", "--json", "so_family(3)"]),
    ],
}


def base_model(name):
    """Catalog model by the names used here: codim5+2, so_family(3), ..."""
    from crprolong import catalog
    if name.startswith("so_family("):
        return catalog.make_so_family(int(name[10:-1])).model
    base, _, extra = name.partition("+")
    return catalog.get(base, extra=int(extra or 0)).model


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def job_key(argv):
    return " ".join(argv)


def model_path(workdir, name):
    safe = name.replace("(", "_").replace(")", "").replace("+", "_plus")
    return os.path.join(workdir, f"seeded_{safe}.json")


# ---------------------------------------------------------------------------
# set-up: everything a pass needs before its first job
# ---------------------------------------------------------------------------

def setup(workload, seed, workdir, refs):
    """Write the seeded models and build the pass: a list of (job id,
    thunk), each thunk returning None when its output is right, else a
    one-line reason."""
    os.makedirs(workdir, exist_ok=True)
    seeded = {}
    for name, (shears, form_shear) in SEEDED[workload].items():
        model = transform_model(base_model(name), seed, shears, form_shear)
        path = model_path(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(model.to_json(), fh, sort_keys=True)
        seeded[name] = (model, path)
    if workload == "fields":
        return fields_jobs(fields_setup(seed, seeded, refs), refs)
    # catalog jobs build their own entry inside the CLI, as a user's would
    jobs = []
    for kind, argv in CLI_JOBS[workload]:
        if kind == "seeded":
            name = argv[-1]
            key = f"{job_key(argv[:-1])} seeded {name}"
            argv = argv[:-1] + [seeded[name][1]]
        else:
            name = key = job_key(argv)
        jobs.append((key, cli_job(kind, name, argv, refs)))
    return jobs


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

def run_cli(argv):
    from crprolong import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_job(kind, ref, argv, refs):
    def run():
        code, text, err = run_cli(argv)
        reason = check_cli(kind, ref, code, text, refs)
        return f"{reason} {err.strip()[:200]}".strip() if reason else None
    return run


def check_cli(kind, key, code, text, refs):
    """None when the output is right, else a one-line reason.  ``key`` names
    the pinned digest of a catalog job or the invariants of a seeded one."""
    if code != 0:
        return f"exit code {code}"
    if kind == "catalog":
        want = refs["digests"].get(key)
        got = digest(text)
        return None if got == want else f"digest {got[:12]} != pinned {str(want)[:12]}"
    inv = refs["invariants"][key]
    data = json.loads(text)
    problems = []
    if data.get("dims") != inv["dims"]:
        problems.append("dims")
    if data.get("top_degree") != inv["top_degree"]:
        problems.append("top_degree")
    if data.get("jet_order") != inv["jet_order"]:
        problems.append("jet_order")
    if "jacobi_triples_checked" in data and \
            data["jacobi_triples_checked"] != inv["jacobi_triples"]:
        problems.append("jacobi_triples")
    if "top_fields_verified" in data:
        tf = data["top_fields_verified"]
        if tf != {"count": inv["dims"][str(inv["top_degree"])], "all_tangent": True}:
            problems.append("top_fields_verified")
        for cert in ("counterexample_2jet", "sharpness"):
            got = data[cert]["certified"] if data.get(cert) else None
            if got != inv["report"][cert]:
                problems.append(cert)
        if not data["validation"]["all_passed"]:
            problems.append("validation")
    return ", ".join(problems) or None


# ---------------------------------------------------------------------------
# fields: a library sweep over realize, bracket and verify
# ---------------------------------------------------------------------------

def fields_setup(seed, seeded, refs):
    """Models plus the seeded coefficient vectors and bracket pairs.

    The dims profile is an invariant, so the inputs can be drawn from the
    pinned profile before anything is computed.  Draws are stratified: one
    combination per degree and one pair per degree pair, so every seed does
    the same amount of work of each kind.
    """
    from crprolong import catalog
    rng = random.Random(seed * 7919 + 1)
    models = [("codim5", "codim5", catalog.get("codim5").model)]
    models += [(f"seeded {base}", base, model)
               for base, (model, _) in seeded.items()]
    plan = []
    for name, base, model in models:
        dims = {int(d): v for d, v in refs["invariants"][base]["dims"].items()}
        top = max(dims)
        combos = {d: [rng.choice((-2, -1, 1, 2)) for _ in range(dims[d])]
                  for d in sorted(dims) if d >= 0}
        pairs = []
        for i in range(0, top + 1):
            for j in range(i, top + 1 - i):
                pairs.append((i, rng.randrange(dims[i]), j, rng.randrange(dims[j])))
        plan.append({"name": name, "model": model, "dims": dims, "top": top,
                     "jet_order": refs["invariants"][base]["jet_order"],
                     "combos": combos, "pairs": pairs})
    return plan


def fields_jobs(plan, refs):
    from crprolong import prolong, realize, verify

    want_digest = refs["digests"]["fields codim5 basis"]
    jobs = []
    for item in plan:
        name, model, dims = item["name"], item["model"], item["dims"]
        ctx = {}

        def do_prolong(item=item, ctx=ctx):
            ctx["result"] = prolong.prolong_full(item["model"])
            got = dict(ctx["result"].dims)
            return None if got == item["dims"] else f"dims {got}"
        jobs.append((f"{name} prolong", do_prolong))

        for d in sorted(dims):
            def do_basis(d=d, item=item, ctx=ctx):
                fields = realize.realize_basis(ctx["result"], d)
                ctx.setdefault("basis", {})[d] = fields
                if len(fields) != item["dims"][d]:
                    return f"{len(fields)} fields"
                bad = [i for i, f in enumerate(fields)
                       if not verify.verify_hol(f, item["model"]).verdict]
                return f"not tangent: {bad}" if bad else None
            jobs.append((f"{name} basis {d}", do_basis))

        for d, coeffs in item["combos"].items():
            def do_element(d=d, coeffs=coeffs, item=item, ctx=ctx):
                field = realize.realize_element(ctx["result"].algebra, d, coeffs)
                basis = ctx["basis"][d]
                want = basis[0] * coeffs[0]
                for c, f in zip(coeffs[1:], basis[1:]):
                    want = want + f * c
                if field != want:
                    return "not the combination of the basis fields"
                if not verify.verify_hol(field, item["model"]).verdict:
                    return "not tangent"
                return None
            jobs.append((f"{name} element {d}", do_element))

        for i, a, j, b in item["pairs"]:
            def do_bracket(i=i, a=a, j=j, b=b, item=item, ctx=ctx):
                f = ctx["basis"][i][a].bracket(ctx["basis"][j][b])
                if not f.is_zero() and f.weighted_degree() != i + j:
                    return f"weighted degree {f.weighted_degree()}"
                if not verify.verify_hol(f, item["model"]).verdict:
                    return "not tangent"
                return None
            jobs.append((f"{name} bracket {i}.{a},{j}.{b}", do_bracket))

        if name == "codim5":
            def do_jets(item=item, ctx=ctx):
                top = ctx["basis"][item["top"]][0]
                sharp = verify.jet_certificate(top, item["model"], item["jet_order"] - 1)
                two = verify.jet_certificate(top, item["model"], 2)
                return None if sharp.certified and two.certified else "jet certificate"
            jobs.append((f"{name} jets", do_jets))

            def do_digest(ctx=ctx):
                text = json.dumps({str(d): [f.to_json() for f in fs]
                                   for d, fs in sorted(ctx["basis"].items())},
                                  sort_keys=True)
                return None if digest(text) == want_digest else "basis digest"
            jobs.append((f"{name} basis digest", do_digest))
    return jobs


def load_references():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
