"""Span tracing of crprolong's layers, installed from outside the package.

``Tracer.install()`` replaces public functions and methods of the crprolong
modules by wrappers that record one span per call (name, start, end,
parent span, job id) and a few counts; ``restore()`` puts every original
back.  Spans stay in memory until the pass ends.  A layer's self time is
the duration of its spans minus the part covered by their child spans.
"""

import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, job, info]
        self.counts = {"structure.pairs": 0}
        self.job = None
        self._stack = []
        self._patched = []       # (owner, attribute, original)

    # -- recording -----------------------------------------------------------
    def call(self, name, fn, args, kwargs, after=None, before=None):
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self.job, {}]
        if before is not None:
            before(span[5])
        idx = len(self.spans)
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if after is not None:
            after(span[5], args, kwargs, out)
        return out

    def _wrap(self, owner, attr, name, after=None, counter=None, before=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        tracer = self
        if counter is not None:
            def wrapper(*args, **kwargs):
                tracer.counts[counter] += 1
                return original(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, original, args, kwargs, after, before)
        setattr(owner, attr, wrapper)

    # -- installation ----------------------------------------------------------
    def install(self):
        from crprolong import cli, model, prolong, realize, verify
        from crprolong.poly import PolyVectorField

        def kernel_info(info, args, kwargs, out):
            rows, ncols = args
            info.update(rows=len(rows), cols=ncols,
                        nnz=sum(len(r) for r in rows), dim=len(out))

        def step_info(info, args, kwargs, out):
            info["degree"] = args[2] if len(args) > 2 else 0

        def jacobi_info(info, args, kwargs, out):
            info["triples"] = out

        def fields_info(info, args, kwargs, out):
            fields = out if isinstance(out, list) else [out]
            info["fields"] = len(fields)
            info["terms"] = sum(len(p.terms) for f in fields
                                for p in (*f.z_comps, *f.w_comps))

        def verify_info(info, args, kwargs, out):
            info["tangent"] = bool(out.verdict)

        # the CLI jobs write to an in-memory stdout; its growth is the output
        def emit_start(info):
            info["pos"] = sys.stdout.tell()

        def emit_info(info, args, kwargs, out):
            info["bytes"] = sys.stdout.tell() - info.pop("pos")

        wrap = self._wrap
        wrap(model.QuadricModel, "validate", "model.validate")
        for owner in (model, cli):
            wrap(owner, "tumanov_search", "model.validate")
        wrap(prolong, "build_levi_tanaka", "model.levi")
        for owner in (prolong, cli):
            wrap(owner, "prolong_full", "prolong.total")
        wrap(prolong, "compute_g0", "prolong.build", step_info)
        wrap(prolong, "prolong_step", "prolong.build", step_info)
        wrap(prolong, "sparse_int_nullspace", "linalg.kernel", kernel_info)
        wrap(prolong.GradedLieAlgebra, "structure_constants", "structure.sc")
        wrap(prolong.GradedLieAlgebra, "_bracket_pair", None,
             counter="structure.pairs")
        wrap(prolong.GradedLieAlgebra, "check_jacobi", "structure.jacobi",
             jacobi_info)
        wrap(prolong.ProlongationResult, "to_json", "cli.json")
        wrap(cli, "_emit", "cli.json", emit_info, before=emit_start)
        # realize_basis is realize_element per basis vector: only the inner
        # calls carry field counts
        for owner in (realize, cli):
            wrap(owner, "realize_basis", "realize")
        wrap(realize, "realize_element", "realize", fields_info)
        wrap(PolyVectorField, "bracket", "poly.bracket")
        for owner in (verify, cli):
            wrap(owner, "verify_hol", "verify", verify_info)
            wrap(owner, "jet_certificate", "verify.jet")
        return self

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis ----------------------------------------------------------------
    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def layer_metrics(self):
        own = self.self_times()
        m = {}

        def add(key, value):
            m[key] = m.get(key, 0) + value

        for span, t in zip(self.spans, own):
            name, start, end, _, _, info = span
            if name == "model.validate":
                add("model.validate_s", t)
                add("model.validate_calls", 1)
            elif name == "model.levi":
                add("model.levi_s", t)
            elif name == "prolong.total":
                add("prolong.total_s", end - start)
                add("prolong.self_s", t)
            elif name == "prolong.build":
                add("prolong.build_s", t)
                add("prolong.steps", 1)
            elif name == "linalg.kernel":
                add("linalg.kernel_s", t)
                add("linalg.kernel_calls", 1)
                m["linalg.kernel_max_s"] = max(m.get("linalg.kernel_max_s", 0.0),
                                               end - start)
                for key in ("rows", "cols", "nnz", "dim"):
                    add("linalg.kernel_" + key, info[key])
            elif name == "structure.sc":
                add("structure.sc_s", t)
            elif name == "structure.jacobi":
                add("structure.jacobi_s", t)
                add("structure.jacobi_triples", info["triples"])
            elif name == "realize":
                add("realize.s", t)
                add("realize.fields", info.get("fields", 0))
                add("realize.terms", info.get("terms", 0))
            elif name == "poly.bracket":
                add("poly.bracket_s", t)
                add("poly.brackets", 1)
            elif name == "verify":
                add("verify.s", t)
                add("verify.fields", 1)
                add("verify.tangent", int(info["tangent"]))
            elif name == "verify.jet":
                add("verify.jet_s", t)
            elif name == "cli.json":
                add("cli.json_s", t)
                add("cli.json_bytes", info.get("bytes", 0))
        m["structure.pairs"] = self.counts["structure.pairs"]
        return m

    def self_total(self):
        return sum(self.self_times())

    def kernel_records(self):
        """ROADMAP item 1's system-size table: one record per kernel call."""
        out = []
        for span in self.spans:
            if span[0] != "linalg.kernel":
                continue
            parent = self.spans[span[3]] if span[3] is not None else None
            degree = parent[5].get("degree") if parent else None
            info = span[5]
            out.append({"job": span[4], "degree": degree, "rows": info["rows"],
                        "cols": info["cols"], "nnz": info["nnz"],
                        "kernel_dim": info["dim"],
                        "seconds": round(span[2] - span[1], 6)})
        return out

    def originals_restored(self):
        """True when every patched attribute holds its original again."""
        return all(getattr(owner, attr) is original
            for owner, attr, original in self._patched)
