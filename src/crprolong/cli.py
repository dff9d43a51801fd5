"""Command-line interface: validate, prolong, realize, verify, report, catalog.

Exit codes: 0 success; 1 domain failure (invalid or degenerate model, failed
verification); 2 input/parse error; 3 internal consistency failure or a
degree cap too low for the prolongation to terminate.  All JSON
output is deterministic: sorted keys, no timing data unless --timing is given
(and then only in a section that certificates do not cover).
"""

import argparse
import json
import sys
import time
from itertools import chain

from . import catalog as _catalog
from .errors import (AlgebraError, CRProlongError, DimensionError, InputError,
                     InternalCheckError, NonterminationError, ValidationError)
from .model import QuadricModel, tumanov_search
from .poly import PolyVectorField
from .prolong import prolong_full
from .realize import realize_basis
from .scalars import json_int
from .verify import jet_certificate, verify_hol


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_model(args):
    """Model from a positional file or --catalog NAME, plus a display name.
    A catalog family fails here, before any form is built, if --max-degree is
    not above its top degree (a negative cap is left to the input check of
    prolong_full)."""
    if args.catalog:
        family = _catalog.family_top(args.catalog, args.n, args.m)
        cap = getattr(args, "max_degree", -1)
        if family and 0 <= cap <= family[1]:
            name, top = family
            raise NonterminationError(
                f"{name} has top degree {top}, so its prolongation needs "
                f"--max-degree {top + 1} or more (got {cap})")
        entry = _catalog.get(args.catalog, n=args.n, m=args.m, extra=args.extra)
        return entry.model, entry.name
    if not args.model:
        raise InputError("provide a model file or --catalog NAME")
    data = _read_json(args.model)
    return QuadricModel.from_json(data), args.model


def _write(path, pieces):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


_ESCAPE = json.encoder.encode_basestring_ascii


def _json_key(key):
    """A dict key as ``json`` writes it: str kept, int, float, bool and None
    as their JSON scalars."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_pieces(value, indent="\n"):
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``, in pieces:
    one per dict entry and per member of a list of containers, so the text of
    a whole container is never built.

    With an indent the stdlib falls back from its C encoder to a pure-Python
    generator per value; here a list of strings is one piece, one
    ``str.join`` over the C string escaper, and the scalars go through
    ``json.dumps`` itself."""
    inner = indent + "  "
    if isinstance(value, str):
        yield _ESCAPE(value)
    elif not isinstance(value, (list, tuple, dict)):
        yield json.dumps(value)
    elif not value:
        yield "{}" if isinstance(value, dict) else "[]"
    elif isinstance(value, dict):
        lead = "{" + inner
        for k, v in sorted(value.items()):
            yield lead + _ESCAPE(_json_key(k)) + ": "
            yield from _json_pieces(v, inner)
            lead = "," + inner
        yield indent + "}"
    else:
        try:
            yield "[" + inner + ("," + inner).join(map(_ESCAPE, value)) + indent + "]"
        except TypeError:           # not a list of strings only
            lead = "[" + inner
            for x in value:
                yield lead
                yield from _json_pieces(x, inner)
                lead = "," + inner
            yield indent + "]"


def _emit(args, data, text_lines):
    """Write ``data`` as JSON (with --json, or when there are no text lines)
    or the text lines, then a newline, to --out or stdout.  The JSON goes out
    piece by piece, so its whole text is never held."""
    if args.json or not text_lines:
        pieces = chain(_json_pieces(data), ("\n",))
    else:
        pieces = ("\n".join(text_lines) + "\n",)
    if args.out:
        _write(args.out, pieces)
    else:
        sys.stdout.writelines(pieces)


def _fmt_witness(vec):
    return "(" + ", ".join(str(c) for c in vec) + ")"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _validation(model):
    """Validation report, Tumanov witness and the verdict `validate` and
    `report` share: every check passes and a witness exists."""
    report = model.validate()
    witness = tumanov_search(model) if all(report.hermitian_ok) else None
    return report, witness, report.all_passed and witness is not None


def cmd_validate(args) -> int:
    model, name = _load_model(args)
    report, witness, passed = _validation(model)
    data = report.to_json()
    data["tumanov_witness"] = list(witness) if witness else None
    lines = [f"model: {name} (n={model.n}, k={model.k})"]
    for j, ok in enumerate(report.hermitian_ok):
        if not ok:
            lines.append(f"matrix {j + 1}: NOT hermitian")
    lines.append(f"hermitian: {'ok' if all(report.hermitian_ok) else 'FAIL'}")
    lines.append(f"linearly independent: {'ok' if report.independent else 'FAIL'}")
    lines.append(f"trivial common kernel: {'ok' if report.common_kernel_trivial else 'FAIL'}")
    definite = report.definite_combination
    lines.append("definite combination: "
                 + (f"{_fmt_witness(definite)} (no common null direction)" if definite
                    else "none found"))
    lines.append("tumanov witness: "
                 + (_fmt_witness(witness) if witness else "none within bound"))
    lines.append(f"validation: {'PASS' if passed else 'FAIL'}")
    _emit(args, data, lines)
    return 0 if passed else 1


def cmd_prolong(args) -> int:
    model, name = _load_model(args)
    t0 = time.perf_counter()
    result = prolong_full(model, max_degree=args.max_degree)
    if args.structure:
        result.algebra.structure_constants()
    jacobi_count = None
    if args.check_jacobi:
        jacobi_count = result.algebra.check_jacobi()
    elapsed = time.perf_counter() - t0
    data = result.to_json(include_structure=args.structure)
    if jacobi_count is not None:
        data["jacobi_triples_checked"] = jacobi_count
    if args.timing:
        data["timing_seconds"] = round(elapsed, 3)
    dims = result.dims
    lines = [f"model: {name} (n={model.n}, k={model.k})",
             "dims by degree: " + " ".join(f"{d}:{dims[d]}" for d in sorted(dims)),
             f"algebra dimension: {sum(dims.values())}",
             f"top degree: {result.top_degree}",
             f"jet order: {result.jet_order}"]
    if jacobi_count is not None:
        lines.append(f"jacobi identity: verified on {jacobi_count} basis triples")
    if args.timing:
        lines.append(f"elapsed: {elapsed:.3f}s")
    _emit(args, data, lines)
    return 0


def cmd_realize(args) -> int:
    model, _ = _load_model(args)
    result = prolong_full(model, max_degree=args.max_degree)
    b = args.degree
    if b not in result.dims:
        raise InputError(f"degree {b} not present; computed degrees "
                         f"{min(result.dims)}..{result.top_degree}")
    fields = realize_basis(result, b)
    data = {"degree": b, "dimension": len(fields),
            "fields": [f.to_json() for f in fields]}
    lines = [f"degree {b}: {len(fields)} basis field(s)"]
    lines.extend(f"  [{i}] {f.text()}" for i, f in enumerate(fields))
    _emit(args, data, lines)
    return 0


def cmd_verify(args) -> int:
    model, _ = _load_model(args)
    raw = _read_json(args.field)
    try:
        frame = json_int(raw["n"]), json_int(raw["k"])
    except (KeyError, ValueError, TypeError):
        frame = None        # from_json names what is malformed
    # compared before from_json allocates n + k polynomials
    if frame not in (None, (model.n, model.k)):
        raise DimensionError("field and model have different (n, k)")
    field = PolyVectorField.from_json(raw)
    cert = verify_hol(field, model)
    data = cert.to_json()
    lines = [f"tangency verdict: {'true' if cert.verdict else 'false'}"]
    if not cert.verdict:
        lines.append("residuals:")
        lines.extend(f"  [{j + 1}] {r.text()}" for j, r in enumerate(cert.residuals)
                     if not r.is_zero())
    _emit(args, data, lines)
    return 0 if cert.verdict else 1


def cmd_report(args) -> int:
    model, name = _load_model(args)
    timing = {}
    t0 = time.perf_counter()
    vreport, witness, passed = _validation(model)
    timing["validate"] = time.perf_counter() - t0
    if not passed:
        raise ValidationError("model failed validation; no report generated")

    t0 = time.perf_counter()
    result = prolong_full(model, max_degree=args.max_degree)
    timing["prolong"] = time.perf_counter() - t0
    dims = result.dims
    top = result.top_degree
    jo = result.jet_order

    t0 = time.perf_counter()
    top_fields = realize_basis(result, top) if top >= 1 else []
    certs = [verify_hol(f, model) for f in top_fields]
    all_tangent = all(c.verdict for c in certs)
    timing["realize_verify"] = time.perf_counter() - t0

    counterexample = None
    sharp = None
    if top > 2 and top_fields:
        # the witness with the deepest vanishing at 0, verified once above
        field, cert = max(zip(top_fields, certs),
                          key=lambda fc: fc[0].ordinary_vanishing_order() or 0)
        counterexample = jet_certificate(field, model, 2, cert)
        sharp = jet_certificate(field, model, jo - 1, cert)

    data = {
        "model": {"name": name, "n": model.n, "k": model.k},
        "validation": vreport.to_json(),
        "tumanov_witness": list(witness) if witness else None,
        "dims": {str(d): dims[d] for d in sorted(dims)},
        "algebra_dimension": sum(dims.values()),
        "top_degree": top,
        "jet_order": jo,
        "top_fields_verified": {"count": len(top_fields), "all_tangent": all_tangent},
        "counterexample_2jet": counterexample.to_json() if counterexample else None,
        "sharpness": sharp.to_json() if sharp else None,
    }
    if args.timing:
        data["timing_seconds"] = {k: round(v, 3) for k, v in timing.items()}

    lines = [f"model: {name} (n={model.n}, k={model.k})",
             "validation: PASS"
             + (f" (tumanov witness {_fmt_witness(witness)})" if witness else ""),
             "dims by degree: " + " ".join(f"{d}:{dims[d]}" for d in sorted(dims)),
             f"algebra dimension: {sum(dims.values())}",
             f"top degree: {top}",
             f"jet order: {jo} -- the model is {jo}-jet determined"]
    if top_fields:
        lines.append(f"top-degree fields: {len(top_fields)} realized, "
                     + ("all verified tangent" if all_tangent else "TANGENCY FAILURE"))
    if counterexample and counterexample.certified:
        line = ("conclusion: nontrivial automorphism with vanishing 2-jet; "
                f"{jo}-jet determination")
        if sharp and sharp.certified:
            line += (f" is sharp (a tangent field vanishes to order "
                     f"{sharp.vanishing_order}, so {jo - 1}-jets do not determine)")
        lines.append(line)
    else:
        lines.append(f"conclusion: no automorphism with vanishing 2-jet; "
                     f"{jo}-jet determination")
    if args.timing:
        lines.append("elapsed: " + " ".join(f"{k}={v:.3f}s" for k, v in timing.items()))
    _emit(args, data, lines)
    return 0 if all_tangent else 3


def cmd_catalog(args) -> int:
    if not args.export:
        lines = []
        for name in _catalog.names():
            if name in ("so_family", "su_family"):
                flag = "--n N (N>=3)" if name == "so_family" else "--m M (M>=2)"
                lines.append(f"{name:12s} parametric family; requires {flag}")
            else:
                lines.append(f"{name:12s} {_catalog.get(name).description}")
        _emit(args, {"entries": _catalog.names()}, lines)
        return 0
    entries = [_catalog.get(n) for n in ("codim5", "codim4", "heisenberg")]
    if args.n is not None:
        entries.append(_catalog.make_so_family(args.n))
    if args.m is not None:
        entries.append(_catalog.make_su_family(args.m))
    import os
    try:
        os.makedirs(args.export, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {args.export}: {exc}") from exc
    written = []
    for entry in entries:
        base = entry.name.replace("(", "_").replace(")", "").replace("=", "")
        path = f"{args.export}/{base}_model.json"
        _write(path, _json_pieces(entry.model.to_json()))
        written.append(path)
        for fname, field in entry.known_fields.items():
            path = f"{args.export}/{base}_field_{fname}.json"
            _write(path, _json_pieces(field.to_json()))
            written.append(path)
    _emit(args, {"written": written}, [f"wrote {p}" for p in written])
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_model_source(p):
    p.add_argument("model", nargs="?", help="model JSON file")
    p.add_argument("--catalog", help="built-in model name (see `catalog`)")
    p.add_argument("--n", type=int, help="parameter for so_family")
    p.add_argument("--m", type=int, help="parameter for su_family")
    p.add_argument("--extra", type=int, default=0,
                   help="extend the model by this many sphere directions")


def _add_output(p):
    p.add_argument("--json", action="store_true", help="JSON output (default: text)")
    p.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crprolong",
        description="Exact symmetry computations for quadric CR models: "
                    "validation, Tanaka prolongation, vector-field realization, "
                    "tangency verification, jet-determination reports.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the defining matrices of a model")
    _add_model_source(p)
    _add_output(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("prolong", help="compute the graded symmetry algebra")
    _add_model_source(p)
    _add_output(p)
    p.add_argument("--max-degree", type=int, default=12,
                   help="termination cap for the degree loop (default 12)")
    p.add_argument("--check-jacobi", action="store_true",
                   help="verify the Jacobi identity on all basis triples")
    p.add_argument("--structure", action="store_true",
                   help="include structure constants in JSON output")
    p.add_argument("--timing", action="store_true", help="include wall-clock timing")
    p.set_defaults(func=cmd_prolong)

    p = sub.add_parser("realize", help="realize a degree slice as vector fields")
    _add_model_source(p)
    _add_output(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=12)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("verify", help="check a field for tangency to a model")
    _add_model_source(p)
    _add_output(p)
    p.add_argument("--field", required=True, help="field JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="full pipeline with jet-determination verdict")
    _add_model_source(p)
    _add_output(p)
    p.add_argument("--max-degree", type=int, default=12)
    p.add_argument("--timing", action="store_true", help="include wall-clock timing")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("catalog", help="list or export the built-in models")
    p.add_argument("--export", help="write model/field JSON files to this directory")
    p.add_argument("--n", type=int, help="also export so_family(n)")
    p.add_argument("--m", type=int, help="also export su_family(m)")
    _add_output(p)
    p.set_defaults(func=cmd_catalog)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonterminationError as exc:
        print(f"degree cap too low: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except CRProlongError as exc:  # any other domain error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
