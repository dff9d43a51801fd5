"""Golden outputs: sha256 digests of exact CLI output bytes.

These pin the canonical bases and the structure constants byte for byte,
so any refactor of the prolongation or of the bracket computation must
reproduce them exactly.  Regenerating a digest is an intended change of
output and needs an entry in CHANGES.md that says why.
"""

import contextlib
import hashlib
import io
import json
import pathlib
from fractions import Fraction

import pytest

from crprolong import catalog
from crprolong.cli import main
from crprolong.model import QuadricModel
from crprolong.prolong import prolong_full
from crprolong.scalars import GR_I, GaussianRational
from helpers import Poly, codim4_display_variant, poly_field

GOLDEN = {
    "prolong --check-jacobi --structure --json --catalog heisenberg":
        "8463056276262c9bb9ce84621fa3789c05c5ec9b9921fd131e59f9e34d6cc7a6",
    "prolong --check-jacobi --structure --json --catalog codim4":
        "ffb6ed4db06a0a9cbd4aaf5e011841fff684ba0935854548cdf7359701f0f1dd",
    "prolong --check-jacobi --structure --json --catalog codim5":
        "e51810e61da30dbc39b34f86f96eaee2bb7f0aa2d96860ecb917b7355f645be0",
    "report --json --catalog codim5":
        "cf019eb5e31d6092f70e5f38ba3e263541bee30855128fea47bdf030b3cb35a9",
    "report --json --catalog heisenberg":
        "8656223a67eb3d9a299eb0bd14d48e962ae5eafbacb0e445f2d01cb9dea0b1b1",
    "report --json --catalog codim4":
        "db346ad29ca8e5afd997c9e03755218702b0ac10430c779e5dc5101811ba9f5b",
    # the capped definite search (k = 9) and a Tumanov search over 15,781
    # candidates
    "report --json --catalog codim5 --extra 4":
        "704930d6d6828f2bfe1e2665df4e6c400e786d141d9c916ca5b24f766f664e23",
    "realize --degree 6 --json --catalog codim5":
        "2cafa3db208dd330558d33ca429f580232d5e01b3498e94214b227228a44ed6f",
    # so_family(3) is the codim4 quadric, so these are the codim4 bytes
    # reached through the family's own catalog path
    "prolong --check-jacobi --structure --json --catalog so_family --n 3":
        "ffb6ed4db06a0a9cbd4aaf5e011841fff684ba0935854548cdf7359701f0f1dd",
    # the largest output the suite writes (26 MB) and the only --structure
    # output with many blocks per system
    "prolong --check-jacobi --structure --json --catalog so_family --n 4":
        "ad72cc7773ebf790eeea7ef4626fa53e7ef96bdd45831ff829170d1c2b33b4a3",
}

# sha256 of repr(sorted(pieces.items())) of a prolongation, keyed by family
# and parameter: every canonical basis of systems with many blocks
# (so_family(4): 216 blocks in its largest system, of at most 36 columns),
# without the structure constants and 26 MB of a --structure run.
# so_family(5), so_family(6) and su_family(3) add wider blocks with many
# dependent rows.
GOLDEN_PIECES = {
    ("so_family", 4): "3fca888e77aff344d12ec2852df1b491688e28beed1c209bc32a5df2899b5e47",
    ("so_family", 5): "034f19b0802aad760961c4a09238539880407686d3fdae756955b42dd309bcb3",
    ("so_family", 6): "02869a29bad6d2bc3ab7fe0e6579795cc452bb23359cf62e880c7931f4b23eb1",
    ("su_family", 3): "3e90ecffe28f551054717429363049631dccdc18bb546ea912f4886f93b27f3c",
}

# sha256 of the reprs of sorted(structure_constants().items()), hashed item by
# item: the constants of the largest model the suite runs, whose --structure
# JSON is 26 MB
GOLDEN_CONSTANTS = {
    4: "4e9e8ff441fc8a6d18ecf1572ba0765e610bfa6d6514ed7c216823fd71a304d1",
}


def _q(re, im=0):
    """The Gaussian rational re + i im, from (numerator, denominator) pairs."""
    return GaussianRational(Fraction(*re) if re else 0, Fraction(*im) if im else 0)


# a form with denominators 2, 3 and 6
_MIXED = [[_q((1, 2)), _q(0, (1, 3))], [_q(0, (-1, 3)), _q((1, 6))]]

# validate --json on failing models: (forms, witness key, witness, digest).
# The last two have forms with denominators other than 1, so they pin the
# scaling of the forms to integers.
GOLDEN_VALIDATE = {
    # one rank-one form; its kernel is spanned by (-i, 1)
    "kernel": ([[[1, GR_I], [-GR_I, 1]]], "kernel_witness", ["(0)+(-1)i", "(1)+(0)i"],
               "fc6b447bcb7b450083b7975ce90e96eb7fcebdda10ea4bb90d90945dcad53898"),
    # (I, 2 I): the relation -2 H_1 + H_2 = 0
    "dependent": ([[[1, 0], [0, 1]], [[2, 0], [0, 2]]], "dependency_witness",
                  ["(-2)+(0)i", "(1)+(0)i"],
                  "00537e9fc5a3a2e536c10f9dbb7ca01faab4c0a17dbf3aeee56ae2fbffd4070d"),
    # (H, 3/2 H) with denominators 2, 3 and 6: the relation -3/2 H_1 + H_2 = 0
    "dependent, mixed denominators": (
        [_MIXED, [[x * Fraction(3, 2) for x in row] for row in _MIXED]], "dependency_witness",
        ["(-3/2)+(0)i", "(1)+(0)i"],
        "2c1b108be4061ac8ed909f6b713e3f89428a4e3ff9ca616dbd424461001bc2be"),
    # two independent forms over denominators up to 9 that both vanish on
    # (-2i/3, 1, 0)
    "kernel, rational forms": (
        [[[_q((1, 2)), _q(0, (1, 3)), 0], [_q(0, (-1, 3)), _q((2, 9)), 0], [0, 0, _q((1, 5))]],
         [[_q((1, 4)), _q(0, (1, 6)), 0], [_q(0, (-1, 6)), _q((1, 9)), 0], [0, 0, _q((3, 7))]]],
        "kernel_witness", ["(0)+(-2/3)i", "(1)+(0)i", "(0)+(0)i"],
        "5ca2fa01d73a6104c4c96eeaddc086baa222fa767aa777297b10193183c78f86"),
}


def _non_hermitian_field():
    """A non-tangent field on n = 2, k = 1 with z, w and mixed-degree terms."""
    n, k = 2, 1
    z1, z2 = (Poly.variable(n, k, "z", a) for a in range(n))
    w1 = Poly.variable(n, k, "w", 0)
    return poly_field(n, k, [z1 * w1 + z2 * GR_I, z1 * z2],
                      [z2 * z2 * 3 + w1 * z1 + w1 * w1 * GR_I])


# verify --json on non-tangent fields: (catalog name or forms, field, digest).
# The residual bytes of the last two cases depend on the conjugate half being
# restricted with conj(P): their forms are not Hermitian, and `verify` does
# not validate the model it reads.  The last form has denominators 2, 3 and
# 5, so both of its substitution maps are scaled by q = 30.
GOLDEN_VERIFY = {
    "codim4 display variant": (
        "codim4", codim4_display_variant,
        "545135d484b6bd9aac037939417ac830e0bb3fa8fd38ee660b4ecbb62ad74205"),
    "non-hermitian": (
        [[[1, GR_I], [GR_I, 2]]], _non_hermitian_field,
        "043f1fe672bccc704ea346f00aa855fce54edf4381ceb377631d551bf906e180"),
    "non-hermitian, rational form": (
        [[[_q((1, 2)), _q(0, (1, 3))], [_q(0, (1, 5)), _q((2, 3))]]], _non_hermitian_field,
        "6713f663a388da1f4bd7791957c1cf96622278d23f2af76edb5e1bc6a7c493fe"),
}

# the catalog listing, and the names and bytes of the files that
# `catalog --export DIR --n 4 --m 2` writes (each file: name, newline, bytes,
# newline, in name order)
GOLDEN_CATALOG_LISTING = "8c4b935f2f7d36dfa862b45f481290fb396d6424f40f1ec7e2ddae58d184d637"
GOLDEN_CATALOG_EXPORT = "48223206abef04677088e3951a64d35b335f9ec740bd9132f65ec79fadae12a8"

REFERENCES = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "references.json"


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


SLOW_GOLDEN = {"prolong --check-jacobi --structure --json --catalog so_family --n 4"}


@pytest.mark.parametrize("argv", [pytest.param(argv, marks=pytest.mark.slow)
                                  if argv in SLOW_GOLDEN else argv
                                  for argv in sorted(GOLDEN)])
def test_golden_digest(argv):
    code, out = run(argv.split())
    assert code == 0
    assert digest(out) == GOLDEN[argv]


@pytest.mark.parametrize("family, param", [
    pytest.param(*key, marks=[pytest.mark.slow] if key != ("so_family", 4) else [])
    for key in sorted(GOLDEN_PIECES)])
def test_golden_family_pieces(family, param):
    entry = getattr(catalog, f"make_{family}")(param)
    pieces = prolong_full(entry.model).algebra.pieces
    assert digest(repr(sorted(pieces.items()))) == GOLDEN_PIECES[family, param]


@pytest.mark.parametrize("n", sorted(GOLDEN_CONSTANTS))
def test_golden_so_family_structure_constants(n):
    sc = prolong_full(catalog.make_so_family(n).model).algebra.structure_constants()
    h = hashlib.sha256()
    for item in sorted(sc.items()):
        h.update(repr(item).encode("utf-8"))
    assert h.hexdigest() == GOLDEN_CONSTANTS[n]


@pytest.mark.parametrize("name", sorted(GOLDEN_VALIDATE))
def test_golden_validate_witness(name, tmp_path):
    forms, key, witness, want = GOLDEN_VALIDATE[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(QuadricModel(forms).to_json()), encoding="utf-8")
    code, out = run(["validate", "--json", str(path)])
    assert code == 1
    assert json.loads(out)[key] == witness
    assert digest(out) == want


@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY))
def test_golden_verify_residuals(name, tmp_path):
    model, make_field, want = GOLDEN_VERIFY[name]
    field_path = tmp_path / "field.json"
    field_path.write_text(json.dumps(make_field().to_json()), encoding="utf-8")
    if isinstance(model, str):
        argv = ["verify", "--json", "--catalog", model]
    else:
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(QuadricModel(model).to_json()), encoding="utf-8")
        argv = ["verify", "--json", str(model_path)]
    code, out = run(argv + ["--field", str(field_path)])
    assert code == 1
    assert json.loads(out)["verdict"] is False
    assert digest(out) == want


def test_golden_catalog_listing():
    code, out = run(["catalog"])
    assert code == 0
    assert digest(out) == GOLDEN_CATALOG_LISTING


def test_golden_catalog_export(tmp_path):
    code, _ = run(["catalog", "--export", str(tmp_path), "--n", "4", "--m", "2"])
    assert code == 0
    h = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        h.update(path.name.encode("utf-8") + b"\n" + path.read_bytes() + b"\n")
    assert h.hexdigest() == GOLDEN_CATALOG_EXPORT


def test_golden_agrees_with_benchmark_pins():
    """Digests pinned in both places are pins of the same bytes."""
    pinned = json.loads(REFERENCES.read_text(encoding="utf-8"))["digests"]
    shared = GOLDEN.keys() & pinned.keys()
    assert shared
    assert {key: GOLDEN[key] for key in shared} == {key: pinned[key] for key in shared}
