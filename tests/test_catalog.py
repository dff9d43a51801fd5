import contextlib
import io
import json
from hashlib import sha256

import pytest

from helpers import SU2_TO_CODIM5, Poly, codim4_display_variant, defining_polys

from crprolong import catalog, cli
from crprolong.cli import main
from crprolong.errors import InputError
from crprolong.model import tumanov_search
from crprolong.prolong import clear_cache, prolong_full
from crprolong.realize import express_in_span, realize_basis
from crprolong.scalars import GR_I
from crprolong.verify import verify_hol

# What the catalog entries are known to prolong to, by entry name: the dims of
# each graded piece, the top degree and the jet order; codim5's first Tumanov
# combination.  The families predict top degree 2n - 2 and jet order n (so),
# and 4m - 2 and 2m (su).  The dims of the ladder entries were recorded from
# prolong_full, because the oracle cannot reach these sizes: so_family(n=5)
# and su_family(m=3) at commit 9578d02, the others at commit db6bc8c.  The
# ladder tests check them through `report --json`.  The two highest rungs
# also pin their canonical bases: "pieces" is the sha256 of
# repr(sorted(pieces.items())), as in test_golden.GOLDEN_PIECES.
EXPECTED = {
    "heisenberg": {"dims": {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}, "top_degree": 2, "jet_order": 2},
    "codim4": {"dims": {-2: 4, -1: 12, 0: 23, 1: 24, 2: 15, 3: 6, 4: 1},
               "top_degree": 4, "jet_order": 3},
    "codim5": {"dims": {-2: 5, -1: 8, 0: 17, 1: 20, 2: 21, 3: 16, 4: 8, 5: 4, 6: 1},
               "top_degree": 6, "jet_order": 4, "tumanov_witness": (0, 0, 1, 0, 0)},
    "codim5+1": {"dims": {-2: 6, -1: 10, 0: 19, 1: 22, 2: 22, 3: 16, 4: 8, 5: 4, 6: 1},
                 "top_degree": 6, "jet_order": 4},
    "so_family(n=3)": {"dims": {-2: 4, -1: 12, 0: 23, 1: 24, 2: 15, 3: 6, 4: 1},
                       "top_degree": 4, "jet_order": 3},
    "so_family(n=4)": {"dims": {-2: 7, -1: 16, 0: 40, 1: 56, 2: 58, 3: 48, 4: 22, 5: 8, 6: 1},
                       "top_degree": 6, "jet_order": 4},
    "so_family(n=5)": {"dims": {-2: 11, -1: 20, 0: 62, 1: 110, 2: 160, 3: 200, 4: 150,
                                5: 100, 6: 35, 7: 10, 8: 1},
                       "top_degree": 8, "jet_order": 5},
    "su_family(m=2)": {"dims": {-2: 5, -1: 8, 0: 17, 1: 20, 2: 21, 3: 16, 4: 8, 5: 4, 6: 1},
                       "top_degree": 6, "jet_order": 4},
    "su_family(m=3)": {"dims": {-2: 10, -1: 12, 0: 37, 1: 60, 2: 99, 3: 150, 4: 146,
                                5: 150, 6: 90, 7: 54, 8: 18, 9: 6, 10: 1},
                       "top_degree": 10, "jet_order": 6},
    "so_family(n=6)": {"dims": {-2: 16, -1: 24, 0: 89, 1: 192, 2: 360, 3: 600, 4: 625,
                                5: 600, 6: 345, 7: 180, 8: 51, 9: 12, 10: 1},
                       "top_degree": 10, "jet_order": 6},
    "so_family(n=7)": {"dims": {-2: 22, -1: 28, 0: 121, 1: 308, 2: 707, 3: 1470, 4: 1960,
                                5: 2450, 6: 1960, 7: 1470, 8: 686, 9: 294, 10: 70, 11: 14,
                                12: 1},
                       "top_degree": 12, "jet_order": 7,
                       "pieces": "e6570434ecda9fbced4e99bd70819d22f9ccb7cbf4e000de809b4cb8f06026c6"},
    "su_family(m=4)": {"dims": {-2: 17, -1: 16, 0: 65, 1: 136, 2: 308, 3: 688, 4: 992,
                                5: 1528, 6: 1482, 7: 1528, 8: 992, 9: 688, 10: 292, 11: 128,
                                12: 32, 13: 8, 14: 1},
                       "top_degree": 14, "jet_order": 8,
                       "pieces": "525769622c0b591df505f0eecba36af32575d9b4b6bea0d18a76123ac64acd73"},
}

# `report` arguments of the ladder entries.  The entries with a pieces digest
# run only with `python -m pytest -m ladder`: each report takes over a minute
# and 400-500 MB, and needs a cap above its top degree.
LADDER = {"so_family(n=5)": ["--catalog", "so_family", "--n", "5"],
          "su_family(m=3)": ["--catalog", "su_family", "--m", "3"],
          "so_family(n=6)": ["--catalog", "so_family", "--n", "6"],
          "so_family(n=7)": ["--catalog", "so_family", "--n", "7", "--max-degree", "13"],
          "su_family(m=4)": ["--catalog", "su_family", "--m", "4", "--max-degree", "15"]}


# ---------------------------------------------------------------------------
# the fixed entries
# ---------------------------------------------------------------------------


def test_codim5_matrix_entries(codim5):
    hs = codim5.model.hermitian
    assert codim5.model.n == 4 and codim5.model.k == 5
    assert hs[0][0, 1] == 1 and hs[0][1, 0] == 1
    assert hs[1][0, 1] == -GR_I and hs[1][1, 0] == GR_I
    assert hs[2][1, 2] == 1 and hs[2][0, 3] == 1
    assert hs[2][2, 1] == 1 and hs[2][3, 0] == 1
    assert hs[3][0, 0] == 1
    assert hs[4][1, 1] == 1
    assert all(h.is_hermitian() for h in hs)


def test_codim5_second_defining_poly(codim5):
    n, k = 4, 5
    z1, z2 = Poly.variable(n, k, "z", 0), Poly.variable(n, k, "z", 1)
    zb1, zb2 = Poly.variable(n, k, "zb", 0), Poly.variable(n, k, "zb", 1)
    P = defining_polys(codim5.model)
    assert P[1] == -GR_I * z1 * zb2 + GR_I * z2 * zb1


def test_codim5_quadratic_syzygy(codim5):
    P = defining_polys(codim5.model)
    assert (P[0] * P[0] + P[1] * P[1] - 4 * P[3] * P[4]).is_zero()


def test_codim5_known_field_weights(codim5):
    kf = codim5.known_fields
    for name in ("X", "Y", "Z", "U"):
        assert kf[name].weighted_degree() == 0, name
        assert kf[name].ordinary_vanishing_order() == 1
    assert kf["T"].weighted_degree() == 4
    assert kf["T"].ordinary_vanishing_order() == 3
    assert kf["F"].weighted_degree() == 6
    assert kf["F"].ordinary_vanishing_order() == 4


def test_codim4_matrix_entries(codim4):
    hs = codim4.model.hermitian
    assert codim4.model.n == 6 and codim4.model.k == 4
    assert hs[0][0, 1] == -GR_I and hs[0][1, 0] == GR_I
    assert hs[1][1, 2] == -GR_I
    assert hs[2][0, 2] == -GR_I
    assert hs[3][0, 3] == 1 and hs[3][1, 4] == 1 and hs[3][2, 5] == 1
    assert all(h.is_hermitian() for h in hs)


def test_codim4_field_and_variant_differ(codim4):
    good = codim4.known_fields["G"]
    bad = codim4_display_variant()
    assert good != bad
    assert good.weighted_degree() == 4 and bad.weighted_degree() == 4
    assert verify_hol(good, codim4.model).verdict
    assert not verify_hol(bad, codim4.model).verdict
    assert express_in_span(bad, [good]) is None


def test_heisenberg_entry(heisenberg):
    assert heisenberg.model.n == 1 and heisenberg.model.k == 1
    assert heisenberg.model.hermitian[0][0, 0] == 1
    assert heisenberg.known_fields == {}


def test_every_fixed_entry_validates_and_has_tumanov_witness():
    for name in ("codim5", "codim4", "heisenberg"):
        entry = catalog.get(name)
        assert entry.model.validate().all_passed, name
        assert tumanov_search(entry.model, bound=2) is not None, name


def test_expected_blocks_match_prolongation():
    entries = [catalog.get(name) for name in ("heisenberg", "codim4", "codim5")]
    entries += [catalog.get("codim5", extra=1), catalog.make_so_family(3),
                catalog.make_so_family(4), catalog.make_su_family(2)]
    assert {e.name for e in entries} == {name for name, want in EXPECTED.items()
                                         if "dims" in want} - LADDER.keys()
    for entry in entries:
        res = prolong_full(entry.model)
        want = EXPECTED[entry.name]
        assert res.dims == want["dims"], entry.name
        assert res.top_degree == want["top_degree"], entry.name
        assert res.jet_order == want["jet_order"], entry.name


def test_codim5_tumanov_witness_matches_expected(codim5):
    assert tumanov_search(codim5.model) == EXPECTED["codim5"]["tumanov_witness"]


def test_known_fields_lie_in_their_degree_slices(codim5, codim5_result,
                                                 codim4, codim4_result):
    for entry, res in ((codim5, codim5_result), (codim4, codim4_result)):
        for name, f in entry.known_fields.items():
            d = f.weighted_degree()
            coeffs = express_in_span(f, realize_basis(res, d))
            assert coeffs is not None, (entry.name, name)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_so3_is_byte_identical_to_codim4(codim4):
    so3 = catalog.make_so_family(3)
    assert json.dumps(so3.model.to_json(), sort_keys=True) == \
        json.dumps(codim4.model.to_json(), sort_keys=True)
    assert EXPECTED["so_family(n=3)"]["dims"] == EXPECTED["codim4"]["dims"]


def test_su2_matches_codim5_after_permutation(codim5):
    su2 = catalog.make_su_family(2)
    perm = SU2_TO_CODIM5
    assert sorted(perm) == list(range(5))
    for i, h in enumerate(su2.model.hermitian):
        assert h == codim5.model.hermitian[perm[i]], i
    assert EXPECTED["su_family(m=2)"]["dims"] == EXPECTED["codim5"]["dims"]


def test_su2_prolongs_like_codim5(codim5_result):
    su2 = catalog.make_su_family(2)
    res = prolong_full(su2.model)
    assert res.dims == codim5_result.dims
    assert res.top_degree == codim5_result.top_degree


def test_family_counts_and_predictions():
    so5 = catalog.make_so_family(5)
    assert so5.model.n == 10 and so5.model.k == 5 * 4 // 2 + 1
    su3 = catalog.make_su_family(3)
    assert su3.model.n == 6 and su3.model.k == 3 + 3 + 3 + 1
    for entry in (so5, su3):
        assert entry.model.validate().all_passed
    for n in (3, 4, 5, 6, 7):
        want = EXPECTED[f"so_family(n={n})"]
        assert (want["top_degree"], want["jet_order"]) == (2 * n - 2, n)
    for m in (2, 3, 4):
        want = EXPECTED[f"su_family(m={m})"]
        assert (want["top_degree"], want["jet_order"]) == (4 * m - 2, 2 * m)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.ladder if "pieces" in EXPECTED[name]
                 else pytest.mark.slow)
    for name in sorted(LADDER)])
def test_ladder_report(name):
    """`report --json` on a ladder entry: its dims, top degree and jet order,
    a tangent top field, and both jet certificates (the 2-jet counterexample
    and the sharpness of the jet order) certified by that field; and the
    canonical bases of the report's prolongation where they are pinned."""
    argv = ["report", "--json", *LADDER[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    data = json.loads(out.getvalue())
    want = EXPECTED[name]
    jet = want["jet_order"]
    assert data["dims"] == {str(d): v for d, v in want["dims"].items()}
    assert (data["top_degree"], data["jet_order"]) == (want["top_degree"], jet)
    assert data["top_fields_verified"] == {"count": 1, "all_tangent": True}
    for key, order in (("counterexample_2jet", 2), ("sharpness", jet - 1)):
        assert data[key] == {"jet": order, "certified": True, "tangent": True,
                             "nonzero": True, "vanishing_order": jet}
    if "pieces" in want:
        args = cli.build_parser().parse_args(argv)
        model, _ = cli._load_model(args)
        pieces = prolong_full(model, max_degree=args.max_degree).algebra.pieces  # memoized
        clear_cache()
        assert sha256(repr(sorted(pieces.items())).encode("utf-8")).hexdigest() == want["pieces"]


def test_families_record_their_top_degree():
    assert catalog.family_top("so_family", n=5) == ("so_family(n=5)",
                                                    EXPECTED["so_family(n=5)"]["top_degree"])
    assert catalog.family_top("su_family", m=3) == ("su_family(m=3)",
                                                    EXPECTED["su_family(m=3)"]["top_degree"])
    assert catalog.family_top("su_family", m=4) == ("su_family(m=4)", 14)
    # also the cap check of so_family --n 4 --extra 2: the sphere directions
    # add no positive degree
    assert catalog.family_top("so_family", n=4) == ("so_family(n=4)", 6)
    assert catalog.family_top("codim5") is None


@pytest.mark.parametrize("command", [["prolong"], ["realize", "--degree", "0"], ["report"]])
def test_family_cap_below_top_fails_before_prolonging(command, monkeypatch, capsys):
    """su_family(4) has top degree 14: the default cap of 12 is refused with
    exit 3 before any prolongation runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("prolong_full called")

    monkeypatch.setattr(cli, "prolong_full", refuse)
    code = main([*command, "--catalog", "su_family", "--m", "4"])
    err = capsys.readouterr().err
    assert code == 3
    assert "su_family(m=4) has top degree 14" in err
    assert "--max-degree 15 or more (got 12)" in err


def test_family_cap_is_refused_before_any_form_is_built(monkeypatch, capsys):
    """The refusal reads the top degree off n: so_family(1000) would build
    forms of size 2000 x 2000, and the builder is never called."""
    def refuse(*args, **kwargs):
        raise AssertionError("make_so_family called")

    monkeypatch.setattr(catalog, "make_so_family", refuse)
    assert main(["prolong", "--catalog", "so_family", "--n", "1000"]) == 3
    assert capsys.readouterr().err == (
        "degree cap too low: so_family(n=1000) has top degree 1998, so its "
        "prolongation needs --max-degree 1999 or more (got 12)\n")


def test_family_cap_is_top_plus_one(capsys):
    argv = ["prolong", "--json", "--catalog", "so_family", "--n", "3"]
    assert main([*argv, "--max-degree", "4"]) == 3
    assert "needs --max-degree 5 or more (got 4)" in capsys.readouterr().err
    assert main([*argv, "--max-degree", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dims"] == {str(d): v for d, v in EXPECTED["so_family(n=3)"]["dims"].items()}


def test_family_input_errors():
    with pytest.raises(InputError):
        catalog.make_so_family(2)
    with pytest.raises(InputError):
        catalog.make_su_family(1)


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------


def test_extend_zero_is_identity(codim5):
    assert catalog.extend_codim(codim5, 0) is codim5


def test_extend_rejects_negative(codim5):
    with pytest.raises(InputError):
        catalog.extend_codim(codim5, -1)


def test_extend_codim5_by_one(extended, codim5):
    assert extended.name == "codim5+1"
    assert extended.model.n == 5 and extended.model.k == 6
    # original forms sit in the top-left block
    for j in range(5):
        for a in range(4):
            for b in range(4):
                assert extended.model.hermitian[j][a, b] == codim5.model.hermitian[j][a, b]
        assert extended.model.hermitian[j][4, 4] == 0
    assert extended.model.hermitian[5][4, 4] == 1
    assert extended.model.validate().all_passed


def test_extended_fields_remain_tangent(extended):
    for name, f in extended.known_fields.items():
        assert verify_hol(f, extended.model).verdict, name
        original = catalog.make_codim5().known_fields[name]
        assert f.weighted_degree() == original.weighted_degree()


@pytest.mark.parametrize("name, extra", [("codim5", 1), ("codim5", 2), ("codim4", 1)])
def test_extended_fields_keep_their_terms(name, extra):
    """An embedded field has the original's terms, with zero exponents for
    the new z and w appended."""
    entry = catalog.get(name)
    ext = catalog.extend_codim(entry, extra)
    assert ext.known_fields.keys() == entry.known_fields.keys()
    for fname, f in entry.known_fields.items():
        want = [dict(t, z_exp=t["z_exp"] + [0] * extra, w_exp=t["w_exp"] + [0] * extra)
                for t in f.to_json()["terms"]]
        assert ext.known_fields[fname].to_json()["terms"] == want, fname


def test_extend_heisenberg_gives_product_profile(heisenberg):
    ext = catalog.extend_codim(heisenberg, 1)
    res = prolong_full(ext.model)
    assert res.dims == {-2: 2, -1: 4, 0: 4, 1: 4, 2: 2}
    assert res.top_degree == 2


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_names_and_get():
    assert catalog.names() == ["codim5", "codim4", "heisenberg", "so_family", "su_family"]
    assert catalog.get("codim5").name == "codim5"
    assert catalog.get("so_family", n=3).name == "so_family(n=3)"
    assert catalog.get("su_family", m=2).name == "su_family(m=2)"
    assert catalog.get("heisenberg", extra=2).name == "heisenberg+2"
    with pytest.raises(InputError):
        catalog.get("nope")
    with pytest.raises(InputError):
        catalog.get("so_family")
    with pytest.raises(InputError):
        catalog.get("su_family")

