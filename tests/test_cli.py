"""Command-line interface: subcommands, output formats, exit codes.

Every test drives ``crprolong.cli.main(argv)`` directly (no subprocess), so
exit codes are the function's return value and output is captured via capsys.
"""

import io
import json
import random
import sys

import pytest

from helpers import Poly, poly_field

from crprolong.cli import _json_pieces, main
from crprolong.catalog import get
from crprolong.model import QuadricModel
from crprolong.poly import DEGREE_CAP, PolyVectorField
from crprolong.prolong import clear_cache
from crprolong.scalars import GaussianRational


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, data):
    path.write_text(json.dumps(data, indent=2, sort_keys=True),
                    encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_list_text(capsys):
    code, out, err = run(capsys, ["catalog"])
    assert code == 0
    for name in ("codim5", "codim4", "heisenberg"):
        assert name in out
    assert "so_family" in out and "--n" in out
    assert "su_family" in out and "--m" in out


def test_catalog_list_json(capsys):
    code, out, err = run(capsys, ["catalog", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data == {"entries": ["codim5", "codim4", "heisenberg",
                                "so_family", "su_family"]}


def test_catalog_export(capsys, tmp_path):
    code, out, err = run(capsys, ["catalog", "--export", str(tmp_path)])
    assert code == 0
    model_file = tmp_path / "codim5_model.json"
    assert model_file.exists()
    model = QuadricModel.from_json(json.loads(model_file.read_text()))
    assert (model.n, model.k) == (4, 5)
    for fname in ("X", "Y", "Z", "U", "T", "F"):
        field_file = tmp_path / f"codim5_field_{fname}.json"
        assert field_file.exists()
        field = PolyVectorField.from_json(json.loads(field_file.read_text()))
        assert (field.n, field.k) == (4, 5)
    assert (tmp_path / "codim4_model.json").exists()
    assert (tmp_path / "codim4_field_G.json").exists()
    assert (tmp_path / "heisenberg_model.json").exists()
    assert out.count("wrote ") == 10


def test_catalog_export_family_name_mangling(capsys, tmp_path):
    code, out, err = run(capsys,
                         ["catalog", "--export", str(tmp_path), "--n", "3"])
    assert code == 0
    family_file = tmp_path / "so_family_n3_model.json"
    assert family_file.exists()
    model = QuadricModel.from_json(json.loads(family_file.read_text()))
    assert (model.n, model.k) == (6, 4)


@pytest.mark.parametrize("flag, message", [("--n", "so family needs n >= 3"),
                                           ("--m", "su family needs m >= 2")])
def test_catalog_export_refuses_a_zero_family_parameter(capsys, tmp_path, flag, message):
    """A zero parameter is refused like any other out-of-range one, before
    a file is written."""
    dest = tmp_path / "out"
    code, out, err = run(capsys, ["catalog", "--export", str(dest), flag, "0"])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not dest.exists()


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_catalog_pass(capsys):
    code, out, err = run(capsys, ["validate", "--catalog", "codim5"])
    assert code == 0
    assert "hermitian: ok" in out
    assert "linearly independent: ok" in out
    assert "trivial common kernel: ok" in out
    assert "tumanov witness: (0, 0, 1, 0, 0)" in out
    assert "validation: PASS" in out


def test_validate_model_file(capsys, tmp_path):
    path = write_json(tmp_path / "m.json", get("heisenberg").model.to_json())
    code, out, err = run(capsys, ["validate", path])
    assert code == 0
    assert "validation: PASS" in out
    assert "tumanov witness: (1)" in out


def test_validate_definite_combination_text(capsys):
    # Im w = |z|^2: the form itself is definite, which certifies that the
    # forms have no common null direction
    code, out, err = run(capsys, ["validate", "--catalog", "heisenberg"])
    assert code == 0
    assert "definite combination: (1) (no common null direction)" in out
    assert "degenerate" not in out
    code, out, err = run(capsys, ["validate", "--catalog", "heisenberg", "--json"])
    assert json.loads(out)["definite_combination"] == [1]


def test_validate_non_hermitian_fails(capsys, tmp_path):
    path = write_json(tmp_path / "bad.json",
                      {"n": 1, "k": 1, "hermitian": [[["(0)+(1)i"]]]})
    code, out, err = run(capsys, ["validate", path])
    assert code == 1
    assert "matrix 1: NOT hermitian" in out
    assert "hermitian: FAIL" in out
    assert "validation: FAIL" in out


def test_validate_json_to_out_file(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, err = run(capsys, ["validate", "--catalog", "heisenberg",
                                  "--json", "--out", str(dest)])
    assert code == 0
    assert out == ""  # everything went to the file
    data = json.loads(dest.read_text())
    assert data["tumanov_witness"] == [1]
    assert data["independent"] is True


def test_validate_unwritable_out(capsys, tmp_path):
    dest = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, ["validate", "--catalog", "heisenberg",
                                  "--out", str(dest)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {dest}: ")
    assert err.count("\n") == 1


def test_catalog_export_unwritable(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    code, out, err = run(capsys, ["catalog", "--export", str(blocker / "dir")])
    assert code == 2
    assert err.startswith(f"error: cannot write {blocker / 'dir'}: ")
    assert err.count("\n") == 1


def test_validate_requires_a_model(capsys):
    code, out, err = run(capsys, ["validate"])
    assert code == 2
    assert "error:" in err


def test_validate_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, ["validate", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read" in err


def test_validate_unparseable_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert "not valid JSON" in err


def test_validate_wrong_schema(capsys, tmp_path):
    path = write_json(tmp_path / "schema.json", {"rows": [[1, 2]]})
    code, out, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert "malformed model JSON" in err


# JSON numbers that are not exact: a float, a boolean, and 1e999 (read as
# infinity) as a count and as an entry
INEXACT_MODELS = {
    "entry 0.1": {"n": 1, "k": 1, "hermitian": [[[0.1]]]},
    "entry true": {"n": 1, "k": 1, "hermitian": [[[True]]]},
    "n 1e999": {"n": float("inf"), "k": 1, "hermitian": [[["(1)+(0)i"]]]},
    "entry 1e999": {"n": 1, "k": 1, "hermitian": [[[float("inf")]]]},
}


@pytest.mark.parametrize("name", sorted(INEXACT_MODELS))
def test_model_inexact_number_is_malformed(capsys, tmp_path, name):
    path = write_json(tmp_path / "inexact.json", INEXACT_MODELS[name])
    for command in ("validate", "prolong"):
        code, out, err = run(capsys, [command, path])
        assert code == 2, command
        assert "malformed model JSON" in err


def test_unknown_catalog_name(capsys):
    code, out, err = run(capsys, ["validate", "--catalog", "nonsense"])
    assert code == 2
    assert "error:" in err


def test_family_without_parameter(capsys):
    code, out, err = run(capsys, ["prolong", "--catalog", "so_family"])
    assert code == 2
    assert "--n" in err


@pytest.mark.parametrize("argv, flag", [
    (["prolong", "--catalog", "codim5", "--n", "3"], "--n"),
    (["validate", "--catalog", "heisenberg", "--m", "2"], "--m"),
    (["prolong", "--catalog", "so_family", "--n", "4", "--m", "2"], "--m"),
    (["report", "--catalog", "su_family", "--m", "2", "--n", "3"], "--n"),
    (["prolong", "--catalog", "so_family", "--n", "4", "--m", "2", "--max-degree", "3"], "--m"),
])
def test_catalog_entry_refuses_a_parameter_it_does_not_take(capsys, argv, flag):
    """A parameter the entry does not use is an input error, not ignored, and
    it is refused before the --max-degree check of a family."""
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: catalog entry {argv[2]!r} takes no {flag}\n"


# ---------------------------------------------------------------------------
# prolong
# ---------------------------------------------------------------------------

def test_prolong_text(capsys):
    code, out, err = run(capsys, ["prolong", "--catalog", "heisenberg"])
    assert code == 0
    assert "dims by degree: -2:1 -1:2 0:2 1:2 2:1" in out
    assert "algebra dimension: 8" in out
    assert "top degree: 2" in out
    assert "jet order: 2" in out


def test_prolong_json_with_jacobi(capsys):
    code, out, err = run(capsys, ["prolong", "--catalog", "heisenberg",
                                  "--json", "--check-jacobi"])
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == {"-2": 1, "-1": 2, "0": 2, "1": 2, "2": 1}
    assert data["jacobi_triples_checked"] > 0


def test_prolong_output_is_deterministic(capsys):
    argv = ["prolong", "--catalog", "codim4", "--json", "--structure"]
    code1, out1, _ = run(capsys, argv)
    clear_cache()
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_prolong_structure_timing_includes_structure_constants(capsys, monkeypatch):
    """With --structure, --timing covers the structure constants it prints."""
    import time
    from crprolong.prolong import GradedLieAlgebra
    original = GradedLieAlgebra.structure_constants

    def slow(self):
        time.sleep(0.3)
        return original(self)

    monkeypatch.setattr(GradedLieAlgebra, "structure_constants", slow)
    clear_cache()
    code, out, err = run(capsys, ["prolong", "--catalog", "heisenberg", "--json",
                                  "--structure", "--timing"])
    assert code == 0
    assert json.loads(out)["timing_seconds"] >= 0.3


def test_prolong_extended_model(capsys):
    code, out, err = run(capsys, ["prolong", "--catalog", "codim5",
                                  "--extra", "1", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == {"-2": 6, "-1": 10, "0": 19, "1": 22, "2": 22,
                            "3": 16, "4": 8, "5": 4, "6": 1}


def test_prolong_max_degree_too_small(capsys):
    code, out, err = run(capsys, ["prolong", "--catalog", "codim5",
                                  "--max-degree", "3"])
    assert code == 3
    assert err == "degree cap too low: prolongation not terminated below degree cap 3\n"


@pytest.mark.parametrize("argv", [["prolong"], ["realize", "--degree", "0"], ["report"]])
def test_negative_max_degree_is_input_error(capsys, argv):
    code, out, err = run(capsys, argv + ["--catalog", "heisenberg", "--max-degree", "-1"])
    assert code == 2
    assert "degree cap must be nonnegative, got -1" in err


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------

def test_realize_text(capsys):
    code, out, err = run(capsys, ["realize", "--catalog", "heisenberg",
                                  "--degree", "-2"])
    assert code == 0
    assert "degree -2: 1 basis field(s)" in out
    assert "d/dw1" in out


def test_realize_degree_out_of_range(capsys):
    code, out, err = run(capsys, ["realize", "--catalog", "heisenberg",
                                  "--degree", "7"])
    assert code == 2
    assert "degree 7 not present" in err


def test_realize_requires_degree(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["realize", "--catalog", "heisenberg"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _heisenberg_field(coeff_z):
    """c * z1 d/dz1 on the sphere model (tangent iff c is purely imaginary)."""
    z = Poly.variable(1, 1, "z", 0)
    return poly_field(1, 1, [z * coeff_z], [Poly.zero(1, 1)])


def test_verify_tangent_field(capsys, tmp_path):
    path = write_json(tmp_path / "rot.json",
                      _heisenberg_field(GaussianRational(0, 1)).to_json())
    code, out, err = run(capsys, ["verify", "--catalog", "heisenberg",
                                  "--field", path])
    assert code == 0
    assert "tangency verdict: true" in out


def test_verify_non_tangent_field(capsys, tmp_path):
    path = write_json(tmp_path / "scale.json",
                      _heisenberg_field(GaussianRational(1)).to_json())
    code, out, err = run(capsys, ["verify", "--catalog", "heisenberg",
                                  "--field", path])
    assert code == 1
    assert "tangency verdict: false" in out
    assert "residuals:" in out
    assert "zb1" in out


def test_verify_json_certificate(capsys, tmp_path):
    path = write_json(tmp_path / "rot.json",
                      _heisenberg_field(GaussianRational(0, 1)).to_json())
    code, out, err = run(capsys, ["verify", "--catalog", "heisenberg",
                                  "--field", path, "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    assert "residuals" not in data


@pytest.mark.parametrize("target", ["z0", "w0"])
def test_verify_field_target_out_of_range(capsys, tmp_path, target):
    data = _heisenberg_field(GaussianRational(0, 1)).to_json()
    data["terms"][0]["target"] = target
    path = write_json(tmp_path / "bad.json", data)
    code, out, err = run(capsys, ["verify", "--catalog", "heisenberg",
                                  "--field", path])
    assert code == 2
    assert f"bad target {target!r}" in err


@pytest.mark.parametrize("exponent, code", [(DEGREE_CAP // 2 - 1, 1), (DEGREE_CAP // 2, 2),
                                             (DEGREE_CAP, 2)])
def test_verify_exponent_past_packed_limit(capsys, tmp_path, exponent, code):
    """A field exponent must fit a packed slot, and the restriction to the
    surface, of degree 2 e + 1, must too: past that `verify` exits 2."""
    data = _heisenberg_field(GaussianRational(1)).to_json()
    data["terms"][0]["z_exp"] = [exponent]
    path = write_json(tmp_path / "big.json", data)
    got, out, err = run(capsys, ["verify", "--catalog", "heisenberg", "--field", path])
    assert got == code
    assert ("packed limit" in err) == (code == 2)


def test_verify_frame_mismatch(capsys, tmp_path):
    path = write_json(tmp_path / "rot.json",
                      _heisenberg_field(GaussianRational(0, 1)).to_json())
    code, out, err = run(capsys, ["verify", "--catalog", "codim5",
                                  "--field", path])
    assert code == 2
    assert "error:" in err


def test_verify_frame_checked_before_field_is_built(capsys, tmp_path, monkeypatch):
    def unreachable(data):
        raise AssertionError("field built before its (n, k) was checked")

    monkeypatch.setattr(PolyVectorField, "from_json", staticmethod(unreachable))
    path = write_json(tmp_path / "wide.json", {"n": 300000, "k": 1, "terms": []})
    code, out, err = run(capsys, ["verify", "--catalog", "heisenberg",
                                  "--field", path])
    assert code == 2
    assert "field and model have different (n, k)" in err


@pytest.mark.parametrize("n", ["one", float("inf")])
def test_verify_malformed_frame(capsys, tmp_path, n):
    path = write_json(tmp_path / "bad.json", {"n": n, "k": 1, "terms": []})
    code, out, err = run(capsys, ["verify", "--catalog", "heisenberg",
                                  "--field", path])
    assert code == 2
    assert "malformed field JSON" in err


@pytest.mark.parametrize("key, value", [("z_exp", [1.7]), ("coeff", 1), ("coeff", None)],
                         ids=["exponent 1.7", "coeff 1", "coeff null"])
def test_verify_malformed_term(capsys, tmp_path, key, value):
    term = {"target": "z1", "z_exp": [1], "w_exp": [0], "coeff": "(0)+(1)i", key: value}
    path = write_json(tmp_path / "bad.json", {"n": 1, "k": 1, "terms": [term]})
    code, out, err = run(capsys, ["verify", "--catalog", "heisenberg",
                                  "--field", path])
    assert code == 2
    assert "malformed field JSON" in err


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_codim5(capsys):
    code, out, err = run(capsys, ["report", "--catalog", "codim5"])
    assert code == 0
    assert "validation: PASS (tumanov witness (0, 0, 1, 0, 0))" in out
    assert "algebra dimension: 100" in out
    assert "top degree: 6" in out
    assert "jet order: 4 -- the model is 4-jet determined" in out
    assert "top-degree fields: 1 realized, all verified tangent" in out
    assert ("conclusion: nontrivial automorphism with vanishing 2-jet; "
            "4-jet determination is sharp (a tangent field vanishes to "
            "order 4, so 3-jets do not determine)") in out


def test_report_verifies_each_top_field_once(capsys, monkeypatch):
    """The jet certificates reuse the witness's tangency certificate."""
    from crprolong import cli, verify
    calls = []
    original = verify.verify_hol

    def counting(field, model):
        calls.append(field)
        return original(field, model)

    monkeypatch.setattr(verify, "verify_hol", counting)
    monkeypatch.setattr(cli, "verify_hol", counting)
    code, out, err = run(capsys, ["report", "--catalog", "codim4", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["counterexample_2jet"]["certified"] and data["sharpness"]["certified"]
    assert len(calls) == data["top_fields_verified"]["count"]


def test_report_heisenberg(capsys):
    code, out, err = run(capsys, ["report", "--catalog", "heisenberg"])
    assert code == 0
    assert "jet order: 2 -- the model is 2-jet determined" in out
    assert ("conclusion: no automorphism with vanishing 2-jet; "
            "2-jet determination") in out


def test_report_rejects_invalid_model(capsys, tmp_path):
    h = [[["(1)+(0)i"]]]
    path = write_json(tmp_path / "dep.json",
                      {"n": 1, "k": 2, "hermitian": h + [[["(2)+(0)i"]]]})
    code, out, err = run(capsys, ["report", str(path)])
    assert code == 1
    assert "failed validation" in err


def test_validate_and_report_agree_without_tumanov_witness(capsys, tmp_path):
    """H1 = E12 + E21, H2 = E13 + E31: independent forms with a trivial common
    kernel, but every combination has rank 2, so no Tumanov witness exists
    and both commands fail the model."""
    forms = [[[0, 1, 0], [1, 0, 0], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [1, 0, 0]]]
    path = write_json(tmp_path / "singular.json", QuadricModel(forms).to_json())
    code, out, err = run(capsys, ["validate", path])
    assert code == 1
    assert "trivial common kernel: ok" in out
    assert "tumanov witness: none within bound" in out
    assert "validation: FAIL" in out
    code, out, err = run(capsys, ["report", path])
    assert code == 1
    assert out == ""
    assert "failed validation" in err


def test_report_json(capsys):
    code, out, err = run(capsys, ["report", "--catalog", "codim4", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["top_degree"] == 4
    assert data["jet_order"] == 3
    assert data["algebra_dimension"] == 85
    assert data["counterexample_2jet"]["certified"] is True
    assert data["sharpness"]["certified"] is True
    assert data["top_fields_verified"]["all_tangent"] is True


# ---------------------------------------------------------------------------
# the JSON writer
# ---------------------------------------------------------------------------


def _dumps(value):
    return "".join(_json_pieces(value))


class _Pieces(io.StringIO):
    """A stdout that records the length of each piece written to it."""

    def __init__(self):
        super().__init__()
        self.lengths = []

    def write(self, text):
        self.lengths.append(len(text))
        return super().write(text)


def test_json_output_is_written_in_pieces(monkeypatch):
    """The --structure JSON is written piece by piece, and no piece holds
    more than a small part of it."""
    out = _Pieces()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["prolong", "--catalog", "codim4", "--json", "--structure"]) == 0
    text = out.getvalue()
    assert json.loads(text)["dims"]["0"] == 23
    assert sum(out.lengths) == len(text) and text.endswith("}\n")
    assert len(out.lengths) > 1000 and max(out.lengths) < len(text) // 100

STRINGS = ["", "a", 'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f",
           "caf\xe9", "\u2028\xff", "astral \U0001f600 \U00010000", "(1/3)+(0)i"]
SCALARS = [0, -7, 2 ** 64 + 1, -(2 ** 70), True, False, None, 0.5, -2.25,
           round(1 / 3, 3), 1e300, float("inf"), float("-inf")]


def random_value(rng, depth):
    kind = rng.randrange(7 if depth else 2)
    if kind == 0:
        return rng.choice(STRINGS)
    if kind == 1:
        return rng.choice(SCALARS)
    if kind == 2:       # a list of strings only: the joined path
        return [rng.choice(STRINGS) for _ in range(rng.randrange(4))]
    if kind == 3:
        return tuple(random_value(rng, depth - 1) for _ in range(rng.randrange(4)))
    if kind == 4:
        return [random_value(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind == 5:       # int keys, sorted as ints and written as strings
        return {rng.randrange(-20, 20): random_value(rng, depth - 1)
                for _ in range(rng.randrange(4))}
    return {rng.choice(STRINGS): random_value(rng, depth - 1) for _ in range(rng.randrange(4))}


@pytest.mark.parametrize("seed", range(40))
def test_json_writer_matches_stdlib(seed):
    rng = random.Random(seed)
    value = {"ints": random_value(rng, 4), "strs": random_value(rng, 4),
             "deep": [random_value(rng, 4) for _ in range(3)]}
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    {}, [], (), [[]], [{}, ()], ["a", 1], [1, "a"], [["x", "y"], ["z"]],
    [["x", 2], [None, "y"]], {"k": [["(0)+(0)i", "(1)+(0)i"], [[True, 1.5]]]},
    {True: 1, 1.5: 4, -2: 5}, {False: 0}, {None: 3}, {2: "a", 10: "b", -1: "c"},
    STRINGS, SCALARS, tuple(SCALARS),
], ids=repr)
def test_json_writer_edge_cases(value):
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [{1: "a", "b": 2}, {(1, 2): 3}, [object()]],
                         ids=["{1: 'a', 'b': 2}", "{(1, 2): 3}", "[object()]"])
def test_json_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _dumps(value)
