import json
import re
from fractions import Fraction

import pytest
from click.testing import CliRunner

from nilform import catalog, serialize
from nilform.cli import main
from nilform.derivations import derivation_space
from nilform.linalg import Matrix, inverse, matmul


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def test_help_lists_commands():
    result = invoke("--help")
    assert result.exit_code == 0
    for cmd in ("check", "tables", "charnilp", "dertower", "distinguish", "catalog"):
        assert cmd in result.output


def test_check_empty_range():
    # no dimension >= 7 is left, so the run would check nothing: a usage error
    assert invoke("check", "--dims", "6..6").exit_code == 2
    assert invoke("check", "--dims", "3..5").exit_code == 2


def test_check_n7_passes():
    result = invoke("check", "--dims", "7..7")
    assert result.exit_code == 0
    assert "FAIL" not in result.output


def test_check_reports_known_deviation_dims():
    # the documented non-filiform laws make the verification fail at n=10
    result = invoke("check", "--dims", "10..10", "--alpha", "1")
    assert result.exit_code == 1
    assert "known deviation" in result.output


def test_bad_flags_exit_2():
    assert invoke("check", "--dims", "oops").exit_code == 2
    assert invoke("tables", "--id", "12").exit_code == 2
    assert invoke("dertower", "--family", "200", "--dim", "8").exit_code == 2
    assert invoke("dertower", "--family", "1", "--dim", "9").exit_code == 2
    # a reversed range runs nothing: a usage error, not "0/0 checks passed"
    assert invoke("check", "--dims", "9..7").exit_code == 2
    assert invoke("charnilp", "--dims", "9..7").exit_code == 2
    assert invoke("tables", "--id", "1", "--m", "6..4").exit_code == 2
    assert invoke("charnilp", "--dims", "1..6").exit_code == 2
    assert invoke("dertower", "--family", "1", "--dim", "8", "--depth", "-1").exit_code == 2


@pytest.mark.parametrize("args, option", [
    (("check", "--dims", "3..5"), "--dims"),
    (("check", "--dims", "oops"), "--dims"),
    (("charnilp", "--dims", "9..7"), "--dims"),
    (("tables", "--id", "1", "--m", "6..4"), "--m"),
    (("check", "--dims", "7..7", "--alpha", "0"), "--alpha"),
    (("distinguish", "--dim", "12", "--alpha", "x"), "--alpha"),
    (("tables", "--id", "12"), "--id"),
    (("distinguish", "--dim", "5"), "--dim"),
    (("dertower", "--family", "200", "--dim", "8"), "--family"),
    (("dertower", "--family", "1", "--dim", "9"), "--dim"),
    (("catalog", "export", "--dim", "5"), "--dim"),
    (("catalog", "errata", "--family", "999"), "--family"),
    (("catalog", "errata", "--family", "0"), "--family"),
    (("check", "--dims", "7..7", "--alpha", "1/0"), "--alpha"),
    (("tables", "--id", "1", "--alpha", "1,1/0"), "--alpha"),
    (("charnilp", "--dims", "7..7", "--alpha", "1/0"), "--alpha"),
    (("distinguish", "--dim", "8", "--alpha", "1/0"), "--alpha"),
    (("catalog", "export", "--dim", "7", "--alpha", "1/0"), "--alpha"),
])
def test_usage_errors_name_their_option(args, option):
    result = invoke(*args)
    assert result.exit_code == 2
    assert f"Invalid value for '{option}'" in result.output
    assert "Traceback" not in result.output


def test_tables_structural_pass():
    result = invoke("tables", "--id", "1", "--m", "4..4")
    assert result.exit_code == 0
    assert "dimZ=2" in result.output          # first row of the table


def test_tables_known_deviations_fail():
    result = invoke("tables", "--id", "3", "--m", "4..5", "--format", "json")
    assert result.exit_code == 1
    payload = json.loads(result.output)
    failing = {item["id"] for item in payload["items"] if not item["pass"]}
    assert failing and all("^25" in f or "^27" in f for f in failing)


def test_tables_weight_rows():
    result = invoke("tables", "--id", "8", "--m", "5..5")
    assert result.exit_code == 0
    assert "swapped" in result.output


def test_charnilp_n7():
    result = invoke("charnilp", "--dims", "7..7", "--alpha", "1,2")
    assert result.exit_code == 0


def test_charnilp_known_deviation_n8():
    result = invoke("charnilp", "--dims", "8..8", "--alpha", "1")
    assert result.exit_code == 1
    assert "known deviation" in result.output


def test_dertower_g8_6():
    result = invoke("dertower", "--family", "6", "--dim", "8")
    assert result.exit_code == 0
    assert "dim Der" in result.output and "13" in result.output
    assert "tower index" in result.output


def test_dertower_g7_81_reports_failed_expectation():
    result = invoke("dertower", "--family", "81", "--dim", "7", "--depth", "1")
    assert result.exit_code == 1                     # printed claim fails
    assert "known deviation" in result.output
    assert "dim Der(g7^81): computed=10 expected=10" in result.output.replace("  ", " ") \
        or "10" in result.output


def _rebuild(instance_id):
    """The catalog algebra of a report id mu_{n}_{i} or mu_{n}_{i}_alpha_{p}_{q}."""
    n, i, p, q = re.fullmatch(r"mu_(\d+)_(\d+)(?:_alpha_(-?\d+)_(\d+))?", instance_id).groups()
    return catalog.build(int(i), int(n) // 2, Fraction(int(p), int(q)) if p else None)


def test_charnilp_certificates_json():
    """Every positive's Engel flag, read back from the JSON report, makes
    each derivation of the rebuilt instance strictly upper triangular."""
    result = invoke(
        "charnilp", "--dims", "7..7", "--alpha", "1", "--certificates",
        "--format", "json",
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    certs = [i for i in payload["items"] if i["paper_ref"].endswith("certificate")]
    assert len(certs) == 27
    positives = [i for i in certs if i["computed"]["charnilp"]]
    assert {i["id"] for i in positives} == {
        "mu_7_65", "mu_7_66_alpha_1_1", "mu_7_68", "mu_7_70", "mu_7_81", "mu_7_83"}
    for item in positives:
        assert "transcript" not in item["computed"]
        flag = item["computed"]["engel_flag"]
        g = _rebuild(item["id"])
        n = g.dim
        assert flag["dims"][-1] == n and flag["dims"] == sorted(set(flag["dims"]))
        b = Matrix([[Fraction(v[i]) for v in flag["basis"]] for i in range(n)])
        b_inv = inverse(b)
        for d in derivation_space(g).basis:
            t = matmul(matmul(b_inv, d), b)
            assert not any(t[i, j] for i in range(n) for j in range(i + 1)), item["id"]
    negative = next(i for i in certs if i["id"] == "mu_7_71")
    assert "witness" in negative["computed"]


def test_distinguish_n12():
    result = invoke("distinguish", "--dim", "12", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    pair_items = [i for i in payload["items"] if i["id"].startswith("pair")]
    assert len(pair_items) == 4
    assert all(i["pass"] for i in pair_items)


def test_catalog_export_roundtrip(tmp_path):
    result = invoke("catalog", "export", "--dim", "7", "--out", str(tmp_path))
    assert result.exit_code == 0
    files = sorted(tmp_path.glob("mu_7_*.json"))
    assert len(files) == 30
    for path in files[:5]:
        g = serialize.load(path)
        check = invoke("check", "--file", str(path))
        assert check.exit_code == 0, path
        assert g.jacobi_check() is None


def test_catalog_export_stops_at_max_dim(tmp_path):
    """Every file `catalog export` writes is one `check --file` can load."""
    out = tmp_path / "out"
    result = invoke("catalog", "export", "--dim", str(serialize.MAX_DIM + 1), "--out", str(out))
    assert result.exit_code == 2
    assert f"at most {serialize.MAX_DIM}" in result.output
    assert not out.exists()


def test_check_file_detects_jacobi_failure(tmp_path):
    g = catalog.build(1, 5)
    d = serialize.algebra_to_dict(g)
    for item in d["brackets"]:
        if (item["i"], item["j"]) == (3, 4):
            item["coeffs"] = {"7": "2"}      # perturb [X3,X4]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    result = invoke("check", "--file", str(path))
    assert result.exit_code == 1
    assert "Jacobi fails" in result.output


def _heisenberg_file(**changes):
    d = {"dim": 3, "labels": ["x", "y", "z"],
         "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}}]}
    d.update(changes)
    return json.dumps({k: v for k, v in d.items() if v is not None})


ALGEBRA_FILES = [
    # (file content, exit code, fragment of the one-line message or report)
    (_heisenberg_file(brackets=[{"i": 1, "j": 2, "coeffs": {"3": "1/0"}}]),
     2, "brackets[0].coeffs['3']: bad value '1/0'"),
    (_heisenberg_file(brackets=[{"i": 1, "j": 2, "coeffs": {"3": "0.5"}}]),
     2, "brackets[0].coeffs['3']: bad value '0.5'"),
    (_heisenberg_file(dim=None), 2, "dim: missing"),
    (_heisenberg_file(dim=-3, labels=None, brackets=[]), 2, "dim: bad value -3"),
    (_heisenberg_file()[:-5], 2, "not valid JSON"),
    (_heisenberg_file(brackets=[{"i": 1, "j": 2, "coeffs": {"7": "1"}}]),
     2, "brackets[0].coeffs['7']: index 7 outside 1..3"),
    (_heisenberg_file(labels=["x"]), 2, "labels: expected a list of 3 labels"),
    ('{"dim": 3, "brackets": ' + "[" * 100000 + "]" * 100000 + "}",
     2, "not valid JSON: nested too deeply"),
    (_heisenberg_file(dim=serialize.MAX_DIM + 1, labels=None, brackets=None),
     2, f"dim: {serialize.MAX_DIM + 1} exceeds the limit {serialize.MAX_DIM}"),
    (_heisenberg_file(brackets=[{"i": 1, "j": 2, "coeffs": {"3": "1"}},
                                {"i": 1, "j": 2, "coeffs": {"3": "2"}}]),
     2, "brackets[1]: pair (1, 2) listed twice"),
    (_heisenberg_file(brackets=[{"i": 1, "j": 2, "coeffs": {"3": "1", "03": "2"}}]),
     2, "brackets[0].coeffs['03']: index 3 listed twice"),
    ('{"dim": 3, "dim": 4}', 2, "key 'dim': listed twice in one object"),
    ('{"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1", "3": "2"}}]}',
     2, "key '3': listed twice in one object"),
    ('{"dim": 3.7}', 2, "dim: bad value 3.7"),
    ('{"dim": true}', 2, "dim: bad value True"),
    ('{"dim": 3, "brackets": [{"i": 1.9, "j": 2, "coeffs": {"3": "1"}}]}',
     2, "brackets[0].i: bad value 1.9"),
    ('{"dim": 3, "brackets": [{"i": 1, "j": true, "coeffs": {"3": "1"}}]}',
     2, "brackets[0].j: bad value True"),
    # [e1, e2] = e1: Jacobi holds, but the algebra is not nilpotent
    (_heisenberg_file(dim=2, labels=None,
                      brackets=[{"i": 1, "j": 2, "coeffs": {"1": "1"}}]),
     0, "not nilpotent: characteristic sequence skipped"),
]


@pytest.mark.parametrize("content,code,fragment", ALGEBRA_FILES, ids=[
    "zero-denominator", "decimal", "no-dim", "negative-dim", "truncated",
    "target-out-of-range",
    "label-count", "deeply-nested", "dim-over-limit", "duplicate-pair",
    "duplicate-index", "repeated-key", "repeated-coeff-key", "float-dim", "bool-dim",
    "float-index", "bool-index", "not-nilpotent",
])
def test_check_file_malformed_or_not_nilpotent(tmp_path, content, code, fragment):
    path = tmp_path / "algebra.json"
    path.write_text(content)
    result = invoke("check", "--file", str(path), "--format", "json")
    assert result.exit_code == code
    assert not isinstance(result.exception, Exception)    # no traceback
    assert fragment in result.output
    if code == 2:
        assert result.output.count("\n") == 1
        assert result.output.startswith("Error: ")
    else:
        items = json.loads(result.output)["items"]
        assert [(i["id"], i["pass"]) for i in items] == [("jacobi", True), ("nilpotent", True)]


def test_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("NILFORM_SEED", "777")
    result = invoke("check", "--dims", "7..7", "--alpha", "1", "--format", "json")
    assert json.loads(result.output)["seed"] == 777


@pytest.mark.parametrize("args", [
    ("charnilp", "--dims", "7..7", "--alpha", "1"),
    ("dertower", "--family", "6", "--dim", "8", "--depth", "0"),
    ("tables", "--id", "1", "--m", "4"),
], ids=["charnilp", "dertower", "tables"])
def test_seedless_commands(monkeypatch, args):
    """charnilp, dertower and tables draw nothing at random: their reports
    record seed null whatever NILFORM_SEED says, and --seed is a usage error."""
    monkeypatch.setenv("NILFORM_SEED", "777")
    result = invoke(*args, "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.output)["seed"] is None
    result = invoke(*args, "--seed", "1")
    assert result.exit_code == 2
    assert "--seed" in result.output


def test_seed_env_malformed_is_a_usage_error(monkeypatch):
    monkeypatch.setenv("NILFORM_SEED", "abc")
    result = invoke("check", "--dims", "7..7")
    assert result.exit_code == 2
    assert not isinstance(result.exception, Exception)    # no traceback
    assert result.output.count("\n") == 1
    assert result.output.startswith("Error: ")
    assert "NILFORM_SEED" in result.output


def test_report_determinism():
    a = invoke("distinguish", "--dim", "12", "--format", "json").output
    b = invoke("distinguish", "--dim", "12", "--format", "json").output
    assert a == b


def test_catalog_errata_command():
    result = invoke("catalog", "errata", "--family", "61")
    assert result.exit_code == 0
    assert "reconstructed" in result.output


def test_dertower_family_1_reports_positive_rank():
    result = invoke("dertower", "--family", "1", "--dim", "10", "--depth", "1")
    assert result.exit_code == 0
    assert "diagonal rank level 0: computed=2" in result.output


def test_tables_1_center_column():
    import csv as csvmod
    import io

    result = invoke("tables", "--id", "1", "--m", "4..4", "--format", "csv")
    assert result.exit_code == 0
    rows = list(csvmod.reader(io.StringIO(result.output)))[1:]
    zs = [row[1].split()[0] for row in rows]
    assert zs == ["dimZ=2", "dimZ=3", "dimZ=3", "dimZ=3"]


def test_reports_survive_a_pruned_deviation_ledger(monkeypatch):
    from nilform import tables

    pruned = {
        key: note
        for key, note in tables.KNOWN_DEVIATIONS.items()
        if key not in (("der_tower", 81), ("charseq", "m1-families"))
    }
    monkeypatch.setattr(tables, "KNOWN_DEVIATIONS", pruned)
    for args in (("dertower", "--family", "81", "--dim", "7"),
                 ("check", "--dims", "10..10", "--alpha", "1")):
        result = invoke(*args, "--format", "json")
        assert not isinstance(result.exception, Exception), args    # no traceback
        assert result.exit_code == 1, args          # the deviations still fail
        notes = [item.get("note", "") for item in json.loads(result.output)["items"]]
        assert notes and not any("known deviation" in note for note in notes), args
