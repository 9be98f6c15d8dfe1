import pytest

from nilform import catalog, tables, verify
from nilform.lie import abelian
from nilform.rational import rat


def test_corollary_sums_suite():
    report = verify.corollary_sums_suite(pairs=((65, 83), (81, 81)))
    assert report.ok
    assert all("nilindex=5" in item.computed for item in report.items)


def test_check_algebra_file_nilpotent_report():
    report = verify.check_algebra_file(abelian(3))
    assert report.ok
    ids = [item.id for item in report.items]
    assert ids == ["jacobi", "char_sequence", "nonsplit"]


def test_weight_row_match_direct_known_row():
    g = catalog.build(58, 5)
    ok, degenerate, detail = verify.weight_row_match(g, tables.TABLE8[58])
    assert ok and not degenerate, detail
    # the partner row does not fit
    ok2, _, _ = verify.weight_row_match(g, tables.TABLE8[75])
    assert not ok2


def test_structural_suite_reconstruction_notes():
    report = verify.tables_structural_suite(6, [3], alphas=(rat(1),))
    noted = {i.id.split(",")[0] for i in report.items if "repaired" in i.note}
    assert noted == {"g7^81", "g7^82"}


def test_charnilp_suite_informational_dimension():
    report = verify.charnilp_suite([10], alphas=(rat(1),))
    assert report.ok                      # no printed expectation at n=10
    assert "informational" in report.items[0].expected


@pytest.mark.parametrize("n, count", [(12, 10), (13, 7)])
def test_distinguish_unresolved_rows_pinned(n, count):
    """The pairs a fingerprint cannot separate are reported without a verdict.

    The unresolved pairs lie among 6, 7 (alpha = 1, 2), 9 and 11 at even n,
    and among 65, 66 (alpha = 1, 2) and 68, plus 81 ~ 83, at odd n.  One
    pair per n is the same alpha family; every other pair is deferred with
    nothing more said.
    """
    report = verify.distinguish_suite(n, alphas=(rat(1), rat(2)))
    rows = [i for i in report.items if i.id.startswith("unresolved ")]
    assert len(rows) == count
    alpha_rows = [i for i in rows if i.note.startswith("alpha-family members")]
    assert len(alpha_rows) == 1
    assert all(i.note == "deferred to external ideal-class labels"
               for i in rows if i not in alpha_rows)
