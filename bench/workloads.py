"""The benchmark's three workloads: inputs, steps and correctness gates.

A workload is a list of steps run in order; one pass over the list is a
cycle.  A step does real library work inside the timed region and returns
its raw output; its ``check`` runs afterwards, outside the timed region,
and returns one entry per item (None for a correct item, else a reason).
Suite steps produce one item per report row; the other steps produce one.

Inputs come from the workload seed only.  The library itself runs with its
default seeds, exactly as the CLI does.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable

from nilform import catalog, derivations, invariants, tables, template, verify
from nilform.linalg import Matrix, char_poly, rank
from nilform.rational import rat

CATALOG_DIMS = tuple(range(7, 14))
# Report rows per dimension of `check --dims 7..13` with the default alphas.
CATALOG_ROWS = {7: 30, 8: 44, 9: 52, 10: 56, 11: 53, 12: 56, 13: 53}

# Instances whose printed law is not (n-5)-filiform (criterion 1 companion).
EXPECTED_NONFILIFORM = {
    *((10, i) for i in (1, 2, 3, 4, 5)),
    *((12, i) for i in (1, 2, 3, 4, 5)),
    *((9, i) for i in (55, 62, 63, 64)),
    *((11, i) for i in (54, 55, 62, 63, 64)),
    *((13, i) for i in (54, 55, 62, 63, 64)),
}

# Criterion-10 picks with their pinned characteristic-nilpotency verdicts.
CONJUGATE_PICKS = [
    (65, 3, None, True), (66, 3, rat(2), True), (81, 3, None, True),
    (84, 3, None, False), (99, 3, None, False), (6, 4, None, True),
    (7, 4, rat(1, 2), True), (24, 4, None, False), (39, 4, None, True),
    (51, 4, None, False),
]

# Derivation-dimension rows that deviate, with the computed closed forms
# (criterion 3 companion).
DER_DIM_COMPUTED = {
    25: (2, -9, 18), 27: (2, -9, 17), 34: (2, -11, 26),
    79: (2, -7, 15), 80: (2, -7, 14), 91: (2, -9, 21), 93: (2, -7, 14),
}
STRUCTURAL_M = (4, 5, 6)
STRUCTURAL_ROWS = {1: 12, 2: 63, 3: 18, 4: 72, 5: 81, 6: 21, 7: 54}
WEIGHT_M = (5, 6)
WEIGHT_ROWS = {8: 32, 9: 48}
WEIGHT_FAILING = {49, 86}                      # criterion 9
WEIGHT_SWAPPED = {12, 13, 14, 15, 20, 21, 22, 23}  # table 8, n = 10 and 12
# Characteristically nilpotent families by dimension (criterion 5 companion).
CHARNILP_POSITIVES = {7: {65, 66, 68, 70, 81, 83}, 8: {6, 7, 9, 11, 14, 39}, 9: {57}}
ORACLE_TRIALS = 100                            # per transform type

ROW_LABEL = re.compile(r"^g(\d+)\^(\d+)(?:,a=[^,]+)?,m=(\d+)$")


@dataclass
class Step:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    rows: int                    # items the step yields (report rows, or 1)
    suite: bool = False          # items are report rows timed by Report.add


@dataclass
class Workload:
    name: str
    steps: list = field(default_factory=list)
    expect: dict = field(default_factory=dict)


def _rows_check(expected_rows, row_check):
    """Check a report row by row; a changed row count fails the whole step."""

    def check(report):
        if len(report.items) != expected_rows:
            return [f"{len(report.items)} rows, pinned {expected_rows}"] * expected_rows
        return [row_check(item) for item in report.items]

    return check


def _want(ok, reason):
    return None if ok else reason


# -- catalog-check ------------------------------------------------------------

def _catalog_row_check(expect):
    def row_check(item):
        parts = item.id.split("_")
        n, fam = int(parts[1]), int(parts[2])
        offshape = (n, fam) in expect["nonfiliform"]
        computed = item.computed
        if "jacobi=True" not in computed or "nonsplit=True" not in computed:
            return f"{item.id}: {computed}"
        if item.passed == offshape:
            return f"{item.id}: pass={item.passed}, expected off-shape={offshape}"
        if offshape:
            if "charseq=(5, 2," not in computed:
                return f"{item.id}: off-shape sequence {computed}"
            if not item.note.startswith("known deviation:"):
                return f"{item.id}: off-shape row without its note"
        else:
            want = tuple(invariants.p_filiform_sequence(n, n - 5))
            if f"charseq={want}" not in computed or "nilindex_ok=True" not in computed:
                return f"{item.id}: {computed}"
        if fam in tables.RECONSTRUCTED_NOTE and tables.RECONSTRUCTED_NOTE[fam] not in item.note:
            return f"{item.id}: reconstructed row without its note"
        if not offshape and fam not in tables.RECONSTRUCTED_NOTE and item.note:
            return f"{item.id}: unexpected note {item.note!r}"
        return None

    return row_check


def catalog_check(seed, small=False):
    """`check --dims 7..13`, one check_suite call per dimension."""
    dims = list(CATALOG_DIMS[:1] if small else CATALOG_DIMS)
    random.Random(seed).shuffle(dims)
    wl = Workload("catalog-check", expect={"nonfiliform": set(EXPECTED_NONFILIFORM)})
    row_check = _catalog_row_check(wl.expect)
    for n in dims:
        wl.steps.append(Step(
            f"check n={n}",
            lambda n=n: verify.check_suite([n]),
            _rows_check(CATALOG_ROWS[n], row_check),
            CATALOG_ROWS[n],
            suite=True,
        ))
    return wl


# -- conjugate-invariants -------------------------------------------------------

def _random_conjugator(rng, n):
    while True:
        t = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if rank(t) == n:
            return t


def _conjugate_check(expect, index, g):
    base = {}

    def check(out):
        h, fp, verdict = out
        if index not in base:
            base[index] = (invariants.fingerprint(g),
                           derivations.is_characteristically_nilpotent(g).value)
        base_fp, base_value = base[index]
        want = expect["verdicts"][index]
        if base_value != want:
            return [f"{g.meta['name']}: base verdict {base_value}, pinned {want}"]
        if fp != base_fp:
            return [f"{g.meta['name']}: conjugate fingerprint differs"]
        if verdict.value != base_value:
            return [f"{g.meta['name']}: conjugate verdict {verdict.value}"]
        if not verdict.value:
            w = verdict.witness
            if not derivations.is_derivation(h, w):
                return [f"{g.meta['name']}: witness is not a derivation"]
            if char_poly(w) == [rat(1)] + [rat(0)] * h.dim:
                return [f"{g.meta['name']}: witness is nilpotent"]
        return [None]

    return check


def conjugate_invariants(seed, small=False):
    """Fingerprint and char-nilpotency of random conjugates of the picks."""
    rng = random.Random(seed)
    picks = CONJUGATE_PICKS[:1] if small else CONJUGATE_PICKS
    wl = Workload("conjugate-invariants", expect={"verdicts": [p[3] for p in picks]})
    for index, (fam, m, alpha, _) in enumerate(picks):
        g = catalog.build(fam, m, alpha)
        t = _random_conjugator(rng, g.dim)

        def run(g=g, t=t):
            h = g.change_basis(t)
            return (h, invariants.fingerprint(h),
                    derivations.is_characteristically_nilpotent(h))

        wl.steps.append(Step(g.meta["name"], run, _conjugate_check(wl.expect, index, g), 1))
    return wl


# -- paper-tables -----------------------------------------------------------------

def _structural_row(item):
    match = ROW_LABEL.match(item.id)
    if not match:
        return f"{item.id}: unparsed row id"
    fam, m = int(match.group(2)), int(match.group(3))
    want_pass = True
    if fam in DER_DIM_COMPUTED:
        a, b, c = DER_DIM_COMPUTED[fam]
        truth = a * m * m + b * m + c
        if f"dimDer={truth}" not in item.computed:
            return f"{item.id}: {item.computed}, computed truth dimDer={truth}"
        want_pass = truth == tables.der_dimension_expected(fam, m)
        if not want_pass and "known deviation" not in item.note:
            return f"{item.id}: deviating row without its note"
    return _want(item.passed == want_pass, f"{item.id}: pass={item.passed}, pinned {want_pass}")


def _weight_row(table_id, expect):
    def row_check(item):
        match = ROW_LABEL.match(item.id)
        if not match:
            return f"{item.id}: unparsed row id"
        n, fam = int(match.group(1)), int(match.group(2))
        want_pass = fam not in expect["weight_failing"]
        if item.passed != want_pass:
            return f"{item.id}: pass={item.passed}, pinned {want_pass}"
        swapped = table_id == 8 and n in (10, 12) and fam in WEIGHT_SWAPPED
        return _want(("swapped" in item.note) == swapped, f"{item.id}: swap note {item.note!r}")

    return row_check


def _charnilp_row(item):
    n = int(item.id[2:])
    want_pass = n not in tables.PROP2_POSITIVES or tables.PROP2_POSITIVES[n] == CHARNILP_POSITIVES[n]
    if n in CHARNILP_POSITIVES and item.computed != f"positives={sorted(CHARNILP_POSITIVES[n])}":
        return f"{item.id}: {item.computed}"
    return _want(item.passed == want_pass, f"{item.id}: pass={item.passed}, pinned {want_pass}")


def _sums_row(item):
    return _want(item.passed and item.computed == "charnilp=True nilindex=5",
                 f"{item.id}: {item.computed}")


def _dertower_row(item):
    if item.id == "charnilp(Der(g7^81))":      # criterion 4 companion
        return _want(not item.passed and item.note.startswith("known deviation"),
                     f"{item.id}: pass={item.passed}")
    return _want(item.passed, f"{item.id}: {item.computed}")


def _oracle_trial(rng, kind):
    def q(nonzero=False):
        while True:
            v = rat(rng.randint(-6, 6), rng.randint(1, 10))
            if v or not nonzero:
                return v

    t = template.sample_transform_stratum(10, rng)
    if kind == "I":
        a = [q(True)] + [q() for _ in range(6)]
        b = [q(True), q(), q(), q(True), q()]

        def run():
            g = template.instantiate(t)
            got = template.template_match(g.change_basis(template.type_i_change(g, a, b)))
            return (template.constants_of_interest(got),
                    template.type_i_transformed_constants(t, a, b, corrected=True))
    else:
        a = [q(True)] + [q() for _ in range(7)]
        b2, b7, c2, b3, c3 = q(True), q(), q(True), q(), q()

        def run():
            g = template.instantiate(t)
            change = template.type_ii_change(g, a, b2, b7, c2, b3=b3, c3=c3)
            got = template.template_match(g.change_basis(change))
            return (template.constants_of_interest(got),
                    template.type_ii_transformed_constants(t, a, b2, b7, c2))
    return run


def _oracle_check(out):
    got, want = out
    bad = sorted(k for k, v in want.items() if got.get(k) != v)
    return [_want(not bad, f"closed form differs from conjugation at {bad}")]


def paper_tables(seed, small=False):
    """Tables 1-9, the char-nilpotency scan, towers and transform oracles."""
    wl = Workload("paper-tables", expect={"weight_failing": set(WEIGHT_FAILING)})
    structural = [1] if small else sorted(STRUCTURAL_ROWS)
    for tid in structural:
        wl.steps.append(Step(
            f"table {tid}",
            lambda tid=tid: verify.tables_structural_suite(tid, STRUCTURAL_M),
            _rows_check(STRUCTURAL_ROWS[tid], _structural_row),
            STRUCTURAL_ROWS[tid], suite=True,
        ))
    for tid in ([9] if small else sorted(WEIGHT_ROWS)):
        wl.steps.append(Step(
            f"table {tid}",
            lambda tid=tid: verify.weight_rows_suite(tid, WEIGHT_M),
            _rows_check(WEIGHT_ROWS[tid], _weight_row(tid, wl.expect)),
            WEIGHT_ROWS[tid], suite=True,
        ))
    if not small:
        wl.steps.append(Step(
            "charnilp n=7..13",
            lambda: verify.charnilp_suite(CATALOG_DIMS),
            _rows_check(len(CATALOG_DIMS), _charnilp_row), len(CATALOG_DIMS), suite=True,
        ))
        wl.steps.append(Step(
            "charnilp sums n=14", verify.corollary_sums_suite,
            _rows_check(3, _sums_row), 3, suite=True,
        ))
    for fam, dim in ([(81, 7)] if small else [(6, 8), (81, 7)]):
        wl.steps.append(Step(
            f"dertower g{dim}^{fam}",
            lambda fam=fam, dim=dim: verify.dertower_suite(fam, dim),
            _rows_check(7, _dertower_row), 7, suite=True,
        ))
    rng = random.Random(seed)
    trials = 2 if small else ORACLE_TRIALS
    for kind in ("I", "II"):
        for k in range(trials):
            wl.steps.append(Step(f"oracle type {kind} #{k}", _oracle_trial(rng, kind),
                                 _oracle_check, 1))
    return wl


WORKLOADS = {
    "catalog-check": catalog_check,
    "conjugate-invariants": conjugate_invariants,
    "paper-tables": paper_tables,
}
