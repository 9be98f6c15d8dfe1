"""Printed expected values, loaded from the bundled JSON fixtures.

data/expected_tables.json holds the structural columns (dim Z, dim C1,
C1-abelian flags), the derivation-dimension closed forms, the printed
weight-factor rows, the characteristic-nilpotency classification and the
distinction-pair lists.  Every consumer diffs computed values against
these; KNOWN_DEVIATIONS records the rows where exact recomputation
contradicts the printed value, so the suites can report them as expected
discrepancies instead of silently patching them.
"""

from __future__ import annotations

import json
from importlib import resources

from .linform import LinearForm
from .rational import parse_rat


def _load():
    with resources.files(__package__).joinpath("data/expected_tables.json").open() as fh:
        return json.load(fh)


_DATA = _load()

DIM_CENTER = {int(k): v for k, v in _DATA["dim_center"].items()}
DIM_DERIVED = {int(k): v for k, v in _DATA["dim_derived"].items()}
DERIVED_ABELIAN = {int(k): v for k, v in _DATA["derived_abelian"].items()}
DER_DIMENSION = {int(k): tuple(v) for k, v in _DATA["der_dimension"].items()}
TABLE_OF_FAMILY = {int(k): v for k, v in _DATA["table_of_family"].items()}
PROP2_POSITIVES = {int(k): set(v) for k, v in _DATA["prop2_positives"].items()}
REMARK_PAIRS_EVEN = [tuple(p) for p in _DATA["remark_pairs_even"]]
REMARK_PAIRS_ODD = [tuple(p) for p in _DATA["remark_pairs_odd"]]


def _parse_row(raw):
    factors = []
    for (a, b), mult in raw["factors"]:
        form = LinearForm({"f1^1": parse_rat(a), "f2^2": parse_rat(b)})
        factors.append((form, mult))
    return {"factors": factors, "tail_start": raw["tail_start"]}


TABLE8 = {}
TABLE9 = {}
for _fam, _raw in _DATA["weight_rows"].items():
    target = TABLE8 if _raw["table"] == 8 else TABLE9
    target[int(_fam)] = _parse_row(_raw)


def table_members(table_id):
    return sorted(i for i, t in TABLE_OF_FAMILY.items() if t == table_id)


def der_dimension_expected(i, m):
    a, b, c = DER_DIMENSION[i]
    return a * m * m + b * m + c


def provenance(table_id, family):
    return f"table {table_id}, row g^{family}"


# -- documented deviations ------------------------------------------------------
# Rows where exact recomputation contradicts the printed value.  Each entry
# explains the computed result; the suites report these as expected
# discrepancies rather than silent failures.

# The families that the ("charseq", "m1-families") entry below covers.
CHARSEQ_DEVIATING_FAMILIES = frozenset((1, 2, 3, 4, 5, 54, 55, 62, 63, 64))

KNOWN_DEVIATIONS = {
    ("charseq", "m1-families"): (
        "families 1-5, 54, 55, 62, 63, 64 (the ones with [X5,X2]=[X3,X4]=Y1) "
        "have characteristic sequence (5,2,1,...) once a Heisenberg Y-pair is "
        "present: for X = X1 + a*X2 + b*Ypair the image of ad(X) picks up X6 "
        "independently of the chain, giving rank 5; affected at every m with "
        "a pair (families 4 and 55 at all m, the others for m > minimum)"
    ),
    ("der_dim", 25): "computed 2m^2-9m+18 (printed 2m^2-9m+17)",
    ("der_dim", 27): "computed 2m^2-9m+17 (printed 2m^2-9m+16)",
    ("der_dim", 34): "computed 2m^2-11m+26 (printed 2m^2-11m+27)",
    ("der_dim", 79): "computed 2m^2-7m+15 (printed 2m^2-7m+16)",
    ("der_dim", 80): "computed 2m^2-7m+14 (printed 2m^2-7m+13)",
    ("der_dim", 91): "computed 2m^2-9m+21; agrees with the printed "
                     "2m^2-7m+13 only at m=4 (the printed formula breaks the "
                     "block pattern of rows 87-92)",
    ("der_dim", 93): "computed 2m^2-7m+14; agrees with the printed "
                     "2m^2-5m+8 only at m=3 (the printed formula breaks the "
                     "block pattern of rows 93-95)",
    ("charnilp", 8): "computed positives {6, 7a, 9, 11, 14, 39}: families 14 "
                     "and 39 are characteristically nilpotent by exact "
                     "computation, 25 and 27 are not (no law in their "
                     "complete normal-form stratum is)",
    ("charnilp", 9): "computed positives {57}: no characteristically "
                     "nilpotent law exists in family 80's complete "
                     "normal-form sector at n=9 (exhaustive scan)",
    ("der_tower", 81): "the derivation algebra of g7^81 (and the printed "
                       "10-dimensional presentation itself) admits a "
                       "non-nilpotent derivation with nonzero trace; the "
                       "claimed characteristic nilpotency fails by exact "
                       "witness",
    ("weights", 14): "printed factor row is inconsistent with bracket "
                     "additivity for any diagonal torus of the law",
    ("weights", 22): "printed factor row is inconsistent with bracket "
                     "additivity for any diagonal torus of the law",
    ("weights", 49): "printed row omits the factor (3f1^1-lambda) carried "
                     "by Y1 (its siblings 45 and 47 include it)",
    ("weights", 86): "printed tail starts at i=5 but Y5 has the forced "
                     "weight 4f1^1+f2^2-mu2; the free pairs start at Y6",
    ("weights", "even-pairs"): "the rows of the even distinction pairs "
                     "(12,20), (13,21), (14,22), (15,23) are printed under "
                     "the opposite labels; each computed signature matches "
                     "its partner's printed row exactly",
}

# Families whose encoded law deviates from (or completes) the printed text.
RECONSTRUCTED_NOTE = {
    61: "reconstructed (no printed bullet)",
    81: "repaired (printed bullet lacks the o6 brackets)",
    82: "repaired (carries the bullet printed under 81)",
}
