"""Verification suites: recompute every printed quantity and diff it.

These back the CLI commands and the acceptance tests.  Rows where the
exact recomputation is known to contradict the printed value are marked
with a note (see tables.KNOWN_DEVIATIONS); they still count as failures
in the reports, because the diff itself is the product.
"""

from __future__ import annotations

from dataclasses import asdict

from . import catalog, tables
from .derivations import (
    derivation_algebra,
    derivation_space,
    derivation_tower_index,
    diagonal_derivations,
    is_characteristically_nilpotent,
    verify_weight_vector,
)
from .errors import NotNilpotent
from .invariants import (
    DEFAULT_SEED,
    char_sequence,
    nilindex,
    p_filiform_sequence,
    pairwise_distinguish,
)
from .reports import Report
from .rational import rat

F1 = "f1^1"
F2 = "f2^2"


# -- catalog shape checks -------------------------------------------------------

def check_instance(inst, seed=DEFAULT_SEED):
    """(jacobi ok, filiform ok, nilindex ok, nonsplit ok, char sequence)."""
    g = inst.algebra
    jac = g.jacobi_check() is None
    seq = char_sequence(g, seed=seed)
    fil = seq == p_filiform_sequence(g.dim, g.dim - 5)
    lcs = g.lower_central_series()          # its C^1 is [g, g]
    if lcs[-1].dim != 0:
        raise NotNilpotent("algebra is not nilpotent")
    nil = len(lcs) - 1 == seq[0]
    nonsplit = lcs[1].contains_subspace(g.center())
    return jac, fil, nil, nonsplit, seq


def check_suite(dims, alphas=catalog.DEFAULT_ALPHAS, seed=DEFAULT_SEED) -> Report:
    report = Report("check", seed)
    note_m1 = tables.KNOWN_DEVIATIONS.get(("charseq", "m1-families"))
    for n in dims:
        for inst in catalog.enumerate_instances(n, alphas=alphas):
            jac, fil, nil, nonsplit, seq = check_instance(inst, seed=seed)
            ok = jac and fil and nil and nonsplit
            note = ""
            if not fil and note_m1 and inst.family in tables.CHARSEQ_DEVIATING_FAMILIES:
                note = "known deviation: " + note_m1[:60] + "..."
            if inst.reconstructed:
                note = (note + "; " if note else "") + tables.RECONSTRUCTED_NOTE[inst.family]
            report.add(
                inst.id,
                f"jacobi={jac} charseq={tuple(seq)} nilindex_ok={nil} nonsplit={nonsplit}",
                f"jacobi pass, charseq {tuple(p_filiform_sequence(n, n - 5))}, Z in C1",
                "classification theorem",
                ok,
                note,
            )
    return report


def check_algebra_file(g, seed=DEFAULT_SEED) -> Report:
    report = Report("check-file", seed)
    failure = g.jacobi_check()
    report.add(
        "jacobi",
        "pass" if failure is None else str(failure),
        "pass",
        "Jacobi identity",
        failure is None,
    )
    if failure is not None:
        return report
    if not g.is_nilpotent():
        report.add("nilpotent", "False", "(informational)", "lower central series",
                   True, "not nilpotent: characteristic sequence skipped")
        return report
    seq = char_sequence(g, seed=seed)
    report.add("char_sequence", str(tuple(seq)), "(informational)",
               "characteristic sequence", True)
    report.add(
        "nonsplit",
        str(not g.has_abelian_direct_factor()),
        "(informational)",
        "center inside derived algebra",
        True,
    )
    return report


# -- structural tables (1-7) ------------------------------------------------------

def tables_structural_suite(table_id, m_values, alphas=catalog.DEFAULT_ALPHAS) -> Report:
    report = Report(f"table{table_id}")
    for i in tables.table_members(table_id):
        fam = catalog.FAMILIES[i]
        for m_req in m_values:
            m = max(m_req, fam.m_min)
            insts = (
                [catalog.build(i, m, a) for a in alphas]
                if fam.needs_alpha
                else [catalog.build(i, m)]
            )
            for g in insts:
                label = catalog.instance_label(i, fam.dimension(m), g.meta.get("alpha"))
                z = g.center().dim
                c1 = g.derived_subalgebra()
                oks = [z == tables.DIM_CENTER[i], c1.dim == tables.DIM_DERIVED[i]]
                computed = f"dimZ={z} dimC1={c1.dim}"
                expected = f"dimZ={tables.DIM_CENTER[i]} dimC1={tables.DIM_DERIVED[i]}"
                if i in tables.DERIVED_ABELIAN:
                    ab = g.is_abelian_subspace(c1)
                    oks.append(ab == tables.DERIVED_ABELIAN[i])
                    computed += f" C1abelian={ab}"
                    expected += f" C1abelian={tables.DERIVED_ABELIAN[i]}"
                note = tables.RECONSTRUCTED_NOTE.get(i, "")
                if i in tables.DER_DIMENSION:
                    d = derivation_space(g).dim
                    want = tables.der_dimension_expected(i, m)
                    oks.append(d == want)
                    computed += f" dimDer={d}"
                    expected += f" dimDer={want}"
                    if d != want and ("der_dim", i) in tables.KNOWN_DEVIATIONS:
                        note = (note + "; " if note else "") + \
                            "known deviation: " + tables.KNOWN_DEVIATIONS[("der_dim", i)]
                report.add(
                    f"{label},m={m}", computed, expected,
                    tables.provenance(table_id, i), all(oks), note,
                )
    return report


# -- weight rows (tables 8-9) ------------------------------------------------------

def weight_row_match(g, row):
    """Compare the diagonal weights of g against a printed factor row.

    The printed forms are read as functions of the X1 and X2 weights; the
    trailing product over mu_i absorbs exactly the leftover weights.
    Returns (matched, degenerate, detail): degenerate marks rows whose
    substitution collapses parameters (forced relations or zero rank).
    """
    sig = diagonal_derivations(g)
    w1, w2 = sig.weights[0], sig.weights[1]
    assignment = {F1: w1, F2: w2}
    printed = []
    for form, mult in row["factors"]:
        printed.extend([form.substitute(assignment)] * mult)
    computed = dict(sig.multiset())
    for w in printed:
        if computed.get(w, 0) <= 0:
            return False, False, f"printed factor ({w}) not among computed weights"
    leftover = dict(computed)
    for w in printed:
        leftover[w] -= 1
    nleft = sum(v for v in leftover.values() if v > 0)
    ny = g.dim - 6
    tail = max(0, ny - row["tail_start"] + 1)
    if nleft != tail:
        return False, False, f"tail length {nleft} != printed {tail}"
    # Rank check: the abbreviated tail stands for free Heisenberg pairs
    # (one parameter per pair), on top of the substituted X1/X2 weights.
    from .linalg import Matrix, rank

    names = sorted(w1.variables() | w2.variables())
    if names:
        coeff_rows = [[w.coeffs.get(v, rat(0)) for v in names] for w in (w1, w2)]
        x_rank = rank(Matrix(coeff_rows))
    else:
        x_rank = 0
    implied_rank = x_rank + tail // 2
    if sig.rank != implied_rank:
        return False, False, f"rank {sig.rank} != implied {implied_rank}"
    return True, x_rank < 2, ""


def weight_rows_suite(table_id, m_values) -> Report:
    report = Report(f"table{table_id}")
    rows = tables.TABLE8 if table_id == 8 else tables.TABLE9
    pairs = dict()
    for a, b in tables.REMARK_PAIRS_EVEN + tables.REMARK_PAIRS_ODD:
        pairs[a] = b
        pairs[b] = a
    for i in sorted(rows):
        fam = catalog.FAMILIES[i]
        for m_req in m_values:
            m = max(m_req, fam.m_min)
            g = catalog.build(i, m)
            ok, degenerate, detail = weight_row_match(g, rows[i])
            verdict = "direct" if ok else ""
            if ok and degenerate:
                verdict = "direct (degenerate substitution)"
            if not ok and i in pairs and pairs[i] in rows:
                ok2, deg2, _ = weight_row_match(g, rows[pairs[i]])
                if ok2:
                    ok = True
                    verdict = f"matches the row printed for g^{pairs[i]} (swapped labels)"
            note = verdict
            swapped_note = tables.KNOWN_DEVIATIONS.get(("weights", "even-pairs"))
            if "swapped" in verdict and swapped_note:
                note += "; known deviation: " + swapped_note[:40] + "..."
            if not ok and ("weights", i) in tables.KNOWN_DEVIATIONS:
                note = "known deviation: " + tables.KNOWN_DEVIATIONS[("weights", i)]
            report.add(
                f"{catalog.instance_label(i, fam.dimension(m))},m={m}",
                "weights match printed factors" if ok else f"no match: {detail}",
                "printed factor row",
                tables.provenance(table_id, i),
                ok,
                note,
            )
    return report


# -- characteristic nilpotency ------------------------------------------------------

def _certificate_payload(result):
    if result.value:
        return {"charnilp": True, "engel_flag": asdict(result.flag)}
    from .rational import rat_str

    return {
        "charnilp": False,
        "witness": [[rat_str(x) for x in row] for row in result.witness.data],
    }


def charnilp_suite(dims, alphas=catalog.DEFAULT_ALPHAS, certificates=False) -> Report:
    report = Report("charnilp")
    for n in dims:
        positives = set()
        for inst in catalog.enumerate_instances(n, alphas=alphas):
            result = is_characteristically_nilpotent(inst.algebra)
            if result.value:
                positives.add(inst.family)
            if certificates:
                report.add(
                    inst.id, _certificate_payload(result), "(certificate)",
                    "characteristic nilpotency certificate", True,
                )
        if n in tables.PROP2_POSITIVES:
            expected = tables.PROP2_POSITIVES[n]
            ok = positives == expected
            note = ""
            if not ok and ("charnilp", n) in tables.KNOWN_DEVIATIONS:
                note = "known deviation: " + tables.KNOWN_DEVIATIONS[("charnilp", n)]
            report.add(
                f"n={n}",
                f"positives={sorted(positives)}",
                f"positives={sorted(expected)}",
                "characteristic nilpotency classification",
                ok,
                note,
            )
        else:
            report.add(
                f"n={n}", f"positives={sorted(positives)}", "(informational)",
                "characteristic nilpotency scan", True,
            )
    return report


def corollary_sums_suite(pairs=((65, 65), (65, 83), (83, 83))) -> Report:
    """Direct sums of 7-dimensional characteristically nilpotent entries."""
    report = Report("charnilp-sums")
    for a, b in pairs:
        ga = catalog.build(a, 3, 2 if catalog.FAMILIES[a].needs_alpha else None)
        gb = catalog.build(b, 3, 2 if catalog.FAMILIES[b].needs_alpha else None)
        s = ga.direct_sum(gb)
        cn = is_characteristically_nilpotent(s)
        nil = nilindex(s)
        ok = cn.value and nil == 5
        report.add(
            f"g7^{a} + g7^{b}",
            f"charnilp={cn.value} nilindex={nil}",
            "charnilp=True nilindex=5",
            "nilindex-5 sums of characteristically nilpotent ideals",
            ok,
        )
    return report


# -- derivation towers ------------------------------------------------------

def dertower_suite(family, dim, depth=1) -> Report:
    report = Report("dertower")
    m = dim // 2
    fam = catalog.FAMILIES[family]
    alpha = 2 if fam.needs_alpha else None
    g = catalog.build(family, m, alpha)
    label = catalog.instance_label(family, dim, alpha)
    space = derivation_space(g)
    report.add(
        f"{label}: dim Der", space.dim, "(informational)",
        "derivation algebra dimension", True,
    )
    sig = diagonal_derivations(g)
    report.add(
        f"{label}: diagonal rank level 0", sig.rank, "(informational)",
        "diagonal derivations in the defining basis", True,
    )
    tower = derivation_tower_index(g, max_depth=depth)
    for level in tower.levels:
        report.add(
            f"{label}: level {level.depth}",
            f"dim={level.dim} charnilp={level.char_nilpotent.value}",
            "(informational)",
            "derivation tower",
            True,
        )
    report.add(
        f"{label}: tower index",
        tower.index if tower.index is not None else f"exceeds {depth}",
        "(informational)",
        "first non-characteristically-nilpotent derivation algebra",
        True,
    )
    if family == 6 and dim == 8:
        v = [rat(x) for x in (1, 1, 2, 3, 4, 3, 4, 1, 2, 2, 3, 3, 2)]
        pres = catalog.derivation_presentation_g8_6()
        report.add(
            "printed Der(g8^6) weight vector",
            verify_weight_vector(pres, v),
            True,
            "printed diagonal weight solution",
            verify_weight_vector(pres, v),
        )
        report.add(
            "dim Der(g8^6)", space.dim, 13, "printed derivation dimension",
            space.dim == 13,
        )
    if family == 81 and dim == 7:
        report.add(
            "dim Der(g7^81)", space.dim, 10, "printed derivation dimension",
            space.dim == 10,
        )
        if depth >= 1:
            cn = tower.levels[1].char_nilpotent
        else:
            cn = is_characteristically_nilpotent(derivation_algebra(g))
        note = ""
        if not cn.value and ("der_tower", 81) in tables.KNOWN_DEVIATIONS:
            note = "known deviation: " + tables.KNOWN_DEVIATIONS[("der_tower", 81)]
        report.add(
            "charnilp(Der(g7^81))", cn.value, True,
            "printed characteristic nilpotency of the derivation algebra",
            cn.value, note,
        )
    return report


# -- distinction ------------------------------------------------------

def distinguish_suite(n, alphas=(rat(1), rat(2)), seed=DEFAULT_SEED) -> Report:
    report = Report("distinguish", seed)
    insts = catalog.enumerate_instances(n, alphas=alphas)
    result = pairwise_distinguish(insts, seed=seed)
    ids = [inst.id for inst in insts]
    fams = [inst.family for inst in insts]

    pairs = tables.REMARK_PAIRS_EVEN if n % 2 == 0 else tables.REMARK_PAIRS_ODD
    for a, b in pairs:
        ia = next((t for t, f in enumerate(fams) if f == a), None)
        ib = next((t for t, f in enumerate(fams) if f == b), None)
        if ia is None or ib is None:
            continue
        separated = result.class_of(ia) is not result.class_of(ib)
        fa, fb = result.fingerprints[ia], result.fingerprints[ib]
        mechanisms = []
        if fa.weights.canonical_key() != fb.weights.canonical_key():
            mechanisms.append("weight signature")
        if fa != fb:
            mechanisms.append(
                "dim Der" if fa.dim_der != fb.dim_der else "core fingerprint"
            )
        report.add(
            f"pair ({a},{b}) at n={n}",
            f"separated={separated} via {' + '.join(mechanisms) or 'none'}",
            "separated",
            "distinction remark pairs",
            separated,
        )

    report.add(
        f"n={n} classes", f"{len(result.classes)} classes of {len(insts)} instances",
        "(informational)", "pairwise distinction", True,
    )
    for (x, y) in result.unresolved_pairs:
        if fams[x] == fams[y]:
            note = "alpha-family members (identified for +/-alpha)"
        else:
            note = "deferred to external ideal-class labels"
        report.add(
            f"unresolved {ids[x]} ~ {ids[y]}",
            "same fingerprint", "(reported, not merged)",
            "pairwise distinction", True, note,
        )
    return report
