"""Differential tests: characteristic-sequence sampling against the reference.

`reference_invariants` tries every candidate, pruning only on the rank of
ad(x), and `reference_linalg` forms the powers of ad(x) to rank them.  The
sampling in `nilform.invariants` drops a candidate on any prefix of its
rank sequence, and stops at the C1 ceiling or at a witness whose ranks of
ad(x)^j, for the powers j its profile needs, the cokernel or kernel
certificates show to be generic; and `rank_sequence` ranks integer images
instead of powers.  Both must give exactly the same rank sequences,
sequences and witnesses.  The sets are every catalog instance at
n = 7..13, seeded random conjugates (dense structure constants), and
abelian(4), heisenberg(2), g7^65 + abelian(1) and g8^7 with alpha = 1/2.

The sampling runs on `LieAlgebra.adapted()`: the catalog keeps its basis,
and a dense input is sampled on h = change_basis(T), whose witness maps
back to x = T x'.  So the reference samples h too, and the certificates
are checked on the inputs the sampling meets, each in its adapted basis:
the maps of ad(x) and ad(x)^2 against the rational reference bracket,
the degree-1 systems against the reference builders, and the prefix
bound and the stop rule against every partition of n <= 10.  The builder
never writes a row with one entry; for every power-1 and power-2
certificate, on the catalog at n = 7..15, on the adapted dense conjugates
at n = 7..9 with their quotients by Z and on the small set, it must give
the reference builder's (free, maps) and hand the integer kernel the
reference rows with their one-entry rows substituted, in order.  The
tests pin which certificates the sampling solves on the catalog, on
seeded dense conjugates at n = 12 and 13 and on the dense file in
tests/data, and that every sequence of the dense conjugates at n = 7..9
and their quotients is exact.
"""

import random
from functools import cache
from pathlib import Path

import pytest

import reference_invariants as ref_inv
import reference_lie as ref_lie
import reference_linalg as ref
from nilform import catalog, invariants, linalg, serialize
from nilform.errors import DimensionMismatch, NotNilpotent
from nilform.invariants import (
    CHAR_SEQUENCE_SAMPLES,
    DEFAULT_SEED,
    _candidates,
    _generic_rank_bound,
    _power_maps,
    _profile_upper_bound,
    char_sequence_of_vector,
    char_sequence_with_witness,
)
from nilform.lie import LieAlgebra, abelian, heisenberg
from nilform.linalg import (
    Matrix,
    _echelon,
    _image_ranks,
    _integer_row,
    _primitive,
    _remainder,
    inverse,
    kernel_basis,
    matmul,
    rank,
    rank_sequence,
)
from nilform.rational import ONE, ZERO, rat


def _entry(rng, zeros=0.4):
    if rng.random() < zeros:
        return ZERO
    return rat(rng.randint(-6, 6), rng.randint(1, 4))


def _random_matrix(rng, nrows, ncols, zeros=0.4):
    return Matrix([[_entry(rng, zeros) for _ in range(ncols)] for _ in range(nrows)])


def _invertible(rng, n):
    while True:
        t = _random_matrix(rng, n, n, zeros=0.2)
        if rank(t) == n:
            return t


def _conjugated(rng, a):
    t = _invertible(rng, a.nrows)
    return ref.matmul(ref.matmul(t, a), inverse(t))


def _block_diagonal(a, b):
    n, m = a.nrows, b.nrows
    rows = [list(r) + [ZERO] * m for r in a.data]
    rows += [[ZERO] * n + list(r) for r in b.data]
    return Matrix(rows, copy=False)


def _square_matrices(seed):
    """Nilpotent and non-nilpotent dense rational matrices, zero and 0x0."""
    rng = random.Random(seed)
    out = [Matrix.zeros(0, 0), Matrix.zeros(4, 4), Matrix.identity(3)]
    for k in range(24):
        n = rng.randint(1, 9)
        strict = Matrix([
            [_entry(rng) if j > i else ZERO for j in range(n)] for i in range(n)
        ])
        kind = k % 3
        if kind == 0:                           # nilpotent
            a = strict
        elif kind == 1:                         # nilpotent block + invertible block
            a = _block_diagonal(strict, _invertible(rng, rng.randint(1, 3)))
        else:                                   # generic
            a = _random_matrix(rng, n, n)
        out.append(_conjugated(rng, a))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kmax", [None, 1, 2])
def test_rank_sequence_matches_reference(seed, kmax):
    for a in _square_matrices(seed):
        assert rank_sequence(a, kmax) == ref.rank_sequence(a, kmax)


def test_rank_sequence_rejects_non_square():
    a = Matrix.zeros(2, 3)
    with pytest.raises(DimensionMismatch):
        rank_sequence(a)
    with pytest.raises(DimensionMismatch):
        ref.rank_sequence(a)


@pytest.mark.parametrize("seed", [1, 2])
def test_matmul_matches_reference(seed):
    rng = random.Random(seed)
    pairs = [
        (Matrix([[1, 0], [rat(-1, 2), 3], [0, 2]]), Matrix.zeros(2, 0)),  # zero-width factor
        (Matrix.zeros(0, 0), Matrix.zeros(0, 0)),
    ]
    for _ in range(40):
        p, q, r = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 6)
        pairs.append((_random_matrix(rng, p, q), _random_matrix(rng, q, r)))
    for a, b in pairs:
        assert matmul(a, b) == ref.matmul(a, b)


def _conjugate(g, rng):
    n = g.dim
    while True:
        t = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if rank(t) == n:
            return g.change_basis(t)


@cache
def _algebras(name):
    if name == "catalog":
        return tuple(
            inst.algebra for n in range(7, 14) for inst in catalog.enumerate_instances(n)
        )
    if name == "conjugates":
        rng = random.Random(2025)
        picks = (catalog.build(65, 3), catalog.build(84, 3), catalog.build(6, 4))
        return tuple(_conjugate(g, rng) for g in picks for _ in range(2))
    return (
        abelian(4),
        heisenberg(2),
        catalog.build(65, 3).direct_sum(abelian(1)),
        catalog.build(7, 4, rat(1, 2)),             # structure constants with denominator 2
    )


SETS = ["catalog", "conjugates", "small"]


def _adapted(algebras):
    """The inputs the sampling meets: each algebra in the basis of `LieAlgebra.adapted()`."""
    return tuple(g.adapted()[0] for g in algebras)


def _mapped_back(t, x):
    """T x for the matrix T of a `BasisChange` and a rational vector x."""
    return [sum((t.matrix[i, j] * v for j, v in enumerate(x)), ZERO) for i in range(len(x))]


def _reference(g, **kwargs):
    """The reference's sequence and witness x' on g.adapted(), the witness mapped back to x = T x'."""
    h, t = g.adapted()
    seq, x = ref_inv.char_sequence_with_witness(h, **kwargs)
    return seq, x if t is None else _mapped_back(t, x)


@pytest.mark.parametrize("name", SETS)
def test_subspace_reduce_matches_reference(name):
    """Membership in C1 and Z agrees with the reference `reduce` to zero.

    The vectors are random ones (mostly outside C1) and random integer
    combinations of C1's basis (inside), so both verdicts occur.
    """
    rng = random.Random(4)
    verdicts = set()
    for g in _algebras(name):
        c1, z = g.derived_subalgebra(), g.center()
        basis = c1.basis_vectors()
        vectors = [[_entry(rng) for _ in range(g.dim)] for _ in range(4)]
        for _ in range(4):
            coeffs = [rng.randint(-3, 3) for _ in basis]
            vectors.append(
                [sum((c * row[i] for c, row in zip(coeffs, basis)), ZERO) for i in range(g.dim)]
            )
        for v in vectors:
            verdict = c1.contains(v)
            assert verdict == ref_inv.contains(c1, v)
            verdicts.add(verdict)
        for v in basis:
            assert c1.contains(v) and ref_inv.contains(c1, v)
        for a, b in ((c1, z), (z, c1)):
            assert a.contains_subspace(b) == all(ref_inv.contains(a, v) for v in b.basis_vectors())
    assert verdicts == {False, True}


@pytest.mark.parametrize("name", SETS)
def test_char_sequence_matches_reference(name):
    for g in _algebras(name):
        assert char_sequence_with_witness(g) == _reference(g)


@pytest.mark.parametrize("seed,samples", [(1, 0), (7, 4), (11, 64)])
def test_char_sequence_matches_reference_across_seeds(seed, samples):
    for g in _algebras("conjugates"):
        assert (char_sequence_with_witness(g, seed=seed, samples=samples)
                == _reference(g, seed=seed, samples=samples))


CERTIFICATES = {"cokernel": True, "kernel": False}        # name: transpose


def _stop_power(n, seq):
    """The least k whose rank prefix r_1..r_k already bounds the profile seq by itself."""
    ranks = _ranks(seq)
    return next(k for k in range(1, len(ranks) + 1) if _profile_upper_bound(n, ranks[:k]) == seq)


def _spanned(s):
    """True when every vector of the reduced basis of the Subspace s has a single nonzero coordinate."""
    return all(sum(1 for c in v if c) == 1 for v in s.basis_vectors())


def _spanned_by_basis_vectors(g):
    """True when C1 is spanned by basis vectors (`_spanned`)."""
    return _spanned(g.derived_subalgebra())


def _outcome(g, seq, witness):
    """How the sampling of g, an adapted algebra, may stop: "ceiling", "certified" or "exhausted".

    "certified" when, with r_1, r_2, ... the ranks of the powers of
    ad(witness) and k the least length whose prefix bounds seq by itself
    (`_stop_power`), each power j <= k has r_j >= dim C1, or a cokernel or
    kernel certificate that bounds the generic rank of ad(x)^j by r_j at
    the witness.
    """
    n = g.dim
    seq = tuple(seq)
    d = g.derived_subalgebra().dim
    if seq == _profile_upper_bound(n, [d]):
        return "ceiling"
    w = _integer_row(enumerate(witness))
    if all(
        r >= d or any(_generic_rank_bound(_power_maps(g, j, t), n, w) <= r
                      for t in CERTIFICATES.values())
        for j, r in enumerate(_ranks(seq)[:_stop_power(n, seq)], 1)
    ):
        return "certified"
    return "exhausted"


def _record_ad_columns(monkeypatch):
    """The integer rows x of every `LieAlgebra.ad_columns(x)` call, in a list cleared by the caller."""
    seen = []
    ad_columns = LieAlgebra.ad_columns

    def recording_ad_columns(g, v):
        seen.append(v)
        return ad_columns(g, v)

    monkeypatch.setattr(LieAlgebra, "ad_columns", recording_ad_columns)
    return seen


def _tried(g):
    """The integer rows of the candidates outside C1, in the order the sampling tries them."""
    c1 = g.derived_subalgebra()
    return [_integer_row(enumerate(x))
            for x in ref_inv.candidates(g.dim) if any(x) and not c1.contains(x)]


def test_char_sequence_stops_at_the_ceiling(monkeypatch):
    """ad(x) is built for the candidates up to the witness after a ceiling or a certified stop, else for all.

    Every candidate outside C1 is otherwise tried: the n basis vectors and
    the 64 random ones, minus those in C1.  The sampling builds ad(x) as
    integer columns, through `LieAlgebra.ad_columns` on the primitive
    integer row of x.  On the catalog at n = 7..13, 171 sequences reach
    the C1 ceiling and 173 stop at a certified witness, none tries every
    candidate: 149 stop on the rank of ad(x) and the 24 off-shape
    (5, 2, 1, ...) instances on the ranks of ad(x) and ad(x)^2.  The six
    dense conjugates are sampled on their adapted basis: the four of g7^65
    and g8^6 (dim C1 = 5) certify on the rank of ad(x), and the two of
    g7^84 (dim C1 = 4) reach the ceiling.
    """
    seen = _record_ad_columns(monkeypatch)
    counts = {}
    powers = []
    for name in ("catalog", "conjugates"):
        counts[name] = {"ceiling": 0, "certified": 0, "exhausted": 0}
        for g in _adapted(_algebras(name)):
            seen.clear()
            seq, witness = char_sequence_with_witness(g)
            calls = list(seen)
            outcome = _outcome(g, seq, witness)
            counts[name][outcome] += 1
            tried = _tried(g)
            if outcome == "exhausted":
                assert calls == tried
            else:
                assert calls == tried[:len(calls)]
                assert calls[-1] == _integer_row(enumerate(witness))
            if outcome == "certified":
                powers.append(_stop_power(g.dim, tuple(seq)))
                if powers[-1] == 2:
                    assert tuple(seq)[:2] == (5, 2)
    assert counts["catalog"] == {"ceiling": 171, "certified": 173, "exhausted": 0}
    assert counts["conjugates"] == {"ceiling": 2, "certified": 4, "exhausted": 0}
    assert sorted(powers) == [1] * 153 + [2] * 24


def _record_certificates(monkeypatch):
    """The (power, transpose) of every certificate the sampling solves, in a list cleared by the caller."""
    solved = []
    power_maps = invariants._power_maps

    def recording_power_maps(g, power, transpose):
        solved.append((power, transpose))
        return power_maps(g, power, transpose)

    monkeypatch.setattr(invariants, "_power_maps", recording_power_maps)
    return solved


@pytest.mark.parametrize("family,m", [(65, 6), (6, 6)], ids=["g13^65", "g12^6"])
def test_cost_rule_on_dense_conjugates_at_n_12_13(monkeypatch, family, m):
    """At n = 12, 13 a dense conjugate, sampled on its adapted basis, certifies at its first candidate.

    The sequence and the witness equal the reference's on the adapted
    basis, mapped back.  The power-1 cokernel is solved at the first
    candidate of h and certifies there, so ad(x) is built for that
    candidate alone, and no other system is solved.
    """
    seen = _record_ad_columns(monkeypatch)
    solved = _record_certificates(monkeypatch)
    g = _conjugate(catalog.build(family, m), random.Random(0))
    h = g.adapted()[0]
    assert g.dim in (12, 13)
    seq, witness = char_sequence_with_witness(g)
    calls = list(seen)
    assert (seq, witness) == _reference(g)
    assert not _spanned_by_basis_vectors(g) and _spanned_by_basis_vectors(h)
    assert solved == [(1, True)]
    assert calls == _tried(h)[:1] == [_integer_row(enumerate(ref_inv.char_sequence_with_witness(h)[1]))]


def test_dense_file_certifies_at_power_one(monkeypatch):
    """The seeded dense conjugate of g7^65 in tests/data, sampled on its adapted basis, stops at its first witness, certified at power 1.

    CI checks the same file through the installed CLI, `check --file`.
    """
    seen = _record_ad_columns(monkeypatch)
    solved = _record_certificates(monkeypatch)
    g = serialize.load(Path(__file__).parent / "data" / "dense_g7_65.json")
    h = g.adapted()[0]
    seq, witness = char_sequence_with_witness(g)
    calls = list(seen)
    assert (seq, witness) == _reference(g)
    assert tuple(seq) == (5, 1, 1) and g.derived_subalgebra().dim == 5
    h_witness = ref_inv.char_sequence_with_witness(h)[1]
    assert _outcome(h, seq, h_witness) == "certified" and solved == [(1, True)]
    assert calls == _tried(h)[:1] == [_integer_row(enumerate(h_witness))]


def test_catalog_solves_every_certificate_its_stops_need(monkeypatch):
    """The catalog is sampled in its own basis, where C1 is spanned by basis vectors.

    Over the 344 instances at n = 7..13 the sampling solves the power-1
    cokernel 173 times, the power-1 kernel 28, the power-2 cokernel 24 and
    the power-2 kernel 13: one solve per certificate a stop tries.
    """
    solved = _record_certificates(monkeypatch)
    for g in _algebras("catalog"):
        assert g.adapted()[0] is g and _spanned_by_basis_vectors(g)
        char_sequence_with_witness(g)
    split = {key: solved.count(key) for key in set(solved)}
    assert split == {(1, True): 173, (1, False): 28, (2, True): 24, (2, False): 13}


def test_dense_sequences_are_exact_on_the_adapted_basis():
    """On the 504 dense algebras, every sequence is the C1 ceiling or certified.

    Every term of the lower central series of h = g.adapted()[0] is
    spanned by basis vectors, and g keeps h.  Sampling g gives the
    sequence and witness of sampling h, the witness mapped back by
    x = T x', and the profile of ad(x) in g is the sequence.  314
    sequences reach the C1 ceiling and 190 stop at a certified witness;
    none tries every candidate.
    """
    counts = {"ceiling": 0, "certified": 0, "exhausted": 0}
    for g in _power_map_algebras("conjugates"):
        h, t = g.adapted()
        assert t is not None and g.adapted()[0] is h
        assert all(_spanned(term) for term in h.lower_central_series())
        seq, witness = char_sequence_with_witness(g)
        h_seq, h_witness = char_sequence_with_witness(h)
        assert seq == h_seq and witness == _mapped_back(t, h_witness)
        assert char_sequence_of_vector(g, witness) == seq
        counts[_outcome(h, seq, h_witness)] += 1
    assert counts == {"ceiling": 314, "certified": 190, "exhausted": 0}


def _basis_brackets(g):
    """table[i][k] = the nonzero (t, c) of [e_i, e_k], from the reference bracket.

    Computed for i < k; [e_k, e_i] = -[e_i, e_k] and [e_i, e_i] = 0.
    """
    n = g.dim
    basis = [[ONE if t == i else ZERO for t in range(n)] for i in range(n)]
    table = [[[] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(i + 1, n):
            table[i][k] = [(t, c) for t, c in enumerate(ref_lie.bracket(g, basis[i], basis[k])) if c]
            table[k][i] = [(t, -c) for t, c in table[i][k]]
    return table


def _chains(n, table, power):
    """chains[k] = the (seq, w) with w = [e_a1, [e_a2, ... [e_aj, e_k]]] != 0, seq = (a1, ..., aj).

    Over every ordered seq of length j = `power`, in rationals {t: c}, from
    the brackets of basis vectors (`_basis_brackets`).
    """
    chains = [[((), {k: ONE})] for k in range(n)]
    for _ in range(power):
        longer = []
        for level in chains:
            out = []
            for seq, w in level:
                for a in range(n):
                    acc = {}
                    for m, c in w.items():
                        for t, y in table[a][m]:
                            acc[t] = acc.get(t, ZERO) + c * y
                    acc = {t: c for t, c in acc.items() if c}
                    if acc:
                        out.append(((a,) + seq, acc))
            longer.append(out)
        chains = longer
    return chains


def _c1_pivots(g, table):
    """The pivot columns P of the rref of C1, from the reference brackets of basis vectors."""
    n = g.dim
    vecs = []
    for i in range(n):
        for k in range(i + 1, n):
            v = [ZERO] * n
            for t, c in table[i][k]:
                v[t] = c
            vecs.append(v)
    return ref.rref(Matrix(vecs))[2] if vecs else ()


def _identity_terms(n, chains, transpose, pivots):
    """terms[i] = the (seq, component, y) through which entry (i, b) of a map enters its identity.

    Kernel (ad(x)^j M x = 0): M_kb adds y = (ad(e_seq) e_k)_t to the
    coefficient of x^seq x_b, component t.  Cokernel
    (sum over p in P of (V x)_p (ad(x)^j y)_p = 0, P = `pivots`): V_pb
    adds y = (ad(e_seq) e_k)_p to the coefficient of x^seq x_b y_k; an
    entry off P enters no identity.
    """
    terms = [[] for _ in range(n)]
    for k, level in enumerate(chains):
        for seq, w in level:
            for t, y in w.items():
                if not transpose:
                    terms[k].append((seq, t, y))
                elif t in pivots:
                    terms[t].append((seq, k, y))
    return terms


def _identities_hold(terms, m):
    """Every coefficient of the identity is 0 for the map m, given by sparse integer columns."""
    value = {}
    for b, col in enumerate(m):
        for i, c in col.items():
            for seq, comp, y in terms[i]:
                key = (tuple(sorted(seq + (b,))), comp)
                value[key] = value.get(key, ZERO) + c * y
    return not any(value.values())


def _matrices(certificate, n):
    """Every solution a certificate (free, maps) lists, as sparse integer columns."""
    free, maps = certificate
    units = []
    for k, js in free.items():
        for j in js:
            cols = [{} for _ in range(n)]
            cols[j][k] = 1
            units.append(cols)
    return units + maps


def _known_maps(g, certificate, power, pivots):
    """Solutions every algebra has, flattened: M = I; V = v e_b^T for v orthogonal to C^j on P, and V off P.

    ad(x)^j maps g into C^j, the j-th term of the lower central series,
    so v with sum over p in P of v_p w_p = 0 for every w in C^j solves
    the cokernel identity, and so does every map with its rows off P.
    """
    n = g.dim
    if certificate == "kernel":
        return [{k * n + k: 1 for k in range(n)}]
    term = g.lower_central_series()[power]
    on_p = Matrix([[w[p] for p in pivots] for w in term.basis_vectors()])
    perp = [_integer_row(enumerate(v)) for v in kernel_basis(on_p)]
    known = [{pivots[i] * n + b: c for i, c in v.items()} for v in perp for b in range(n)]
    return known + [{k * n + b: 1} for k in range(n) if k not in pivots for b in range(n)]


SOUNDNESS = [
    pytest.param(name, certificate, power,
                 id=f"{name}-{certificate}" + (f"-power{power}" if power > 1 else ""))
    for power in (1, 2) for certificate in CERTIFICATES for name in ("catalog", "conjugates")
]


@pytest.mark.parametrize("name,certificate,power", SOUNDNESS)
def test_certificate_is_sound(name, certificate, power):
    """Each map satisfies its identities, and the bound holds at every candidate.

    With j = `power` and P the pivot columns of C1, the kernel maps M have
    ad(x)^j M x = 0 and the cokernel maps V have
    sum over p in P of (V x)_p (ad(x)^j y)_p = 0, every coefficient
    checked against the rational reference bracket.  The bound at any
    candidate w bounds the generic rank of ad(x)^j, so the least bound
    over the candidates must be at least the largest rank of ad(x)^j over
    them.  The conjugates are taken in their adapted basis, on which the
    sampling solves them.
    """
    for g in _adapted(_algebras(name)):
        n = g.dim
        table = _basis_brackets(g)
        pivots = _c1_pivots(g, table)
        cert = _power_maps(g, power, CERTIFICATES[certificate])
        maps = _matrices(cert, n)
        flat = ({k * n + j: c for j, col in enumerate(m) for k, c in col.items()} for m in maps)
        span = _echelon(map(_primitive, flat), reduced=False)
        assert not any(_remainder(span, known) for known in _known_maps(g, certificate, power, pivots))
        terms = _identity_terms(n, _chains(n, table, power), CERTIFICATES[certificate], pivots)
        assert all(_identities_hold(terms, m) for m in maps)
        rows = [row for _, row in _candidates(n, DEFAULT_SEED, CHAR_SEQUENCE_SAMPLES)]
        bound = min(_generic_rank_bound(cert, n, row) for row in rows)
        top = max((list(_image_ranks(g.ad_columns(row))) + [0] * power)[power - 1] for row in rows)
        assert bound >= top


def _record_kernel_rows(monkeypatch, memo=None):
    """The rows of every `linalg._integer_kernel` call, as item lists, in a list cleared by the caller.

    The rows, which may come as a generator, are listed and copied before
    the kernel reads them, as it may update them in place.  With a dict
    `memo`, a system met again (same rows, same columns) returns the kernel
    computed for it the first time, also when the reference module asks
    for it.
    """
    systems = []
    kernel = linalg._integer_kernel

    def recording_kernel(rows, ncols):
        rows = list(rows)
        items = [list(r.items()) for r in rows]
        systems.append(items)
        if memo is None:
            return kernel(rows, ncols)
        key = (tuple(map(tuple, items)), ncols)
        if key not in memo:
            memo[key] = kernel(rows, ncols)
        return memo[key]

    monkeypatch.setattr(linalg, "_integer_kernel", recording_kernel)
    if memo is not None:
        monkeypatch.setattr(ref_inv, "_integer_kernel", recording_kernel)
    return systems


def test_power_one_systems_match_reference(monkeypatch):
    """At j = 1 the kernel gets the degree-1 systems on C1's pivots, one-entry rows substituted, in order.

    The reference rows are projected to the pivot columns P of C1: the
    kernel keeps the rows of the components in P, the cokernel the entries
    N_lb with l in P.  Every input is taken in its adapted basis, the one
    the sampling solves on, where C1 is spanned by basis vectors, so the
    projection drops nothing.  The
    builder never writes a row with one entry, but what reaches the
    integer kernel is the reference system with those rows substituted
    (`ref_inv.substituted`) and nothing else changed, row for row, in
    order; and the certificate is the reference `solve_maps` of the full
    reference system.
    """
    systems = _record_kernel_rows(monkeypatch)
    for g in _adapted(_algebras("catalog") + _algebras("conjugates") + _algebras("small")):
        for transpose, reference in ((False, ref_inv.ad_kernel_rows), (True, ref_inv.ad_cokernel_rows)):
            rows = reference(g, _c1_pivots(g, _basis_brackets(g)))
            systems.clear()
            certificate = _power_maps(g, 1, transpose)
            assert systems == [[list(r.items()) for r in ref_inv.substituted(rows, g.dim)[2]]]
            assert certificate == ref_inv.solve_maps(rows, g.dim)


@cache
def _power_map_algebras(name):
    """The catalog at n = 7..15; or two seeded conjugates of each instance at n = 7..9, each with its quotient by Z."""
    if name == "catalog":
        return tuple(
            inst.algebra for n in range(7, 16) for inst in catalog.enumerate_instances(n)
        )
    if name == "conjugates":
        rng = random.Random(2029)
        out = []
        for n in range(7, 10):
            for inst in catalog.enumerate_instances(n):
                for _ in range(2):
                    h = _conjugate(inst.algebra, rng)
                    out += [h, h.quotient(h.center())]
        return tuple(out)
    return _algebras("small")


@pytest.mark.parametrize("name", SETS)
@pytest.mark.parametrize("power,certificate", [(j, c) for j in (1, 2) for c in CERTIFICATES])
def test_power_maps_match_reference(monkeypatch, name, power, certificate):
    """`_power_maps` gives the reference's (free, maps) and hands the kernel its substituted rows.

    The reference (`ref_inv.power_rows`, `ref_inv.solve_maps`) writes every
    row, one entry or more, and substitutes the one-entry rows before the
    kernel.  On the catalog at n = 7..15, on dense conjugates at n = 7..9
    with their quotients by Z, in their adapted basis, the one the sampling
    solves on, and on the small set, the certificate must
    be identical and the rows reaching `_integer_kernel` must be the
    reference's, in order.  The two sides meet identical systems, so the
    kernel of each is computed once, and the rows each hands it are
    recorded.
    """
    transpose = CERTIFICATES[certificate]
    systems = _record_kernel_rows(monkeypatch, memo := {})
    for g in _adapted(_power_map_algebras(name)):
        rows = ref_inv.power_rows(g, power, transpose)
        memo.clear()
        systems.clear()
        certificate_maps = _power_maps(g, power, transpose)
        reference_maps = ref_inv.solve_maps(rows, g.dim)
        assert len(systems) == 2 and systems[0] == systems[1]
        assert certificate_maps == reference_maps


def test_catalog_certificates_write_only_rows_with_two_entries(monkeypatch):
    """Over the 344 catalog instances at n = 7..13 the certificates hand the kernel 3813 rows.

    The 238 systems the sampling solves have 41706 rows in all (the
    reference writes each of them), and 35380 of those have one entry;
    they are never written.  Every row that reaches the kernel has at
    least one entry.
    """
    solves = []
    power_maps = invariants._power_maps

    def recording_power_maps(g, power, transpose):
        solves.append((g, power, transpose))
        return power_maps(g, power, transpose)

    monkeypatch.setattr(invariants, "_power_maps", recording_power_maps)
    systems = _record_kernel_rows(monkeypatch)
    for g in _algebras("catalog"):
        char_sequence_with_witness(g)
    assert len(solves) == len(systems) == 238
    assert sum(map(len, systems)) == 3813 and all(r for rows in systems for r in rows)
    rows = [r for g, power, transpose in solves for r in ref_inv.power_rows(g, power, transpose)]
    assert len(rows) == 41706 and sum(len(r) == 1 for r in rows) == 35380


def _partitions(n, largest=None):
    """Partitions of n as descending tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _ranks(partition):
    """rank(A^k), k = 1, 2, ... until 0, for a nilpotent A with these Jordan blocks."""
    out = []
    while not out or out[-1]:
        out.append(sum(max(0, s - len(out) - 1) for s in partition))
    return out


@pytest.mark.parametrize("n", range(1, 11))
def test_profile_upper_bound_is_the_largest_consistent_profile(n):
    """For every prefix of every rank sequence, the lexicographic maximum sharing it."""
    by_ranks = {p: _ranks(p) for p in _partitions(n)}
    for ranks in by_ranks.values():
        for k in range(1, len(ranks) + 1):
            prefix = ranks[:k]
            share = [p for p, r in by_ranks.items() if r[:k] == prefix]
            assert _profile_upper_bound(n, prefix) == max(share)
    assert _profile_upper_bound(n, [n]) == (n + 1,)         # invertible: never pruned
    if n > 2:
        assert _profile_upper_bound(n, [2, 1, 1]) == (n + 1,)   # a repeated nonzero rank


@pytest.mark.parametrize("n", range(1, 11))
def test_certified_stop_leaves_nothing_to_try(n):
    """Every profile that a stop at best P lets through is pruned on a prefix of its ranks.

    With r_1, r_2, ... the ranks of P and k the least length whose prefix
    bounds P by itself, the sampling stops once certificates show
    rank ad(x)^j <= r_j for all j <= k and all x.  Every partition Q of n
    whose ranks satisfy those bounds must then have a prefix of its rank
    sequence whose bound is at most P, so no later candidate is tried in
    full, let alone beats P.
    """
    by_ranks = {p: _ranks(p) for p in _partitions(n)}
    cases = 0
    for best, ranks in by_ranks.items():
        k = _stop_power(n, best)
        for q, q_ranks in by_ranks.items():
            padded = q_ranks + [0] * k
            if all(padded[j] <= ranks[j] for j in range(k)):
                cases += 1
                assert any(
                    _profile_upper_bound(n, q_ranks[:i]) <= best for i in range(1, len(q_ranks) + 1)
                ), (best, q)
    assert cases >= len(by_ranks)


NOT_NILPOTENT = [
    LieAlgebra(2, {(0, 1): {0: ONE}}),                      # [e1, e2] = e1
    LieAlgebra(2, {(0, 1): {0: ONE}}).direct_sum(heisenberg(1)),
    # ad(e1) is nilpotent and sets the best profile (2, 1, 1, 1); ad(e5),
    # with ranks 1, 1, is pruned on its rank, but the first random x has
    # ranks 2, 1, 1, and a repeated nonzero rank is never pruned
    heisenberg(1).direct_sum(LieAlgebra(2, {(0, 1): {0: ONE}})),
]


@pytest.mark.parametrize(
    "g", NOT_NILPOTENT, ids=["affine", "affine+heisenberg", "heisenberg+affine"]
)
def test_not_nilpotent_raises_in_both(g):
    with pytest.raises(NotNilpotent):
        char_sequence_with_witness(g)
    with pytest.raises(NotNilpotent):
        ref_inv.char_sequence_with_witness(g)


def test_witness_is_a_fresh_rational_list():
    """The candidates are shared across calls; the witness returned is not."""
    g = catalog.build(65, 3)
    _, first = char_sequence_with_witness(g)
    _, second = char_sequence_with_witness(g)
    assert first == second and first is not second
    assert all(type(x) is type(ONE) for x in first + second)
    first[0] += 1
    assert char_sequence_with_witness(g)[1] == second != first
