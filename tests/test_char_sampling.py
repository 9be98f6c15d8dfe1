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
The certificates of ad(x) and ad(x)^2 are checked against the rational
reference bracket, the degree-1 systems against the reference builders,
and the prefix bound and the stop rule against every partition of
n <= 10.
"""

import random
from functools import cache

import pytest

import reference_invariants as ref_inv
import reference_lie as ref_lie
import reference_linalg as ref
from nilform import catalog, invariants
from nilform.errors import DimensionMismatch, NotNilpotent
from nilform.invariants import (
    CHAR_SEQUENCE_SAMPLES,
    DEFAULT_SEED,
    _candidates,
    _generic_rank_bound,
    _is_sparse,
    _power_maps,
    _profile_upper_bound,
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
        assert char_sequence_with_witness(g) == ref_inv.char_sequence_with_witness(g)


@pytest.mark.parametrize("seed,samples", [(1, 0), (7, 4), (11, 64)])
def test_char_sequence_matches_reference_across_seeds(seed, samples):
    for g in _algebras("conjugates"):
        assert (char_sequence_with_witness(g, seed=seed, samples=samples)
                == ref_inv.char_sequence_with_witness(g, seed=seed, samples=samples))


CERTIFICATES = {"cokernel": True, "kernel": False}        # name: transpose


def _stop_power(n, seq):
    """The least k whose rank prefix r_1..r_k already bounds the profile seq by itself."""
    ranks = _ranks(seq)
    return next(k for k in range(1, len(ranks) + 1) if _profile_upper_bound(n, ranks[:k]) == seq)


def _outcome(g, seq, witness):
    """How the sampling may stop: "ceiling", "certified" or "exhausted".

    "certified" when the tensor passes the density gate and, with
    r_1, r_2, ... the ranks of the powers of ad(witness) and k the least
    length whose prefix bounds seq by itself (`_stop_power`), the
    cokernel or the kernel certificate of each power j <= k bounds the
    generic rank of ad(x)^j by r_j at the witness.
    """
    n = g.dim
    seq = tuple(seq)
    if seq == _profile_upper_bound(n, [g.derived_subalgebra().dim]):
        return "ceiling"
    w = _integer_row(enumerate(witness))
    if _is_sparse(g) and all(
        any(_generic_rank_bound(_power_maps(g, j, t), n, w) <= r for t in CERTIFICATES.values())
        for j, r in enumerate(_ranks(seq)[:_stop_power(n, seq)], 1)
    ):
        return "certified"
    return "exhausted"


def test_char_sequence_stops_at_the_ceiling(monkeypatch):
    """ad(x) is built for the candidates up to the witness after a ceiling or a certified stop, else for all.

    Every candidate outside C1 is otherwise tried: the n basis vectors and
    the 64 random ones, minus those in C1.  The sampling builds ad(x) as
    integer columns, through `LieAlgebra.ad_columns` on the primitive
    integer row of x.  On the catalog at n = 7..13, 171 sequences reach
    the C1 ceiling and 173 stop at a certified witness, none tries every
    candidate: 149 stop on the rank of ad(x) and the 24 off-shape
    (5, 2, 1, ...) instances on the ranks of ad(x) and ad(x)^2.  The dense
    conjugates fail the density gate and never certify.
    """
    seen = []
    ad_columns = LieAlgebra.ad_columns

    def recording_ad_columns(g, v):
        seen.append(v)
        return ad_columns(g, v)

    monkeypatch.setattr(LieAlgebra, "ad_columns", recording_ad_columns)
    counts = {}
    powers = []
    for name in ("catalog", "conjugates"):
        counts[name] = {"ceiling": 0, "certified": 0, "exhausted": 0}
        for g in _algebras(name):
            seen.clear()
            seq, witness = char_sequence_with_witness(g)
            calls = list(seen)
            outcome = _outcome(g, seq, witness)
            counts[name][outcome] += 1
            c1 = g.derived_subalgebra()
            tried = [_integer_row(enumerate(x))
                     for x in ref_inv.candidates(g.dim) if any(x) and not c1.contains(x)]
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
    assert sorted(powers) == [1] * 149 + [2] * 24
    assert counts["conjugates"]["certified"] == 0


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


def _identity_terms(n, chains, transpose):
    """terms[i] = the (seq, component, y) through which entry (i, b) of a map enters its identity.

    Kernel (ad(x)^j M x = 0): M_kb adds y = (ad(e_seq) e_k)_t to the
    coefficient of x^seq x_b, component t.  Cokernel
    ((N x)^T ad(x)^j y = 0): N_lb adds y = (ad(e_seq) e_k)_l to the
    coefficient of x^seq x_b y_k.
    """
    terms = [[] for _ in range(n)]
    for k, level in enumerate(chains):
        for seq, w in level:
            for t, y in w.items():
                if transpose:
                    terms[t].append((seq, k, y))
                else:
                    terms[k].append((seq, t, y))
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


def _known_maps(g, certificate, power):
    """Solutions every algebra has, flattened: M = I, and N = u e_b^T for u orthogonal to C^j.

    ad(x)^j maps g into C^j, the j-th term of the lower central series.
    """
    n = g.dim
    if certificate == "kernel":
        return [{k * n + k: 1 for k in range(n)}]
    term = g.lower_central_series()[power]
    perp = [_integer_row(enumerate(u)) for u in kernel_basis(term.matrix)]
    return [{l * n + b: c for l, c in u.items()} for u in perp for b in range(n)]


SOUNDNESS = [
    pytest.param(name, certificate, power,
                 id=f"{name}-{certificate}" + (f"-power{power}" if power > 1 else ""))
    for power in (1, 2) for certificate in CERTIFICATES for name in ("catalog", "conjugates")
]


@pytest.mark.parametrize("name,certificate,power", SOUNDNESS)
def test_certificate_is_sound(name, certificate, power):
    """Each map satisfies its identities, and the bound holds at every candidate.

    With j = `power`, the kernel maps M have ad(x)^j M x = 0 and the
    cokernel maps N have (N x)^T ad(x)^j y = 0, every coefficient checked
    against the rational reference bracket.  The bound at any candidate w
    bounds the generic rank of ad(x)^j, so the least bound over the
    candidates must be at least the largest rank of ad(x)^j over them.
    The conjugates call the certificates past the density gate.
    """
    for g in _algebras(name):
        n = g.dim
        cert = _power_maps(g, power, CERTIFICATES[certificate])
        maps = _matrices(cert, n)
        flat = ({k * n + j: c for j, col in enumerate(m) for k, c in col.items()} for m in maps)
        span = _echelon(map(_primitive, flat), reduced=False)
        assert not any(_remainder(span, known) for known in _known_maps(g, certificate, power))
        terms = _identity_terms(n, _chains(n, _basis_brackets(g), power), CERTIFICATES[certificate])
        assert all(_identities_hold(terms, m) for m in maps)
        rows = [row for _, row in _candidates(n, DEFAULT_SEED, CHAR_SEQUENCE_SAMPLES)]
        bound = min(_generic_rank_bound(cert, n, row) for row in rows)
        top = max((list(_image_ranks(g.ad_columns(row))) + [0] * power)[power - 1] for row in rows)
        assert bound >= top


def test_power_one_systems_match_reference(monkeypatch):
    """At j = 1 the builder hands `_solve_maps` the degree-1 systems row for row, in order."""
    systems = []
    solve = invariants._solve_maps

    def recording_solve(rows, n):
        rows = list(rows)
        systems.append([list(r.items()) for r in rows])
        return solve(rows, n)

    monkeypatch.setattr(invariants, "_solve_maps", recording_solve)
    for g in _algebras("catalog") + _algebras("small"):
        for transpose, reference in ((False, ref_inv.ad_kernel_rows), (True, ref_inv.ad_cokernel_rows)):
            systems.clear()
            _power_maps(g, 1, transpose)
            assert systems == [[list(r.items()) for r in reference(g)]]


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
