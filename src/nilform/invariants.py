"""Isomorphism invariants: characteristic sequence, fingerprints, distinction.

The characteristic sequence is the lexicographic maximum, over vectors X
outside the derived algebra, of the Jordan block profile of ad(X).  The
maximum is attained on a Zariski-open set, so it is sampled: the basis
vectors, then 64 random small-integer vectors from one seeded generator.
Each sampled profile is computed exactly, so the result is a certified
lexicographic lower bound.

All of the sampling runs on integers: the candidates of each dimension are
drawn once and kept as primitive integer rows, membership in C1 is tested
against an integer echelon of C1, ad(X) is built as sparse integer columns
from the integer structure tensor (`LieAlgebra.ad_columns`), and the rank
used for pruning and the Jordan profile come from the same columns
(`linalg._image_ranks`).  Only the witness is a rational vector, built
from its candidate on return.

Each rank rank(ad(X)^k) prunes: the ranks r_1..r_k bound the profile of
ad(X) by the largest profile that shares them (`_profile_upper_bound`),
and the candidate is dropped, without its further ranks, as soon as that
bound is no better than the best profile so far.  For a nilpotent algebra
every ad(X) is nilpotent, so a dropped candidate could not have become
the witness.  A repeated nonzero rank is never pruned: it reaches
`linalg._block_sizes`, which raises NotNilpotent.  On an algebra that is
not nilpotent, a candidate dropped before its ranks repeat is not tried
further, so the error comes from the first candidate that no prune drops.

ad(X) maps g into C1, so no profile exceeds (dim C1 + 1, 1, ..., 1).
Sampling stops as soon as a profile reaches that ceiling: the value is then
exact, not only a lower bound, and the candidates after the witness are
never tried.

It also stops at a best profile P once certificates show that no later
candidate can beat it.  With r_1, r_2, ... the ranks of the powers of
ad(w) for its witness w, and k the least length whose prefix already gives
P = `_profile_upper_bound(n, r_1..r_k)`, it stops when, for every j <= k,
a power-j certificate shows that the generic rank of ad(X)^j is at most
r_j.  Every later candidate then has rank ad(X)^j <= r_j for j <= k, and
some prefix of its ranks is bounded by P, so the prune would reject it:
stopping leaves the sequence and the witness unchanged.  There are two
certificates for each power j, each one integer kernel of a linear system
built from the integer tensor by one row builder (`_power_maps`).  Most of
its rows have one entry and only force that unknown to 0; the builder
reads them off the support of the tensor's products and never writes
them.  For power j they are:
- the cokernel certificate, the n x n matrices V with
  (V X)^T ad(X)^j Y = 0 identically: each V X is orthogonal to the image
  of ad(X)^j;
- the kernel certificate, the n x n matrices M with ad(X)^j M X = 0
  identically: each M X lies in ker ad(X)^j.
If the vectors V w, or the M w, have rank s, ad(X)^j has rank at most
n - s for all X; a power with r_j >= dim C1 needs neither, as ad(X)^j
maps g into C1.  For each power in turn, the cokernel is solved first,
on first need, and the kernel only when the cokernel bound exceeds r_j;
each is solved at most once per call.  With k = 1 this is the stop at a
best profile (r_1 + 1, 1, ..., 1) on the rank of ad(X) alone.  Of the 344
catalog instances at n = 7..13, 171 stop at the ceiling and the other 173
at a certified witness: 149 with k = 1 (the cokernel certifies 145 and
the kernel the other 4) and the 24 off-shape (5, 2, 1, ...) instances
with k = 2 (at j = 2 the cokernel certifies 11 and the kernel 13).

Every input is sampled on h = change_basis(T), (h, T) = g.adapted(): each
term of h's lower central series is spanned by basis vectors, as in the
catalog, which keeps its basis, so the certificate systems are as sparse
as the law.  A witness x' of h maps back to x = T x'.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DimensionMismatch, NotNilpotent, VectorInDerivedAlgebra
from .lie import LieAlgebra
from .linalg import (
    _block_sizes,
    _combine,
    _echelon,
    _image_ranks,
    _integer_row,
    _kernel_on,
    _primitive,
    _remainder,
)
from .rational import rat

DEFAULT_SEED = 20260809
CHAR_SEQUENCE_SAMPLES = 64


class CharSequence(tuple):
    """Descending positive integers; compares lexicographically as a tuple."""

    def __new__(cls, parts):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError("characteristic sequence entries must be positive")
        if list(parts) != sorted(parts, reverse=True):
            raise ValueError("characteristic sequence must be sorted descending")
        return super().__new__(cls, parts)

    @property
    def total(self):
        return sum(self)

    def __repr__(self):
        return "(" + ",".join(str(p) for p in self) + ")"


def p_filiform_sequence(n, p):
    """(n-p, 1, ..., 1) with p trailing ones."""
    return CharSequence((n - p,) + (1,) * p)


def char_sequence_of_vector(g: LieAlgebra, x) -> CharSequence:
    """Jordan profile of ad(x); requires x outside the derived algebra."""
    if len(x) != g.dim:
        raise DimensionMismatch("vector length != dim")
    row = _integer_row(enumerate(x))
    if not _remainder(g.derived_echelon(), dict(row)):
        raise VectorInDerivedAlgebra("characteristic vectors lie outside C1")
    return CharSequence(_block_sizes(g.dim, _image_ranks(g.ad_columns(row))))


def _profile_upper_bound(n, ranks):
    """Largest profile, lexicographically, of a nilpotent A with rank(A^j) = ranks[j - 1].

    `ranks` is a prefix r_1..r_k of the rank sequence, ending at its first
    zero if it has one.  With r_0 = n, the number of blocks of size >= j
    is d_j = r_(j-1) - r_j, so the blocks of each size j < k are fixed
    (d_j - d_(j+1) of them), while the d_k blocks of size >= k have total
    size r_(k-1) + (k - 1) d_k: largest first, one block of size k + r_k
    and d_k - 1 blocks of size k.  A repeated rank (d_k = 0), nonzero as
    the prefix ends at its first zero, belongs to no nilpotent matrix; it
    gives (n + 1,), above every profile, so it is never pruned and reaches
    `linalg._block_sizes`, which raises NotNilpotent.
    """
    k = len(ranks)
    seq = [n, *ranks]
    d = [seq[j] - seq[j + 1] for j in range(k)]              # d[j] = d_(j+1)
    if not d[-1]:
        return (n + 1,)
    fixed = (j for j in range(k - 1, 0, -1) for _ in range(d[j - 1] - d[j]))
    return (k + ranks[-1],) + (k,) * (d[-1] - 1) + tuple(fixed)


@lru_cache(maxsize=32)
def _candidates(n, seed, samples):
    """Basis vectors e1..en, then `samples` random vectors with entries in [-3, 3].

    As (integer tuple, primitive sparse row) pairs, drawn once per
    (n, seed, samples) and shared by every algebra of dimension n, so
    neither the tuples nor the rows may be modified.
    """
    vectors = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rng = random.Random(seed)
    vectors += (tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(samples))
    return tuple((x, _integer_row(enumerate(x))) for x in vectors)


def _power_maps(g: LieAlgebra, power, transpose):
    """The maps of the power-j kernel or cokernel certificate, as (free, maps).

    With j = `power`, the kernel certificate is the integer n x n
    matrices M with ad(x)^j M x = 0 for every x, and the cokernel
    certificate (`transpose`) the matrices V with (V x)^T ad(x)^j y = 0
    for every x, y.  Each M x lies in ker ad(x)^j and each V x is
    orthogonal to the image of ad(x)^j, so either bounds the rank of
    ad(x)^j.  The image lies in C1; when C1 is spanned by basis vectors,
    as on an adapted basis, the rows of V off C1 enter no identity.

    Entry (k, j) of a matrix is unknown k n + j.  An unknown that no
    identity mentions is free: its unit matrix, which maps x to x_j e_k,
    is a solution, and `free` holds these as {k: {j, ...}}.  The other
    solutions are the integer kernel of the identities on the unknowns
    they do not force to 0 (`linalg._kernel_on`), each returned in `maps`
    as its sparse columns {k: entry (k, j)}, so `linalg._combine` gives
    its product with a vector.  The unit matrices and `maps` together
    span the solutions.

    Both identities are linear in the entries, with one row per monomial
    x^S of degree j + 1 and component.  For a multiset A of j indices,
    Q_A = sum of ad(e_a1) ... ad(e_aj) over the distinct orderings of A,
    built from the integer tensor as Q_A = sum over the distinct a in A of
    ad(e_a) Q_(A - a), with its zeros dropped; Q_(a) is the tensor row
    br[a] itself.  The coefficient of x^S in ad(x)^j M x, component l, is
    the sum over the distinct b in S, with A = S - b, of
    sum_k Q_A[k]_l M_kb; that of (V x)^T ad(x)^j e_k is
    sum over l of Q_A[k]_l V_lb.  So each term (A, b) adds to the row
    keyed by l (kernel) or k (cokernel) one piece of Q_A, {k: Q_A[k]_l} or
    Q_A[k], at column b of the matrix; each b gives other entries, so no
    entry of a row is written twice.
    The rows are ordered by (S, -b, position of the piece in Q_A) of the
    first term that writes them, which at j = 1 is the order of the loops
    over i <= j of the degree-1 systems.

    A row with one entry only says that its unknown is 0, and most rows
    are of this kind, so they are read off the support of the pieces and
    never written.  Two pieces of one key share a row only when they come
    from A = C + e and A' = C + f, e != f: the row of x^(C + e + f), at
    b = f and b = e.  So a one-entry piece {m: c} forces m n + b to 0 at
    every b but those of the other pieces in its group (C, key).  The
    rows with two or more entries are written from the terms sorted by
    (S, -b), on the unknowns not forced to 0, numbered in ascending order:
    the full system with its one-entry rows substituted, in the same
    order; a row left empty is dropped.
    """
    n = g.dim
    br = g.integer_brackets()
    qs = {(a,): row for a, row in enumerate(br) if row}     # Q_A, A a sorted tuple
    for _ in range(power - 1):
        sums = {}
        for seq, q in qs.items():
            for a, row in enumerate(br):
                if not row:
                    continue
                acc = sums.setdefault(tuple(sorted(seq + (a,))), {})
                for k, v in q.items():                      # ad(e_a) Q_A e_k
                    col = acc.setdefault(k, {})
                    for m, c in v.items():
                        comp = row.get(m)
                        if comp:
                            for l, d in comp.items():
                                col[l] = col.get(l, 0) + c * d
        qs = {}
        for seq, acc in sums.items():
            q = {k: col for k, col in (
                (k, {l: c for l, c in col.items() if c}) for k, col in acc.items()) if col}
            if q:
                qs[seq] = q
    if transpose:                                           # row k: Q_A[k]_l N_lb
        pieces = qs
    else:                                                   # row l: Q_A[k]_l M_kb
        pieces = {}
        for seq, q in qs.items():
            p = pieces[seq] = {}
            for k, comp in q.items():
                for l, c in comp.items():
                    p.setdefault(l, {})[k] = c
    # x^S is keyed by -sum over a in S of (j + 2)^(n - 1 - a), whose digits
    # count the indices in S, so the keys ascend as the sorted S do
    digit = [-(power + 2) ** (n - 1 - a) for a in range(n)]
    code = {seq: sum(map(digit.__getitem__, seq)) for seq in pieces}
    # pieces of one key at A = C + e and A' = C + f, e != f, share the row of
    # x^(C + e + f); only one-entry pieces force zeros, so only their keys are grouped
    lone = {key for p in pieces.values() for key, piece in p.items() if len(piece) == 1}
    rest = {}                                               # (C, key): [(e, A)]
    for seq, p in pieces.items():
        keys = lone.intersection(p)
        for e in set(seq):
            for key in keys:
                rest.setdefault((code[seq] - digit[e], key), []).append((e, seq))
    partners = {}                                           # (A, key): the b of its shared rows
    for (_, key), members in rest.items():
        if len(members) > 1:
            es = {e for e, _ in members}
            for e, seq in members:
                if len(pieces[seq][key]) == 1:
                    partners.setdefault((seq, key), set()).update(es.difference((e,)))
    every = set(range(n))
    zero = [set() for _ in range(n)]                        # zero[m]: b with m n + b forced
    terms = []                                              # (x^S, -b, pieces (A, b) writes)
    for seq, p in pieces.items():
        multi, shared = [], {}                              # shared: b -> one-entry keys it shares
        for key, piece in p.items():
            if len(piece) > 1:
                multi.append((key, piece))
                continue
            bs = partners.get((seq, key), ())
            zero[next(iter(piece))].update(every.difference(bs))
            for b in bs:
                shared.setdefault(b, set()).add(key)
        if multi:
            terms += ((code[seq] + digit[b], -b, multi) for b in range(n) if b not in shared)
        for b, keys in shared.items():
            items = [(key, piece) for key, piece in p.items() if len(piece) > 1 or key in keys]
            terms.append((code[seq] + digit[b], -b, items))
    mentioned = set().union(*(piece for p in pieces.values() for piece in p.values()))
    free = {k: set(every) for k in range(n) if k not in mentioned}
    live = [k * n + j for k in sorted(mentioned) for j in range(n) if j not in zero[k]]
    index = dict(zip(live, range(len(live))))
    terms.sort()
    rows = {}
    for mono, b, items in terms:
        b = -b
        for key, piece in items:
            row = rows.setdefault((mono, key), {})
            for m, c in piece.items():
                if (i := index.get(m * n + b)) is not None:
                    row[i] = c
    maps = []
    for v in _kernel_on(rows.values(), live):
        cols = [{} for _ in range(n)]
        for key, c in v.items():
            k, j = divmod(key, n)
            cols[j][k] = c
        maps.append(cols)
    return free, maps


def _generic_rank_bound(certificate, n, x):
    """n - rank{A x : A solves the certificate}, which bounds rank ad(y) for every y.

    `certificate` is (free, maps) from `_power_maps`: the free unit
    matrices give the unit vectors e_k with x_j != 0 for some j in
    free[k], and `maps` the other solutions, which are 0 at every entry
    that a one-entry row of the identities forces to 0.  For either
    certificate, over Q(y) the vectors A y lie in ker ad(y), or are
    orthogonal to its image, and have rank at least their rank at the
    integer vector x = {i: int}.
    """
    free, maps = certificate
    images = [{k: 1} for k, js in free.items() if not js.isdisjoint(x)]
    images += (_primitive(_combine(m, x)) for m in maps)
    return n - len(_echelon(images, reduced=False))


def _certified(g: LieAlgebra, solved, x, ranks):
    """True when certificates bound the generic rank of ad(y)^j by ranks[j - 1] at x, for every j.

    For each power j in turn, the cokernel and then the kernel certificate
    are solved, each on first need, into the dict `solved`, which keeps
    them for later calls under (j, transpose): the kernel is solved only
    when the cokernel bound at x exceeds r_j, and a power is solved only
    when every lower power has been certified.  A power with
    r_j >= dim C1 needs none: ad(y)^j maps g into C1.
    """
    for j, r in enumerate(ranks, 1):
        if r >= len(g.derived_echelon()):
            continue
        for transpose in (True, False):
            if (j, transpose) not in solved:
                solved[j, transpose] = _power_maps(g, j, transpose)
            if _generic_rank_bound(solved[j, transpose], g.dim, x) <= r:
                break
        else:
            return False
    return True


def char_sequence_with_witness(
    g: LieAlgebra, seed=DEFAULT_SEED, samples=CHAR_SEQUENCE_SAMPLES
):
    """(CharSequence, witness vector) via exact sampled maximisation.

    The witness is the first candidate whose profile is the maximum found.
    A candidate is dropped once a prefix of its rank sequence bounds its
    profile by the best so far.  Sampling stops once that maximum is the
    C1 ceiling, which no later candidate can exceed, or once certificates
    bound the generic rank of ad(x)^j by r_j = rank ad(witness)^j for
    every j <= k, k the least length whose rank prefix bounds the best
    profile by itself: some prefix of every later candidate's ranks would
    then reject it.  At each new best, `_certified` solves the
    certificates it needs and has not solved yet.  The candidates are
    tried on h, (h, T) = g.adapted(), and the witness maps back by T.
    """
    n = g.dim
    if n == 0:
        return CharSequence(()), []
    g, t = g.adapted()
    c1 = g.derived_echelon()
    ceiling = _profile_upper_bound(n, [len(c1)])
    best = None
    witness = None
    solved = {}
    for x, row in _candidates(n, seed, samples):
        if not _remainder(c1, dict(row)):                       # zero or in C1
            continue
        ranks = []
        for r in _image_ranks(g.ad_columns(row)):
            ranks.append(r)
            if best is not None and _profile_upper_bound(n, ranks) <= best:
                break
        else:
            profile = _block_sizes(n, ranks)
            if best is None or profile > best:
                best = profile
                witness = x
                if best == ceiling:
                    break
                k = next(k for k in range(1, len(ranks) + 1)
                         if best == _profile_upper_bound(n, ranks[:k]))
                if _certified(g, solved, row, ranks[:k]):
                    break
    if best is None:
        raise VectorInDerivedAlgebra("no vector outside C1 was sampled")
    if t is not None:                                           # x = T x', T on integers
        witness = [sum(c.get(i, 0) * v for c, v in zip(t._columns, witness)) for i in range(n)]
    return CharSequence(best), [rat(v) for v in witness]


def char_sequence(g: LieAlgebra, seed=DEFAULT_SEED, samples=CHAR_SEQUENCE_SAMPLES):
    return char_sequence_with_witness(g, seed=seed, samples=samples)[0]


def nilindex(g: LieAlgebra) -> int:
    """Length of the lower central series until it reaches zero."""
    series = g.lower_central_series()
    if series[-1].dim != 0:
        raise NotNilpotent("algebra is not nilpotent")
    return len(series) - 1


def is_p_filiform(g: LieAlgebra, p: int, seed=DEFAULT_SEED) -> bool:
    return char_sequence(g, seed=seed) == p_filiform_sequence(g.dim, p)


@dataclass(frozen=True)
class Fingerprint:
    """Invariant tuple mirroring the structural table columns.

    The weight signature is basis-dependent (it reads off diagonal
    derivations in the presented basis), so it is carried alongside but
    excluded from equality; pairwise_distinguish only consults it for
    algebras still in their defining catalog basis.
    """

    dim: int
    dim_derived: int
    derived_abelian: bool
    dim_center: int
    char_seq: CharSequence
    lcs_dims: tuple
    ds_dims: tuple
    dim_der: int
    quotient_by_center: tuple
    weights: object = field(default=None, compare=False)

    def to_dict(self):
        return {
            "dim": self.dim,
            "dim_derived": self.dim_derived,
            "derived_abelian": self.derived_abelian,
            "dim_center": self.dim_center,
            "char_seq": list(self.char_seq),
            "lcs_dims": list(self.lcs_dims),
            "ds_dims": list(self.ds_dims),
            "dim_der": self.dim_der,
            "quotient_by_center": list(self.quotient_by_center),
            "weights": str(self.weights) if self.weights is not None else None,
        }


def fingerprint(g: LieAlgebra, seed=DEFAULT_SEED) -> Fingerprint:
    from .derivations import derivation_space, diagonal_derivations

    weights = diagonal_derivations(g) if g.meta.get("defining_basis") else None
    g = g.adapted()[0]          # the decision of g reads its derivation space again
    c1 = g.derived_subalgebra()
    z = g.center()
    lcs = tuple(s.dim for s in g.lower_central_series())
    ds = tuple(s.dim for s in g.derived_series())
    seq = char_sequence(g, seed=seed)
    q = g.quotient(z)
    qseq = char_sequence(q, seed=seed) if q.dim else CharSequence(())
    quotient_fp = (
        q.dim,
        q.derived_subalgebra().dim,
        q.center().dim,
        tuple(qseq),
    )
    return Fingerprint(
        dim=g.dim,
        dim_derived=c1.dim,
        derived_abelian=g.is_abelian_subspace(c1),
        dim_center=z.dim,
        char_seq=seq,
        lcs_dims=lcs,
        ds_dims=ds,
        dim_der=derivation_space(g).dim,
        quotient_by_center=quotient_fp,
        weights=weights,
    )


@dataclass
class DistinguishResult:
    classes: list          # list of lists of input indices
    unresolved_pairs: list # index pairs left in a shared class
    fingerprints: list
    refined_by_weights: list  # class keys that needed the weight signature

    def class_of(self, idx):
        for c in self.classes:
            if idx in c:
                return c
        raise KeyError(idx)


def pairwise_distinguish(entries, seed=DEFAULT_SEED) -> DistinguishResult:
    """Partition algebras into fingerprint classes.

    Same-class pairs are reported as unresolved, never merged silently.
    The weight-signature refinement applies only to classes whose members
    all sit in a defining catalog basis: the signature is read off in the
    presented basis, so for arbitrary presentations it is only a torus
    lower bound and cannot certify non-isomorphism.
    """
    algebras = [e.algebra if hasattr(e, "algebra") else e for e in entries]
    fps = [fingerprint(g, seed=seed) for g in algebras]
    groups = {}
    for idx, fp in enumerate(fps):
        groups.setdefault(fp, []).append(idx)

    classes = []
    refined = []
    for key, members in sorted(groups.items(), key=lambda kv: kv[1][0]):
        if len(members) > 1 and all(fps[i].weights is not None for i in members):
            sub = {}
            for i in members:
                sub.setdefault(fps[i].weights.canonical_key(), []).append(i)
            if len(sub) > 1:
                refined.append(members)
            classes.extend(sorted(sub.values()))
        else:
            classes.append(members)

    unresolved = []
    for cls in classes:
        for a in range(len(cls)):
            for b in range(a + 1, len(cls)):
                unresolved.append((cls[a], cls[b]))
    return DistinguishResult(
        classes=sorted(classes),
        unresolved_pairs=sorted(unresolved),
        fingerprints=fps,
        refined_by_weights=refined,
    )
