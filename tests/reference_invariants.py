"""Reference characteristic-sequence sampling, for differential tests.

This is the sampling nilform used before it stopped at the C1 ceiling:
every candidate is built up front (the basis vectors, then 64 random
vectors from one seeded generator) and every one outside C1 is tried.
Membership in C1 subtracts whole dense basis rows, and Jordan profiles come
from the reference rank sequence, which forms the powers of ad(x).  It also
keeps the degree-1 kernel and cokernel certificate systems as they were
built before one builder served every power of ad(x), and that builder
as it was before it read the forced zeros off the tensor's support: it
wrote every row, one entry or more, and `solve_maps` substituted the
single-entry rows before the integer kernel.
"""

import random

from nilform.errors import VectorInDerivedAlgebra
from nilform.invariants import (
    CHAR_SEQUENCE_SAMPLES,
    DEFAULT_SEED,
    CharSequence,
)
from nilform.lie import basis_vec
from nilform.linalg import _integer_kernel, _primitive
from nilform.rational import rat

from reference_linalg import nilpotent_jordan_profile, rank


def reduce(s, v):
    """Remainder of v against the rref basis of the Subspace s, row by dense row."""
    w = [rat(x) for x in v]
    for r, p in enumerate(s.pivots):
        f = w[p]
        if f:
            row = s.matrix.data[r]
            w = [x - f * y for x, y in zip(w, row)]
    return w


def contains(s, v):
    return all(x == 0 for x in reduce(s, v))


def rank1_bound(n, r):
    """Largest Jordan profile of a nilpotent n x n matrix of rank r, (r + 1, 1, ..., 1).

    A matrix of full rank is not nilpotent: (n + 1,) exceeds every profile.
    """
    return (n + 1,) if r == n else (r + 1,) + (1,) * (n - r - 1)


def ad_kernel_rows(g, pivots=None):
    """The rows of [x, M x] = 0 in the n^2 entries of M, as the degree-1 builder formed them.

    Row (i, j, l) is the coefficient of x_i x_j, i <= j, in component l:
    [e_i, M e_j] + [e_j, M e_i] for i < j and [e_i, M e_i] for i = j.
    With `pivots`, a collection of components, only their rows are kept.
    """
    n = g.dim
    br = g.integer_brackets()
    rows = {}
    for i in range(n):
        for j in range(i, n):
            for a, b in ((i, j), (j, i)) if i != j else ((i, i),):
                for k, comp in br[a].items():             # [e_a, M_kb e_k]
                    for l, c in comp.items():
                        if pivots is None or l in pivots:
                            rows.setdefault((i, j, l), {})[k * n + b] = c
    return list(rows.values())


def ad_cokernel_rows(g, pivots=None):
    """The rows of (N x)^T [x, y] = 0 in the n^2 entries of N, as the degree-1 builder formed them.

    Row (i, m, j) is the coefficient of x_i x_m y_j, i <= m:
    sum_l (N_lm c_ij^l + N_li c_mj^l) for i < m and sum_l N_li c_ij^l for i = m.
    With `pivots`, a collection of components, only the entries N_lb with l
    in it are written.
    """
    n = g.dim
    br = g.integer_brackets()
    rows = {}
    for i in range(n):
        for m in range(i, n):
            for a, b in ((i, m), (m, i)) if i != m else ((i, i),):
                for j, comp in br[a].items():             # c_aj^l N_lb
                    row = rows.setdefault((i, m, j), {})
                    for l, c in comp.items():
                        if pivots is None or l in pivots:
                            row[l * n + b] = c
    return list(rows.values())


def coordinate_c1(g):
    """True when C1 is spanned by basis vectors: every structure constant lies at C1's pivots."""
    pivots = g.derived_echelon()
    return all(l in pivots for comp in g.brackets.values() for l in comp)


def power_rows(g, power, transpose):
    """Every row of the power-j kernel or cokernel certificate, in the order it was written.

    One row per monomial x^S of degree j + 1 and component, over the
    unknowns k n + j of the n x n matrix, written from Q_A for each term
    (A, b) of S, the terms sorted by (S, -b).
    """
    n = g.dim
    br = g.integer_brackets()
    qs = {(a,): row for a, row in enumerate(br) if row}
    for _ in range(power - 1):
        sums = {}
        for seq, q in qs.items():
            for a, row in enumerate(br):
                if not row:
                    continue
                acc = sums.setdefault(tuple(sorted(seq + (a,))), {})
                for k, v in q.items():
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
    if not coordinate_c1(g):                    # Q_A[k] restricted to C1's pivots
        pivots = g.derived_echelon()
        qs = {seq: {k: {l: c for l, c in comp.items() if l in pivots} for k, comp in q.items()}
              for seq, q in qs.items()}
    digit = [-(power + 2) ** (n - 1 - a) for a in range(n)]
    terms = sorted(
        (code + digit[b], -b, q)
        for code, q in ((sum(digit[a] for a in seq), q) for seq, q in qs.items())
        for b in range(n)
    )
    rows = {}
    for mono, b, q in terms:
        b = -b
        for k, comp in q.items():
            if transpose:
                row = rows.setdefault((mono, k), {})
                for l, c in comp.items():
                    row[l * n + b] = c
            else:
                for l, c in comp.items():
                    rows.setdefault((mono, l), {})[k * n + b] = c
    return list(rows.values())


def substituted(rows, n):
    """(free, keys, kernel rows): `rows` with their single-entry rows substituted.

    An unknown no row mentions is free ({k: {j, ...}} for unknown k n + j).
    A row with one entry sets that unknown to 0; the other rows, with those
    unknowns dropped, are written on `keys`, the unknowns left, ascending,
    by position, and made primitive; rows left empty are dropped.
    """
    mentioned, zero, longer = set(), set(), []
    for r in rows:
        mentioned.update(r)
        if len(r) == 1:
            zero.update(r)
        else:
            longer.append(r)
    free = {}
    for key in range(n * n):
        if key not in mentioned:
            k, j = divmod(key, n)
            free.setdefault(k, set()).add(j)
    keys = sorted(mentioned - zero)
    index = {key: i for i, key in enumerate(keys)}
    rows = ({i: c for key, c in r.items() if (i := index.get(key)) is not None} for r in longer)
    return free, keys, [_primitive(r) for r in rows if r]


def solve_maps(rows, n):
    """(free, maps) of a certificate system: the free unit matrices and the kernel on the rest."""
    free, keys, rows = substituted(rows, n)
    maps = []
    for v in _integer_kernel(rows, len(keys))[2]:
        cols = [{} for _ in range(n)]
        for i, c in v.items():
            k, j = divmod(keys[i], n)
            cols[j][k] = c
        maps.append(cols)
    return free, maps


def candidates(n, seed=DEFAULT_SEED, samples=CHAR_SEQUENCE_SAMPLES):
    rng = random.Random(seed)
    out = [basis_vec(n, 0)]
    out += [basis_vec(n, i) for i in range(1, n)]
    for _ in range(samples):
        out.append([rat(rng.randint(-3, 3)) for _ in range(n)])
    return out


def char_sequence_with_witness(g, seed=DEFAULT_SEED, samples=CHAR_SEQUENCE_SAMPLES):
    n = g.dim
    if n == 0:
        return CharSequence(()), []
    c1 = g.derived_subalgebra()
    best = None
    witness = None
    for x in candidates(n, seed, samples):
        if all(v == 0 for v in x) or contains(c1, x):
            continue
        ad = g.ad(x)
        if best is not None and rank1_bound(n, rank(ad)) <= best:
            continue
        profile = nilpotent_jordan_profile(ad)
        if best is None or profile > best:
            best = profile
            witness = x
    if best is None:
        raise VectorInDerivedAlgebra("no vector outside C1 was sampled")
    return CharSequence(best), witness
