"""Reference characteristic-sequence sampling, for differential tests.

This is the sampling nilform used before it stopped at the C1 ceiling:
every candidate is built up front (the basis vectors, then 64 random
vectors from one seeded generator) and every one outside C1 is tried.
Membership in C1 subtracts whole dense basis rows, and Jordan profiles come
from the reference rank sequence, which forms the powers of ad(x).
"""

import random

from nilform.errors import VectorInDerivedAlgebra
from nilform.invariants import (
    CHAR_SEQUENCE_SAMPLES,
    DEFAULT_SEED,
    CharSequence,
)
from nilform.lie import basis_vec
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
