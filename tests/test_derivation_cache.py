"""`derivation_space` keeps its last result, keyed on the algebra's identity.

`invariants.fingerprint` reads dim Der(g) and the characteristic-nilpotency
decision reads a basis of Der(g), both on `g.adapted()`; called one after
the other on the same algebra, they must share one solve of the Leibniz
system.  The kept space
belongs to one algebra object only: a different object, even an equal
one, gets its own space.
"""

import random

from nilform import catalog, derivations
from nilform.derivations import derivation_space, is_characteristically_nilpotent
from nilform.invariants import fingerprint
from nilform.lie import LieAlgebra
from nilform.linalg import Matrix, rank


def _conjugate(g, rng):
    n = g.dim
    while True:
        t = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if rank(t) == n:
            return g.change_basis(t)


def _count_solves(monkeypatch):
    """List that grows by one entry per Leibniz-system solve."""
    calls = []
    solve = derivations._solve_derivation_space

    def counting_solve(g):
        calls.append(g)
        return solve(g)

    monkeypatch.setattr(derivations, "_solve_derivation_space", counting_solve)
    return calls


def test_fingerprint_and_decision_share_one_solve(monkeypatch):
    """On a dense conjugate both read the space of its adapted algebra, solved once."""
    g = _conjugate(catalog.build(6, 4), random.Random(2030))       # g8^6
    solves = _count_solves(monkeypatch)
    fp = fingerprint(g)
    verdict = is_characteristically_nilpotent(g)
    h = g.adapted()[0]
    assert solves == [h] and h is not g
    assert verdict.value                    # no diagonal witness: the space was read
    assert fp.dim_der == derivation_space(h).dim == 13
    assert len(solves) == 1


def test_one_slot_keyed_on_identity(monkeypatch):
    g1, g2 = catalog.build(81, 3), catalog.build(65, 3)
    solves = _count_solves(monkeypatch)
    s1 = derivation_space(g1)
    assert derivation_space(g1) is s1 and len(solves) == 1
    s2 = derivation_space(g2)
    assert s2.algebra is g2 and len(solves) == 2
    again = derivation_space(g1)            # g2 displaced g1
    assert len(solves) == 3
    assert again is not s1 and again.algebra is g1
    assert again.basis == s1.basis and again.free_positions == s1.free_positions

    copy = LieAlgebra(g1.dim, g1.brackets, labels=g1.labels, meta=g1.meta)
    assert copy == g1 and copy is not g1
    own = derivation_space(copy)
    assert len(solves) == 4
    assert own.algebra is copy
    assert own.basis == s1.basis
