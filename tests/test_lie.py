import random
import sys
from functools import cache

import pytest

import reference_lie as ref
from nilform import catalog, lie
from nilform.errors import DimensionMismatch, NotAnIdeal, SingularTransform
from nilform.invariants import char_sequence
from nilform.lie import (
    BasisChange,
    LieAlgebra,
    Subspace,
    abelian,
    basis_vec,
    from_bracket_list,
    heisenberg,
)
from nilform.linalg import Matrix, rank
from nilform.rational import rat


def mu10_1():
    return catalog.build(1, 5)


def test_bracket_alternating():
    g = mu10_1()
    rng = random.Random(1)
    for _ in range(10):
        v = [rat(rng.randint(-3, 3)) for _ in range(g.dim)]
        assert all(x == 0 for x in g.bracket(v, v))


def test_bracket_catalog_values():
    g = mu10_1()
    x1, x2 = basis_vec(10, 0), basis_vec(10, 1)
    assert g.bracket(x1, x2) == basis_vec(10, 2)            # [X1,X2] = X3
    x3, x4 = basis_vec(10, 2), basis_vec(10, 3)
    assert g.bracket(x3, x4) == basis_vec(10, 6)            # [X3,X4] = Y1


def test_bracket_bilinear():
    g = mu10_1()
    rng = random.Random(2)
    for _ in range(10):
        u, v, w = (
            [rat(rng.randint(-2, 2)) for _ in range(10)] for _ in range(3)
        )
        lhs = g.bracket([x + y for x, y in zip(u, v)], w)
        rhs = [x + y for x, y in zip(g.bracket(u, w), g.bracket(v, w))]
        assert lhs == rhs


def test_jacobi_abelian_and_catalog():
    assert abelian(5).jacobi_check() is None
    for inst in catalog.enumerate_instances(10, alphas=(rat(2),)):
        assert inst.algebra.jacobi_check() is None


def test_jacobi_failure_reported():
    g = mu10_1()
    brackets = {k: dict(v) for k, v in g.brackets.items()}
    brackets[(2, 3)] = {6: rat(2)}  # perturb [X3,X4]
    bad = LieAlgebra(10, brackets, labels=g.labels)
    failure = bad.jacobi_check()
    assert failure is not None
    assert 2 in failure.triple or 3 in failure.triple


def test_change_basis_identity():
    g = mu10_1()
    assert g.change_basis(Matrix.identity(10)) == g


def test_change_basis_roundtrip_and_jacobi():
    rng = random.Random(3)
    g = catalog.build(65, 3)
    n = g.dim
    trials = 0
    while trials < 100:
        t = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if rank(t) < n:
            continue
        trials += 1
        h = g.change_basis(t)
        assert h.jacobi_check() is None
        from nilform.linalg import inverse

        assert h.change_basis(inverse(t)) == g


def test_change_basis_singular():
    g = mu10_1()
    with pytest.raises(SingularTransform):
        g.change_basis(Matrix.zeros(10, 10))


def test_derived_and_center_abelian():
    g = abelian(4)
    assert g.derived_subalgebra().dim == 0
    assert g.center().dim == 4


def test_derived_and_center_catalog():
    g = mu10_1()
    assert g.center().dim == 2          # structural table row for family 1
    assert g.derived_subalgebra().dim == 6


def test_is_abelian_subspace_on_derived_algebra():
    # printed C1-abelian column: True for g^30, False for g^24
    g30, g24 = catalog.build(30, 5), catalog.build(24, 4)
    assert g30.is_abelian_subspace(g30.derived_subalgebra())
    assert not g24.is_abelian_subspace(g24.derived_subalgebra())
    assert g24.is_abelian_subspace(g24.center())


def test_subspace_equality_is_canonical():
    """A Subspace is its reduced integer echelon, however its spanning vectors come.

    C1 is respanned from a triangular recombination of its rescaled rref
    rows, in shuffled order, so the forward echelon is not yet reduced.
    """
    rng = random.Random(5)
    for g in (mu10_1(), catalog.build(24, 4), catalog.build(7, 4, rat(1, 2))):
        c1 = g.derived_subalgebra()
        rows = c1.basis_vectors()
        mixed = []
        for i, v in enumerate(rows):
            s = rat(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4))
            mixed.append([s * x + sum(w[k] for w in rows[i + 1 :]) for k, x in enumerate(v)])
        rng.shuffle(mixed)
        span = Subspace.span(g.dim, mixed)
        assert span == c1 and hash(span) == hash(c1)
        assert span.matrix == c1.matrix and span.pivots == c1.pivots
    assert Subspace.full(6) == Subspace.span(6, Matrix.identity(6).rows())
    assert hash(Subspace.full(6)) == hash(Subspace.span(6, Matrix.identity(6).rows()))
    assert Subspace.span(2, [[1, 1]]) != Subspace.span(2, [[1, 2]])   # one pivot, two lines
    with pytest.raises(DimensionMismatch):
        Subspace.span(3, [[1, 0, 0], [0, 1]])


def test_contains_subspace_reads_every_row():
    plane = Subspace.span(3, [basis_vec(3, 0), basis_vec(3, 1)])
    assert not plane.contains_subspace(Subspace.full(3))          # only e3 is outside
    assert Subspace.full(3).contains_subspace(plane)
    assert plane.contains([rat(1, 2), 7, 0]) and not plane.contains([0, 0, rat(1, 3)])
    with pytest.raises(DimensionMismatch):
        Subspace.full(4).contains_subspace(plane)
    with pytest.raises(DimensionMismatch):
        plane.contains([1, 0])


def test_series_reach_zero():
    g = mu10_1()
    lcs = g.lower_central_series()
    assert lcs[-1].dim == 0
    dims = [s.dim for s in lcs]
    assert dims == sorted(dims, reverse=True)
    ds = g.derived_series()
    assert ds[-1].dim == 0


def test_quotient_by_center_mu10_1():
    g = mu10_1()
    q = g.quotient(g.center())
    assert q.dim == 8
    assert q.jacobi_check() is None
    assert tuple(char_sequence(q)) == (4, 1, 1, 1, 1)


def test_quotient_by_center_mu9_55():
    # directly computed: the 7-dimensional quotient is 3-filiform
    g = catalog.build(55, 4)
    z = g.center()
    assert z.dim == 2
    q = g.quotient(z)
    assert q.dim == 7
    assert tuple(char_sequence(q)) == (4, 1, 1, 1)


def test_quotient_full_and_not_ideal():
    g = mu10_1()
    assert g.quotient(Subspace.full(10)).dim == 0
    line = Subspace.span(10, [basis_vec(10, 0)])  # X1 does not span an ideal
    with pytest.raises(NotAnIdeal):
        g.quotient(line)


def test_direct_sum_basic():
    g = mu10_1()
    s = g.direct_sum(abelian(0))
    assert s == g
    a = abelian(1).direct_sum(abelian(1))
    assert a.is_abelian() and a.dim == 2


def test_direct_sum_catalog():
    g65 = catalog.build(65, 3)
    s = g65.direct_sum(g65)
    assert s.dim == 14
    assert s.jacobi_check() is None
    assert len(s.lower_central_series()) - 1 == 5      # nilindex 5
    assert s.center().dim == 2 * g65.center().dim
    assert (
        s.derived_subalgebra().dim == 2 * g65.derived_subalgebra().dim
    )


def test_abelian_direct_factor():
    assert abelian(1).has_abelian_direct_factor()
    g = mu10_1()
    assert not g.has_abelian_direct_factor()
    assert g.direct_sum(abelian(1)).has_abelian_direct_factor()


def test_heisenberg():
    h = heisenberg(1)
    assert h.jacobi_check() is None
    assert tuple(char_sequence(h)) == (2, 1)


def test_basis_change_kind_validation():
    with pytest.raises(SingularTransform):
        BasisChange(Matrix.zeros(3, 3))
    with pytest.raises(ValueError):
        BasisChange(Matrix.identity(3), kind="V")


def test_from_bracket_list():
    g = from_bracket_list(4, [(2, 0, {3: 2}), (0, 1, {2: 1}), (1, 0, {3: 1})],
                          labels=("a", "b", "c", "d"), meta={"name": "t"})
    assert g.brackets == {(0, 2): {3: rat(-2)}, (0, 1): {2: rat(1), 3: rat(-1)}}
    assert g.labels == ("a", "b", "c", "d") and g.meta == {"name": "t"}
    # two entries on one pair add up; reversed pairs count negated
    g = from_bracket_list(3, [(0, 1, {2: rat(1, 2)}), (0, 1, {2: rat(1, 3)}), (1, 0, {2: 1})])
    assert g.brackets == {(0, 1): {2: rat(-1, 6)}}
    # ... also when the reversed entry comes first
    g = from_bracket_list(3, [(1, 0, {2: rat(1, 2), 0: "3/4"}), (0, 1, {2: 2})])
    assert g.brackets == {(0, 1): {2: rat(3, 2), 0: rat(-3, 4)}}
    g = from_bracket_list(3, [(2, 1, {0: rat(2, 3)}), (1, 2, {0: rat(2, 3)}), (0, 2, {1: -1})])
    assert g.brackets == {(0, 2): {1: rat(-1)}}
    # entries that cancel leave no pair, zero coefficients are dropped
    entries = [(0, 1, {2: 1}), (1, 0, {2: 1}), (0, 2, {1: 0, 2: 0}), (1, 2, {0: 0, 1: 3})]
    g = from_bracket_list(3, entries)
    assert g.brackets == {(1, 2): {1: rat(3)}}
    with pytest.raises(DimensionMismatch):
        from_bracket_list(3, [(1, 1, {2: 1})])


@cache
def _support_algebras(name):
    """The catalog at n = 7..13, or a seeded conjugate of each instance at n = 7..9 and its quotient by Z."""
    if name == "catalog":
        return tuple(
            inst.algebra for n in range(7, 14) for inst in catalog.enumerate_instances(n)
        )
    rng = random.Random(2030)
    out = []
    for n in range(7, 10):
        for inst in catalog.enumerate_instances(n):
            while True:
                t = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
                if rank(t) == n:
                    break
            h = inst.algebra.change_basis(t)
            out += [h, h.quotient(h.center())]
    return tuple(out)


def _forward_echelons(monkeypatch, compute):
    """Copies of the forward echelons that `compute()` hands to `Subspace._of_echelon`, in order."""
    seen = []
    of_echelon = Subspace._of_echelon

    def recording(ambient, pivots):
        seen.append({c: dict(row) for c, row in pivots.items()})
        return of_echelon(ambient, pivots)

    with monkeypatch.context() as m:
        m.setattr(Subspace, "_of_echelon", staticmethod(recording))
        compute()
    return seen


@pytest.mark.parametrize("name", ["catalog", "conjugates"])
def test_series_and_center_read_the_support(monkeypatch, name):
    """The lower central series and the center equal the references, forward echelons too.

    The series computes [e_i, v] only for i in the support of v's tensor
    rows, and the center substitutes its one-entry rows before the
    kernel.  Both must give the Subspaces of the rational reference
    (`ref.lower_central_series`, `ref.center`), and every forward echelon
    they build must be the one built by the integer versions that bracket
    every e_i with every v and hand the kernel every row
    (`ref.integer_lower_central_series`, `ref.integer_center`).
    """
    for g in _support_algebras(name):
        assert g.lower_central_series() == ref.lower_central_series(g)
        assert g.center() == ref.center(g)
        assert (_forward_echelons(monkeypatch, g.lower_central_series)
                == _forward_echelons(monkeypatch, lambda: ref.integer_lower_central_series(g)))
        assert (_forward_echelons(monkeypatch, g.center)
                == _forward_echelons(monkeypatch, lambda: ref.integer_center(g)))


def test_series_computes_only_nonzero_brackets_on_the_catalog(monkeypatch):
    """Over the 344 catalog instances at n = 7..13 the series computes 3959 brackets, none of them 0.

    Bracketing every e_i with every echelon row, as the integer reference
    does, computes 39838, and 35879 of those are 0.
    """
    counts = {}

    def counting(key, bracket):
        def wrapped(br, u, v):
            w = bracket(br, u, v)
            calls, zeros = counts.get(key, (0, 0))
            counts[key] = (calls + 1, zeros + (not w))
            return w
        return wrapped

    monkeypatch.setattr(lie, "_int_bracket", counting("support", lie._int_bracket))
    monkeypatch.setattr(ref, "_int_bracket", counting("every", ref._int_bracket))
    for g in _support_algebras("catalog"):
        assert g.lower_central_series() == ref.integer_lower_central_series(g)
    assert counts == {"support": (3959, 0), "every": (39838, 35879)}


def test_catalog_is_its_own_adapted_algebra():
    """All 344 catalog instances at n = 7..13 have every term of the lower
    central series spanned by basis vectors, so `adapted()` returns the
    algebra itself, with no basis change."""
    algebras = _support_algebras("catalog")
    assert len(algebras) == 344
    for g in algebras:
        assert all(len(row) == 1 for s in g.lower_central_series() for row in s.echelon.values())
        h, t = g.adapted()
        assert h is g and t is None and g.adapted()[0] is g


def test_adapted_keeps_no_reference_to_itself():
    """An algebra that is its own adapted one keeps a marker, not (itself,
    None), which would be a reference cycle: its reference count is the
    same after `adapted()`.  A dense conjugate keeps one adapted copy,
    change_basis(T) for a T with integer columns, which is its own."""
    g = catalog.build(65, 3)
    before = sys.getrefcount(g)
    h, t = g.adapted()
    del h
    assert t is None and sys.getrefcount(g) == before
    rng = random.Random(5)
    while True:
        m = Matrix([[rng.randint(-2, 2) for _ in range(g.dim)] for _ in range(g.dim)])
        if rank(m) == g.dim:
            break
    dense = g.change_basis(m)
    h, t = dense.adapted()
    assert h is not dense and dense.adapted()[0] is h and h.adapted()[0] is h
    assert t._scale == 1 and h == dense.change_basis(t)
