"""Reference derivation solver, for differential tests.

This is the version nilform used before `derivation_space` solved for the
values of a derivation on generators only: the full Leibniz system in n^2
unknowns D_{lk} (row l, column k of the derivation matrix), one sparse row
per basis pair i < j and coordinate t, with its kernel taken by
`sparse_kernel`.  Its kernel basis, one vector per free column of the
rref in ascending order, is the canonical basis the new solver must return.

`derivation_algebra` is the version used before each basis derivation was
cleared to integers once: it forms the rational commutators `da * db -
db * da` and reads them with `coordinates_of`.

`element` and `coordinates_of` are the dense rational readers of a
derivation space that `DerivationSpace` carried before the derivation
algebra read its commutators on integers: the combination of the basis
with given coefficients, and the coefficients of a matrix, checked against
that combination.  They read any object with `algebra`, `basis` and
`free_positions`; the reference solver returns its own such record,
`ReferenceSpace`, so that it does not depend on the library class.

`diagonal_derivations` is the weight signature from before the weight
rows went straight into the integer kernel: repeated rows are dropped by a
set of keys, the kernel is taken by `sparse_kernel` as dense rational
vectors, and each weight is a sum of one-term `LinearForm`s.  Its result
type is the library's `WeightSignature`.

`is_characteristically_nilpotent` is the decision used before it ran on
sparse integer powers: it computes the characteristic polynomial of every
witness eagerly, forms all n dense integer powers of the generic
derivation (`_int_matmul`), and takes the diagonal witness from the
`LinearForm` weight signature of this module's `diagonal_derivations`
(`diagonal_witness`).  Its result type is the eager `CharNilpotency` of
that version.
"""

import random
from dataclasses import dataclass
from math import lcm

from nilform.derivations import WeightSignature
from nilform.derivations import derivation_space as generator_space
from nilform.errors import DimensionMismatch
from nilform.lie import LieAlgebra
from nilform.linalg import Matrix, char_poly, sparse_kernel
from nilform.linform import LinearForm
from nilform.rational import ONE, ZERO, rat

CHARNILP_SEED = 987654321       # the seed of this decision's random trials


@dataclass
class ReferenceSpace:
    """A derivation space: its rref basis as rational Matrices and its free positions."""

    algebra: LieAlgebra
    basis: list
    free_positions: list

    @property
    def dim(self):
        return len(self.basis)


def element(space, coeffs):
    """Linear combination of the basis of a derivation space as a matrix."""
    n = space.algebra.dim
    out = [[ZERO] * n for _ in range(n)]
    for c, b in zip(coeffs, space.basis):
        if not c:
            continue
        c = rat(c)
        for i in range(n):
            brow = b.data[i]
            orow = out[i]
            for j in range(n):
                if brow[j]:
                    orow[j] += c * brow[j]
    return Matrix(out, copy=False)


def coordinates_of(space, m: Matrix):
    """Coefficients of a derivation in the basis of a space (exact; asserts fit)."""
    n = space.algebra.dim
    flat = [m.data[p // n][p % n] for p in space.free_positions]
    residual = element(space, flat) - m
    if not residual.is_zero():
        raise DimensionMismatch("matrix is not in the derivation space")
    return flat


def _var_index(l, k, n):
    # Unknown D_{lk}: entry in row l, column k of the derivation matrix.
    return l * n + k


def _leibniz_rows(g: LieAlgebra):
    """Sparse constraint rows of the derivation system, in (i, j, t) order."""
    n = g.dim
    rows = []
    cij_cols = [[g.bracket_basis(i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            comp = cij_cols[i][j]
            for t in range(n):
                row = {}
                for k, c in comp.items():
                    row[_var_index(t, k, n)] = row.get(_var_index(t, k, n), ZERO) + c
                for l in range(n):
                    c = cij_cols[l][j].get(t)
                    if c:
                        v = _var_index(l, i, n)
                        row[v] = row.get(v, ZERO) - c
                    c = cij_cols[i][l].get(t)
                    if c:
                        v = _var_index(l, j, n)
                        row[v] = row.get(v, ZERO) - c
                row = {c: v for c, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows


def derivation_space(g: LieAlgebra) -> ReferenceSpace:
    """Exact kernel of the Leibniz constraint system, basis in rref order."""
    n = g.dim
    rows = _leibniz_rows(g)
    pivot_cols, kernel = sparse_kernel(rows, n * n)
    pivot_set = set(pivot_cols)
    free_positions = [c for c in range(n * n) if c not in pivot_set]
    basis = [
        Matrix([v[i * n : (i + 1) * n] for i in range(n)], copy=False)
        for v in kernel
    ]
    return ReferenceSpace(algebra=g, basis=basis, free_positions=free_positions)


def _weight_param_name(pos):
    return f"f{pos + 1}^{pos + 1}" if pos < 6 else f"mu{pos - 5}"


def _weight_kernel(g: LieAlgebra):
    """Free positions and dense kernel vectors of lambda_i + lambda_j = lambda_k.

    One equation per distinct stored bracket row, columns reversed: kernel
    vector t, 1 at its free column, holds the weight of position pos at
    index n - 1 - pos.
    """
    n = g.dim
    rows = []
    seen = set()
    for (i, j), comp in sorted(g.brackets.items()):
        for k in sorted(comp):
            row = {}
            for pos, c in ((i, 1), (j, 1), (k, -1)):
                row[pos] = row.get(pos, 0) + c
            row = {n - 1 - c: v for c, v in row.items() if v}
            key = tuple(sorted(row.items()))
            if row and key not in seen:
                seen.add(key)
                rows.append(row)
    pivot_cols, kernel = sparse_kernel(rows, n)
    pivot_set = set(pivot_cols)
    return [n - 1 - c for c in range(n) if c not in pivot_set], kernel


def diagonal_derivations(g: LieAlgebra) -> WeightSignature:
    """The weight signature, free parameters on the lowest basis positions."""
    n = g.dim
    free_cols, kernel = _weight_kernel(g)
    weights = []
    for pos in range(n):
        form = LinearForm()
        for vec, f in zip(kernel, free_cols):
            if vec[n - 1 - pos]:
                form = form + LinearForm({_weight_param_name(f): vec[n - 1 - pos]})
        weights.append(form)
    return WeightSignature(rank=len(kernel), weights=weights)


def diagonal_witness(g: LieAlgebra):
    """A nonzero diagonal derivation when one exists, else None."""
    sig = diagonal_derivations(g)
    if sig.rank == 0:
        return None
    all_vars = set()
    for w in sig.weights:
        all_vars |= w.variables()
    for chosen in sorted(all_vars):
        assignment = {v: (ONE if v == chosen else ZERO) for v in all_vars}
        diag = [w.substitute(assignment).const for w in sig.weights]
        if any(diag):
            n = g.dim
            rows = [[ZERO] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = diag[i]
            return Matrix(rows, copy=False)
    return None


@dataclass
class CharNilpotency:
    """Outcome of the nilpotency test for the full derivation algebra.

    value False always comes with an exact witness (a non-nilpotent
    derivation); value True carries the randomized-test transcript.
    """

    value: bool
    witness: Matrix = None
    witness_char_poly: list = None
    transcript: dict = None

    def __bool__(self):
        return self.value


def _integer_scaled(mat: Matrix):
    denom = lcm(*(x.denominator for row in mat.data for x in row))
    return [[int(x * denom) for x in row] for row in mat.data]


def is_characteristically_nilpotent(
    g: LieAlgebra, seed=CHARNILP_SEED, space: ReferenceSpace = None
) -> CharNilpotency:
    """Decide whether every derivation of g is nilpotent.

    Checks the diagonal rank first (a nonzero diagonal derivation is an
    exact semisimple witness), then tests tr(D^k) = 0 identically for
    k = 1..n on the generic derivation by exact evaluation at random
    integer points.
    """
    n = g.dim
    witness = diagonal_witness(g)
    if witness is not None:
        return CharNilpotency(
            value=False, witness=witness, witness_char_poly=char_poly(witness)
        )
    if space is None:
        space = derivation_space(g)
    basis_int = [_integer_scaled(b) for b in space.basis]
    r = len(basis_int)
    if r == 0:
        return CharNilpotency(value=True, transcript={"seed": seed, "trials": 0, "comment": "Der = 0"})

    bound = 2 * n * n
    trials = max(2 * (n + 1), 16)
    rng = random.Random(seed)
    for trial in range(trials):
        coeffs = [rng.randint(-bound, bound) for _ in range(r)]
        d = [[0] * n for _ in range(n)]
        for c, b in zip(coeffs, basis_int):
            if not c:
                continue
            for i in range(n):
                bi = b[i]
                di = d[i]
                for j in range(n):
                    if bi[j]:
                        di[j] += c * bi[j]
        p = d
        for _ in range(n):
            tr = sum(p[i][i] for i in range(n))
            if tr != 0:
                mat = Matrix([[rat(x) for x in row] for row in d], copy=False)
                return CharNilpotency(
                    value=False, witness=mat, witness_char_poly=char_poly(mat)
                )
            p = _int_matmul(p, d)
    return CharNilpotency(
        value=True,
        transcript={"seed": seed, "trials": trials, "bound": bound, "powers": n},
    )


def _int_matmul(a, b):
    n = len(a)
    bt = list(zip(*b))
    return [
        [sum(x * y for x, y in zip(row, col) if x and y) for col in bt] for row in a
    ]


def derivation_algebra(g: LieAlgebra) -> LieAlgebra:
    """Der(g) from rational commutators of the basis matrices.

    The version used before each basis derivation was cleared to integers
    once: every product `da * db` clears both factors again, and
    `coordinates_of` checks each commutator with dense rational matrices.
    """
    space = generator_space(g)
    r = space.dim
    brackets = {}
    for a in range(r):
        da = space.basis[a]
        for b in range(a + 1, r):
            db = space.basis[b]
            comm = (da * db) - (db * da)
            coeffs = coordinates_of(space, comm)
            comp = {k: c for k, c in enumerate(coeffs) if c}
            if comp:
                brackets[(a, b)] = comp
    labels = tuple(f"Z{i + 1}" for i in range(r))
    name = g.meta.get("name", "g")
    return LieAlgebra(r, brackets, labels=labels, meta={"name": f"Der({name})"})
