"""Derivation algebras, diagonal weights, and characteristic nilpotency.

A derivation D satisfies D[x,y] = [Dx,y] + [x,Dy]; the space of all
derivations is the kernel of a linear system with n^2 unknowns, solved
exactly.  Characteristic nilpotency (every derivation nilpotent) is
decided by trace-power identity testing on the generic derivation: all
derivations are nilpotent iff tr(D^k) vanishes identically for k = 1..n.
Each tr(D^k) is a polynomial in the basis coefficients, tested by exact
evaluation at random integer points; a nonzero hit produces an exact
non-nilpotent witness, and the all-zero outcome carries a transcript
whose false-negative probability is far below 2^-40.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import DimensionMismatch
from .lie import LieAlgebra, basis_vec
from .linalg import Matrix, char_poly, common_denominator, matmul, sparse_kernel
from .linform import LinearForm
from .rational import ONE, ZERO, rat

CHARNILP_SEED = 987654321


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


@dataclass
class DerivationSpace:
    algebra: LieAlgebra
    basis: list                  # list of n x n Matrix
    free_positions: list = field(repr=False)  # vectorized coords giving coefficients

    @property
    def dim(self):
        return len(self.basis)

    def element(self, coeffs):
        """Linear combination of the basis as a matrix."""
        n = self.algebra.dim
        out = [[ZERO] * n for _ in range(n)]
        for c, b in zip(coeffs, self.basis):
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

    def coordinates_of(self, m: Matrix):
        """Coefficients of a derivation in this basis (exact; asserts fit)."""
        n = self.algebra.dim
        flat = [m.data[p // n][p % n] for p in self.free_positions]
        residual = self.element(flat) - m
        if not residual.is_zero():
            raise DimensionMismatch("matrix is not in the derivation space")
        return flat


def is_derivation(g: LieAlgebra, d: Matrix) -> bool:
    """Exact Leibniz rule: D ad(e_i) - ad(e_i) D = ad(D e_i) for every i."""
    for i in range(g.dim):
        ad_i = g.ad(basis_vec(g.dim, i))
        if matmul(d, ad_i) - matmul(ad_i, d) != g.ad(d.col(i)):
            return False
    return True


def derivation_space(g: LieAlgebra) -> DerivationSpace:
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
    return DerivationSpace(algebra=g, basis=basis, free_positions=free_positions)


def derivation_algebra(g: LieAlgebra) -> LieAlgebra:
    """Der(g) as a Lie algebra under the commutator, in the rref basis."""
    space = derivation_space(g)
    r = space.dim
    n = g.dim
    brackets = {}
    for a in range(r):
        da = space.basis[a]
        for b in range(a + 1, r):
            db = space.basis[b]
            comm = (da * db) - (db * da)
            coeffs = space.coordinates_of(comm)
            comp = {k: c for k, c in enumerate(coeffs) if c}
            if comp:
                brackets[(a, b)] = comp
    labels = tuple(f"Z{i + 1}" for i in range(r))
    name = g.meta.get("name", "g")
    return LieAlgebra(r, brackets, labels=labels, meta={"name": f"Der({name})"})


# -- diagonal derivations and weights ----------------------------------------

def _weight_param_name(pos):
    return f"f{pos + 1}^{pos + 1}" if pos < 6 else f"mu{pos - 5}"


@dataclass
class WeightSignature:
    """Diagonal-derivation weights in the presented basis.

    rank is the dimension of the diagonal solution space; weights[i] is the
    weight of the i-th basis vector as a linear form in the free parameters
    (named f1^1, f2^2, ... for the six chain positions, mu_k for the rest).
    """

    rank: int
    weights: list

    def multiset(self):
        out = {}
        for w in self.weights:
            out[w] = out.get(w, 0) + 1
        return out

    def canonical_key(self):
        """Basis-order relabelling of the free parameters, as a hashable key."""
        mapping = {}
        relabeled = []
        for w in self.weights:
            for name in _ordered_vars(w):
                if name not in mapping:
                    mapping[name] = f"t{len(mapping) + 1}"
            relabeled.append(
                w.substitute({k: LinearForm.var(v) for k, v in mapping.items()})
            )
        counts = {}
        for w in relabeled:
            counts[w.key()] = counts.get(w.key(), 0) + 1
        return (self.rank, tuple(sorted(counts.items())))

    def __str__(self):
        parts = [f"rank {self.rank}"]
        for w, c in sorted(self.multiset().items(), key=lambda wc: wc[0].key()):
            parts.append(f"({w})^{c}" if c > 1 else f"({w})")
        return " ".join(parts)


def _ordered_vars(form: LinearForm):
    def sort_key(name):
        if name.startswith("f"):
            return (0, int(name[1 : name.index("^")]))
        return (1, int(name[2:]))

    return sorted(form.variables(), key=sort_key)


def diagonal_derivations(g: LieAlgebra) -> WeightSignature:
    """Solve lambda_i + lambda_j = lambda_k over all stored brackets.

    Columns are processed in reverse so the free parameters land on the
    lowest basis positions, matching the naming convention (the X1 and X2
    weights come first, then the mu's in index order).
    """
    n = g.dim
    rows = []
    seen = set()
    for (i, j), comp in sorted(g.brackets.items()):
        for k in sorted(comp):
            row = {}
            for pos, c in ((i, ONE), (j, ONE), (k, -ONE)):
                row[pos] = row.get(pos, ZERO) + c
            row = {n - 1 - c: v for c, v in row.items() if v}
            key = tuple(sorted(row.items()))
            if row and key not in seen:
                seen.add(key)
                rows.append(row)
    pivot_cols, kernel = sparse_kernel(rows, n)
    free_cols = [n - 1 - c for c in range(n) if c not in set(pivot_cols)]
    weights = []
    for pos in range(n):
        form = LinearForm()
        for vec, f in zip(kernel, free_cols):
            if vec[n - 1 - pos]:
                form = form + LinearForm({_weight_param_name(f): vec[n - 1 - pos]})
        weights.append(form)
    return WeightSignature(rank=len(kernel), weights=weights)


def verify_weight_vector(g: LieAlgebra, v) -> bool:
    """True iff e_i -> v_i * e_i is a derivation."""
    if len(v) != g.dim:
        raise DimensionMismatch("weight vector length != dim")
    v = [rat(x) for x in v]
    for (i, j), comp in g.brackets.items():
        for k, c in comp.items():
            if c and v[i] + v[j] != v[k]:
                return False
    return True


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


# -- characteristic nilpotency -------------------------------------------------

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
    denom = common_denominator(x for row in mat.data for x in row)
    return [[int(x * denom) for x in row] for row in mat.data]


def is_characteristically_nilpotent(
    g: LieAlgebra, seed=CHARNILP_SEED, space: DerivationSpace = None
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


@dataclass
class TowerLevel:
    depth: int
    dim: int
    char_nilpotent: CharNilpotency


@dataclass
class TowerResult:
    levels: list        # TowerLevel for Der^1 .. Der^depth (plus level 0 report)
    index: int          # smallest k with Der^k not char-nilpotent, or None


def derivation_tower_index(g: LieAlgebra, max_depth=1, seed=CHARNILP_SEED) -> TowerResult:
    """Walk g, Der(g), Der(Der(g)), ... testing characteristic nilpotency.

    The index is the smallest k <= max_depth whose k-th derivation algebra
    admits a non-nilpotent derivation.
    """
    levels = [TowerLevel(0, g.dim, is_characteristically_nilpotent(g, seed=seed))]
    current = g
    index = None
    for depth in range(1, max_depth + 1):
        current = derivation_algebra(current)
        result = is_characteristically_nilpotent(current, seed=seed)
        levels.append(TowerLevel(depth, current.dim, result))
        if not result.value:
            index = depth
            break
    return TowerResult(levels=levels, index=index)
