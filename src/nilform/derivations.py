"""Derivation algebras, diagonal weights, and characteristic nilpotency.

A derivation D satisfies D[x,y] = [Dx,y] + [x,Dy], so it is determined by
its values on a generating set.  `derivation_space` takes as unknowns the
s*n coordinates of D(e_a) on generators e_a: a complement of C1 = [g, g],
which generates g when g is nilpotent, grown by further basis vectors when
it does not.  The set of x with D[x,y] = [Dx,y] + [x,Dy] for every y is a
subalgebra (by Jacobi), so imposing the rule on the pairs (generator a_p,
basis vector) is enough, and only on a complement of the vectors where it
already holds: those whose bracket with a_p defined a basis vector while
the generators grew, and the generators whose pair with a_p is imposed
already.  Most rows of a sparse system have one entry and fix an unknown
at 0; they are substituted into the others, and one `linalg._kernel_on`
solves the rest.  The space keeps the integer kernel of that system on the
generator unknowns, and the entries of D as linear forms in them.  Its
dimension is read off the kernel; the lift to the n^2 matrix entries is
built when first read (by the Engel flag), and the canonical rref basis of
the full n^2 Leibniz system -- one row reduction of the lift with the
columns reversed -- only when the derivation algebra or `basis` reads it.
Rationals are built only when `basis` is read.

Diagonal derivations come from one integer kernel of the weight system
lambda_i + lambda_j = lambda_k: `diagonal_derivations` names its free
parameters for the weight reports, and `diagonal_witness` reads a witness
straight off one kernel vector, each entry over the kernel's scale.

Characteristic nilpotency (every derivation nilpotent) is decided exactly
by Engel's theorem (Jacobson, *Lie Algebras*, 1962, ch. II): Der(g) is a
Lie algebra, so every derivation is nilpotent iff the Engel flag V_0 = 0,
V_{k+1} = {v : D v in V_k for every basis derivation D} reaches g.  Each
term is one `linalg._integer_kernel` on the lifted integer entries of the
derivation space, whose echelon gives the next annihilator, and a positive
verdict carries the flag: an integer basis in which every derivation is
strictly upper triangular.  A flag that stalls at V != g proves that some
derivation is not nilpotent, and a lifted basis derivation D_a or a sum
D_a + D_b is one.  Derivations are strictly triangular on V, so traces of
products on g are traces on g/V.  Were every D_a nilpotent and every
tr(D_a D_b) zero, the image of Der(g) in gl(g/V) would be solvable by
Cartan's criterion, so triangular by Lie's theorem, with diagonals linear
in D and zero at every D_a: nilpotent, and the flag would not stall
(Humphreys, *Introduction to Lie Algebras and Representation Theory*,
4.1 and 4.3).  So some D_a, or some D_a + D_b with
tr((D_a + D_b)^2) = 2 tr(D_a D_b) != 0, has a nonzero trace power
tr(D^k), k <= n, and the first such is the witness.  Its characteristic
polynomial is computed only when a caller reads it.  The flag and the
search run on `LieAlgebra.adapted()`, mapped back to g's basis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import lcm

from .errors import DimensionMismatch, NilformError
from .lie import LieAlgebra, _int_bracket, basis_vec
from .linalg import (
    Matrix,
    _column_matrix,
    _combine,
    _echelon,
    _fold,
    _integer_kernel,
    _inverse_echelon,
    _kernel_on,
    _primitive,
    char_poly,
    matmul,
)
from .linform import LinearForm
from .rational import ZERO, rat


class DerivationSpace:
    """Der(g), kept as the integer kernel of its Leibniz system on generators.

    kernel holds integer vectors {unknown: int}, a basis of the solutions,
    and forms[b][l] is entry (l, b) of d D, d > 0 one common integer, as an
    integer linear form {unknown: c} in them (`_generator_forms`); dim is
    the number of kernel vectors.  `fcols` turns the forms around into the
    map from each unknown u to {k: c}, the entries (l, b) it adds c times
    itself to, keyed k = n^2 - 1 - (l n + b); it is built on each read, and
    only `_lift` reads it.  The rest is built when first read, and kept:
    - `_lift`: the kernel vectors lifted to the n^2 entries, keyed as in
      fcols, integer multiples of a basis of Der(g) (not the rref one);
    - `cleared`: the rref basis D_t of Der(g), cleared[t] = (p_t, the
      sparse integer columns of p_t D_t), p_t > 0 the least integer that
      clears D_t: its entry at free_positions[t];
    - `free_positions`: the vectorized coordinates l n + b that give the
      coefficients in the rref basis, each the last nonzero entry of its D_t;
    - `basis`: the D_t as Matrices.
    """

    def __init__(self, algebra, kernel, forms):
        self.algebra = algebra
        self.kernel, self.forms = kernel, forms
        self.dim = len(kernel)

    @property
    def fcols(self):
        n = len(self.forms)
        out = {}
        for b, fb in enumerate(self.forms):
            for l, f in enumerate(fb):
                k = n * n - 1 - (l * n + b)         # entry (l, b), columns reversed
                for u, c in f.items():
                    out.setdefault(u, {})[k] = c
        return out

    @cached_property
    def _lift(self):
        fcols = self.fcols
        return [_primitive(_combine(fcols, x)) for x in self.kernel]

    @cached_property
    def cleared(self):
        # The lifts are keyed with the entries reversed.  Entry c is free in
        # the n^2 system iff some derivation has its last nonzero entry at c,
        # so one `_echelon` gives the free positions, and each of its rows is
        # an rref basis derivation times its pivot.
        canon = _echelon(dict(v) for v in self._lift)     # `_echelon` may update rows
        n = self.algebra.dim
        return [(canon[c][c], _entry_columns(canon[c], n)) for c in sorted(canon, reverse=True)]

    @cached_property
    def free_positions(self):
        return [max(l * len(cols) + b for b, col in enumerate(cols) for l in col)
                for _, cols in self.cleared]

    @cached_property
    def basis(self):
        return [_column_matrix(cols, p, self.algebra.dim) for p, cols in self.cleared]


def _entry_columns(row, n):
    """The n sparse integer columns {l: v} of a row {n^2 - 1 - (l n + b): v} of entries."""
    last = n * n - 1
    cols = [{} for _ in range(n)]
    for k, v in row.items():
        l, b = divmod(last - k, n)
        cols[b][l] = v
    return cols


def is_derivation(g: LieAlgebra, d: Matrix) -> bool:
    """Exact Leibniz rule: D ad(e_i) - ad(e_i) D = ad(D e_i) for every i."""
    for i in range(g.dim):
        ad_i = g.ad(basis_vec(g.dim, i))
        if matmul(d, ad_i) - matmul(ad_i, d) != g.ad(d.col(i)):
            return False
    return True


def _add(acc, form, c):
    """acc += c * form, for sparse integer linear forms {unknown: int}."""
    for u, v in form.items():
        acc[u] = acc.get(u, 0) + c * v


def _bracket_image(br, n, p, a, w, dw):
    """D[e_a, w] = [D e_a, w] + [e_a, D w] as n linear forms.

    Coordinate l of D e_a is the unknown p*n + l; dw holds the forms of D w.
    """
    out = [{} for _ in range(n)]
    for m, x in w.items():                  # [D e_a, w] = -[w, D e_a]
        for l, comp in br[m].items():
            for k, c in comp.items():
                out[k][p * n + l] = out[k].get(p * n + l, 0) - x * c
    for m, comp in br[a].items():
        for k, c in comp.items():
            _add(out[k], dw[m], c)
    return out


def _leibniz_equations(br, forms, a, j):
    """D[e_a, e_j] - [D e_a, e_j] - [e_a, D e_j] = 0, one row per coordinate, ascending.

    The rows are written into one dict keyed by the coordinates k that
    some term touches; a row that cancels to zero is dropped.
    """
    eq = {}
    for m, c in br[a].get(j, {}).items():
        for k, f in enumerate(forms[m]):
            if f:
                _add(eq.setdefault(k, {}), f, c)
    for l, comp in br[j].items():           # -[D e_a, e_j] = [e_j, D e_a]
        if f := forms[a][l]:
            for k, c in comp.items():
                _add(eq.setdefault(k, {}), f, c)
    for l, comp in br[a].items():
        if f := forms[j][l]:
            for k, c in comp.items():
                _add(eq.setdefault(k, {}), f, -c)
    return [row for row in ({u: v for u, v in eq[k].items() if v} for k in sorted(eq)) if row]


def _generator_forms(g, br):
    """Generators of g and the matrix of a generic derivation on them.

    Returns (gens, forms, held): D(e_gens[p]) has coordinate l equal to
    the unknown p*n + l, and forms[b][l] is coordinate l of d D(e_b) as an
    integer linear form, for one common integer d > 0.  held[p] is a
    forward echelon {pivot column: row} of vectors y whose Leibniz rule
    with a_p = e_gens[p] needs no equation (step 3 of
    `_solve_derivation_space`): a_p and the generators before it, each w_u
    of a kept bracket w_t = [a_p, w_u], and each later a_q with [a_q, a_p]
    kept.
    """
    n = g.dim
    c1 = set(g.derived_echelon())
    gens, held, gen_at = [], [], {}     # gen_at[t] = p when w_t = a_p
    ws, dws = [], []        # w_t as sparse integer vectors, D(w_t) as n linear forms
    span, todo = {}, deque()
    candidates = chain((b for b in range(n) if b not in c1), range(n))
    while len(ws) < n:
        if todo:
            p, u = todo.popleft()
            w = _int_bracket(br, {gens[p]: 1}, ws[u])
            if not w:                               # most brackets of a sparse law
                continue
        else:
            u, w = None, {next(candidates): 1}
        if not _fold(span, _primitive(dict(w))):    # `_cancel` may update rows in place
            continue
        if u is None:                               # a new generator e_b
            (b,) = w
            dw = [{len(gens) * n + l: 1} for l in range(n)]
            gen_at[len(ws)] = len(gens)
            gens.append(b)
            held.append({a: {a: 1} for a in gens})
        else:
            dw = _bracket_image(br, n, p, gens[p], ws[u], dws[u])
            _fold(held[p], _primitive(dict(ws[u])))     # the rule holds on w_u by definition
            if u in gen_at:                             # w_u = a_q: so does the pair (a_q, a_p)
                _fold(held[gen_at[u]], {gens[p]: 1})
        ws.append(w)
        dws.append(dw)
        todo.extend((p, len(ws) - 1) for p in range(len(gens)))

    wrows = [{} for _ in range(n)]          # W has the columns w_t
    for t, w in enumerate(ws):
        for i, x in w.items():
            wrows[i][t] = x
    inv = _inverse_echelon(wrows, n)
    d = lcm(*(inv[t][t] for t in range(n)))
    forms = [[{} for _ in range(n)] for _ in range(n)]
    for t, row in inv.items():
        q = d // row[t]
        for col, v in row.items():
            if col >= n:
                for acc, f in zip(forms[col - n], dws[t]):
                    _add(acc, f, q * v)
    return gens, forms, held


# (algebra, space) of the last `derivation_space` call; replaced whole.
_last_space = (None, None)


def derivation_space(g: LieAlgebra) -> DerivationSpace:
    """Der(g), as the integer kernel of its Leibniz system on generators.

    The last result is kept and returned again while the argument is the
    same object (`is`, not `==`), so a sequence of calls on one algebra --
    `invariants.fingerprint` and then the characteristic-nilpotency
    decision, or a tower level and then its derivation algebra -- solves
    the system once.  Only one algebra and one space are held.  This relies
    on the rule `LieAlgebra.integer_brackets` relies on: neither an algebra
    nor a returned space is ever modified.  The fields a space fills in
    when first read (`_lift`, `cleared`, `free_positions`, `basis`) are
    built deterministically from its kernel and forms, so every reader of
    a shared space sees the same values.  `_solve_derivation_space` solves the
    system and states its Jacobi assumption.
    """
    global _last_space
    last, space = _last_space
    if last is not g:
        space = _solve_derivation_space(g)
        _last_space = (g, space)            # one assignment: never a mixed pair
    return space


def _solve_derivation_space(g: LieAlgebra) -> DerivationSpace:
    """The Leibniz system of `derivation_space`, solved on generators.

    The unknowns are the values D(e_a) on generators e_a only, s*n of
    them; the steps are:
    1. Generators.  The coordinates a that are not pivots of C1 = [g, g]
       span a complement of C1.  A basis w_1..w_n of g grows out of them by
       iterated brackets [e_a, w_u], kept when independent of those before.
       If the brackets close below dim n -- g is not nilpotent, as in
       Der(g) in a tower, [e1, e2] = e1 or sl2 -- the first e_b outside
       their span joins the generators and the same loop goes on.
    2. Linear forms.  D(w) is linear in the unknowns:
       D[e_a, w_u] = [D e_a, w_u] + [e_a, D w_u].  With W the matrix of
       columns w_t and d the lcm of the pivots of [W | I], d D(e_b) is the
       integer combination of the D(w_t) in column b of d W^-1.
    3. Constraints.  {x : phi(x, y) = 0 for all y}, with
       phi(x, y) = D[x, y] - [Dx, y] - [x, Dy], is a subalgebra by Jacobi
       and holds every generator, so it is g: it is enough that
       phi(a_p, .) = 0 for each generator a_p.  That form is linear, and it
       vanishes identically on each w_u of a kept bracket w_t = [a_p, w_u],
       because step 1 defined D(w_t) so, and on a_p itself.  phi is
       antisymmetric, so on a_q it is -phi(a_q, a_p): implied by the
       equations of a_q when q < p, and identically zero when q > p and the
       bracket [a_q, a_p] was kept.  Those vectors make the forward echelon
       K_p that `_generator_forms` returns; with P its pivot columns, K_p
       and the e_j, j not in P, are a basis of g.  So the equations
       phi(a_p, e_j) = 0, j not in P, taken for p = 1, 2, ... in turn,
       give phi(a_p, .) = 0 on all of g, and only they are imposed.  That
       holds on any table, Jacobi or not: the solutions are those of every
       pair (a_p, e_j), and the reduced kernel of the rows is the same.
    4. Kernel.  Each pair's rows are built in ascending coordinate order.
       A row with one entry fixes its unknown at 0: those rows are
       substituted into the others, and `linalg._kernel_on` takes the
       rest, written on the unknowns left, dropping the rows left empty.
       Its kernel is the kernel of all the rows, which is 0 at every fixed
       unknown.  It is kept with the forms; the lift to the n^2 matrix
       entries and the canonical rref basis are built by `DerivationSpace`
       when a reader asks for them.
    The structure constants are read as integers from
    `LieAlgebra.integer_brackets`, and no rational is built.

    g must satisfy Jacobi, which `LieAlgebra` does not check (see
    `jacobi_check`): on a table that fails it, the subalgebra argument of
    step 3 no longer holds, and the result still contains every derivation
    but can also contain matrices that are not derivations.
    """
    n = g.dim
    br = g.integer_brackets()
    gens, forms, held = _generator_forms(g, br)
    rows = []
    for a, pivots in zip(gens, held):
        for j in range(n):
            if j not in pivots:
                rows.extend(_leibniz_equations(br, forms, a, j))
    zero = {u for r in rows if len(r) == 1 for u in r}
    live = [u for u in range(len(gens) * n) if u not in zero]
    index = {u: i for i, u in enumerate(live)}
    kernel = _kernel_on(({index[u]: v for u, v in r.items() if u not in zero}
                         for r in rows if len(r) > 1), live)
    return DerivationSpace(algebra=g, kernel=kernel, forms=forms)


def derivation_algebra(g: LieAlgebra) -> LieAlgebra:
    """Der(g) as a Lie algebra under the commutator, in the rref basis.

    Each basis derivation is D_a = C_a / d_a, (d_a, C_a) as the space
    keeps it.  Column j of d_a d_b [D_a, D_b] is one `_combine` of the
    columns of C_a and C_b, and its coordinates are its entries at the free
    positions, divided by d_a d_b.  The commutator must equal the
    combination of the basis with those coordinates; the check runs on
    integers, each C_a flattened and scaled to den, the lcm of the d_a.
    """
    space = derivation_space(g)
    r = space.dim
    n = g.dim
    den = lcm(*(d for d, _ in space.cleared))
    flat = [
        {i * n + j: (den // d) * v for j, col in enumerate(cols) for i, v in col.items()}
        for d, cols in space.cleared
    ]
    brackets = {}
    for a in range(r):
        da, ca = space.cleared[a]
        for b in range(a + 1, r):
            db, cb = space.cleared[b]
            rows = ca + cb                  # column j: C_a C_b e_j - C_b C_a e_j
            comm = {}
            for j in range(n):
                v = dict(cb[j])
                v.update((n + k, -x) for k, x in ca[j].items())
                for i, x in _combine(rows, v).items():
                    comm[i * n + j] = x
            coeffs = {t: comm[p] for t, p in enumerate(space.free_positions) if p in comm}
            if _combine(flat, coeffs) != {p: den * x for p, x in comm.items()}:
                raise DimensionMismatch("matrix is not in the derivation space")
            if coeffs:
                brackets[(a, b)] = {t: rat(x, da * db) for t, x in coeffs.items()}
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


def _weight_kernel(g: LieAlgebra):
    """Free positions, scale and kernel vectors of lambda_i + lambda_j = lambda_k.

    One row per stored bracket coefficient, as it is: its entries are +-1
    (k is at most one of i < j), so it is primitive, and a repeated row is
    a dependent row the kernel skips.  Columns are reversed, so the free
    parameters land on the lowest basis positions; kernel vector t holds
    scale times the weight of position pos at index n - 1 - pos.
    """
    n = g.dim
    rows = []
    for (i, j), comp in sorted(g.brackets.items()):
        for k in sorted(comp):
            row = {n - 1 - i: 1, n - 1 - j: 1}
            row[n - 1 - k] = row.get(n - 1 - k, 0) - 1
            rows.append({c: v for c, v in row.items() if v})
    pivots, scale, kernel = _integer_kernel(rows, n)
    return [n - 1 - c for c in range(n) if c not in pivots], scale, kernel


def diagonal_derivations(g: LieAlgebra) -> WeightSignature:
    """Solve lambda_i + lambda_j = lambda_k over all stored brackets.

    The free parameters sit on the lowest basis positions, matching the
    naming convention (the X1 and X2 weights come first, then the mu's in
    index order).
    """
    n = g.dim
    free_cols, scale, kernel = _weight_kernel(g)
    names = [_weight_param_name(f) for f in free_cols]
    weights = []
    for pos in range(n):
        c = n - 1 - pos
        weights.append(LinearForm({x: rat(v[c], scale) for x, v in zip(names, kernel) if c in v}))
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
    """A nonzero diagonal derivation when one exists, else None.

    The weights of the kernel vector whose parameter name sorts first: the
    diagonal the weight signature gives with that parameter set to 1 and
    every other one to 0.
    """
    free_cols, scale, kernel = _weight_kernel(g)
    if not kernel:
        return None
    t = min(range(len(kernel)), key=lambda t: _weight_param_name(free_cols[t]))
    n = g.dim
    rows = [[ZERO] * n for _ in range(n)]
    for c, v in kernel[t].items():
        rows[n - 1 - c][n - 1 - c] = rat(v, scale)
    return Matrix(rows, copy=False)


# -- characteristic nilpotency -------------------------------------------------

@dataclass
class EngelFlag:
    """The Engel flag of Der(g), reaching g.

    dims[k] is dim V_{k+1}, rising strictly to n.  basis holds n integer
    vectors (dense lists) whose first dims[k] span V_{k+1}, so with B the
    matrix of columns basis, B^-1 D B is strictly upper triangular for every
    derivation D.
    """

    dims: list
    basis: list


@dataclass
class CharNilpotency:
    """Outcome of the nilpotency test for the full derivation algebra.

    value False always comes with an exact witness (a non-nilpotent
    derivation); value True with the Engel flag that proves it.
    witness_char_poly, the characteristic polynomial of the witness (None
    without one), is computed from the witness on first access.
    """

    value: bool
    witness: Matrix = None
    flag: EngelFlag = None

    def __bool__(self):
        return self.value

    @cached_property
    def witness_char_poly(self):
        return None if self.witness is None else char_poly(self.witness)


def _engel_flag(lift, n):
    """The Engel flag of the span of the matrices C, or None when it stalls.

    Each C is given as a row {n^2 - 1 - (l n + b): entry (l, b)} of its
    entries, as in `DerivationSpace._lift`.  The rows a C, for a in an
    integer basis of the annihilator of V_k, make a system R with
    V_{k+1} = ker R; the echelon of R that `_integer_kernel` returns is a
    basis of row R = (ker R)^perp, the annihilator of V_{k+1}.  Each new
    term's vectors are folded into one echelon, and those that add a
    pivot extend the adapted basis.  Every term is read from a reduced
    echelon of a row space that only the span of the C fixes, so the flag
    is the same for any basis of Der(g), and the decision passes the lift:
    the rref basis is not built.
    """
    last = n * n - 1
    crows = []                                  # the rows of each C
    for entries in lift:
        rows = [{} for _ in range(n)]
        for k, v in entries.items():
            l, b = divmod(last - k, n)
            rows[l][b] = v
        crows.append(rows)
    annihilator = [{i: 1} for i in range(n)]
    span, basis, dims = {}, [], []
    while len(basis) < n:
        rows = [r for a in annihilator for c in crows if (r := _combine(c, a))]
        echelon, _, term = _integer_kernel(rows, n)
        if len(term) == len(basis):
            return None
        term = [_primitive(v) for v in term]
        basis.extend(v for v in term if _fold(span, dict(v)))   # `_fold` may update it
        dims.append(len(basis))
        annihilator = list(echelon.values())
    return EngelFlag(dims=dims, basis=[[v.get(i, 0) for i in range(n)] for v in basis])


def _nonnilpotent_witness(mats, n):
    """The first of D_1..D_r, then of D_a + D_b (a < b), with some tr(D^k) != 0, k <= n.

    Each D is n sparse integer columns, and a candidate stops at its first
    zero power.  The search runs out only on a span that is no Lie algebra
    or has only nilpotent elements (the argument of the module docstring).
    """
    pairs = ([_combine(cols, {0: 1, 1: 1}) for cols in zip(da, db)]
             for da, db in combinations(mats, 2))
    for d in chain(mats, pairs):
        p = d
        for _ in range(n):
            if sum(col.get(j, 0) for j, col in enumerate(p)):
                return _column_matrix(d, 1, n)
            p = [_combine(p, col) for col in d]                     # the columns of P D
            if not any(p):
                break
    raise NilformError("no witness among the D_a and D_a + D_b: g fails Jacobi")


def is_characteristically_nilpotent(g: LieAlgebra) -> CharNilpotency:
    """Decide whether every derivation of g is nilpotent.

    A nonzero diagonal derivation is an exact semisimple witness.
    Otherwise the Engel flag of `derivation_space(h)`, (h, T) = g.adapted(),
    decides exactly: when it reaches h the verdict is True and carries the
    flag (with Der = 0, V_1 = h).  When it stalls, `_nonnilpotent_witness`
    searches the lifted basis derivations the flag read, and the sums of
    two, by the argument of the module docstring; the rref basis is never
    built.  A flag vector v maps back to T v, a witness D to T D T^-1, and
    a derivation space of h that a caller has just built is read again.

    The stall proves a non-nilpotent derivation only because Der(g) is a
    Lie algebra, which needs g to satisfy Jacobi (see `derivation_space`);
    on a table that fails it the search can run out and raise `NilformError`.
    """
    n = g.dim
    witness = diagonal_witness(g)
    if witness is not None:
        return CharNilpotency(value=False, witness=witness)
    h, t = g.adapted()
    space = derivation_space(h)
    flag = _engel_flag(space._lift, n)
    if flag is not None:
        if t is not None:                                       # v -> T v, T on integers
            flag.basis = [[sum(c.get(i, 0) * x for c, x in zip(t._columns, v)) for i in range(n)]
                          for v in flag.basis]
        return CharNilpotency(value=True, flag=flag)
    witness = _nonnilpotent_witness([_entry_columns(v, n) for v in space._lift], n)
    if t is not None:
        witness = matmul(matmul(t.matrix, witness), t.inverse_matrix)
    return CharNilpotency(value=False, witness=witness)


@dataclass
class TowerLevel:
    depth: int
    dim: int
    char_nilpotent: CharNilpotency


@dataclass
class TowerResult:
    levels: list        # TowerLevel for Der^1 .. Der^depth (plus level 0 report)
    index: int          # smallest k with Der^k not char-nilpotent, or None


def derivation_tower_index(g: LieAlgebra, max_depth=1) -> TowerResult:
    """Walk g, Der(g), Der(Der(g)), ... testing characteristic nilpotency.

    The index is the smallest k <= max_depth whose k-th derivation algebra
    admits a non-nilpotent derivation.  Each level is built from the
    adapted algebra that decided the one before, which solved its system.
    """
    levels = [TowerLevel(0, g.dim, is_characteristically_nilpotent(g))]
    current = g
    index = None
    for depth in range(1, max_depth + 1):
        current = derivation_algebra(current.adapted()[0])
        result = is_characteristically_nilpotent(current)
        levels.append(TowerLevel(depth, current.dim, result))
        if not result.value:
            index = depth
            break
    return TowerResult(levels=levels, index=index)
