"""Reference Gaussian elimination over the rationals, for differential tests.

This is the straightforward field elimination that nilform used before its
integer fraction-free core: every step divides by the pivot, so every
entry is a reduced rational.  It is slow but obviously correct, and the
reduced row echelon form is unique, so the core must reproduce its pivots,
rows and kernel vectors exactly.

It also keeps the dense products that test every entry pair of a row and a
column (`matmul`, and `matvec`, which the library no longer has), `solve`,
which reads a solution of A x = b off the rref of [A | b], and the rank
sequence and Jordan profile that form the powers of A
with that product and rank each one.
"""

from nilform.errors import DimensionMismatch, NotNilpotent, SingularTransform
from nilform.linalg import Matrix
from nilform.rational import ONE, ZERO, rat


def rref_inplace(rows, ncols):
    """Reduce a list of row-lists to reduced row echelon form.

    Pivot choice scans columns left to right and takes the smallest row
    index with a nonzero entry.  Returns the pivot column list.
    """
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if piv != 1:
            inv = ONE / piv
            rows[r] = [x * inv for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(a: Matrix):
    rows = [list(r) for r in a.data]
    pivots = rref_inplace(rows, a.ncols)
    return Matrix(rows, copy=False), len(pivots), tuple(pivots)


def rank(a: Matrix) -> int:
    return rref(a)[1]


def kernel_basis(a: Matrix):
    rows = [list(r) for r in a.data]
    pivots = rref_inplace(rows, a.ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(a.ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * a.ncols
        v[free] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][free]
        basis.append(v)
    return basis


def solve(a: Matrix, b):
    if a.nrows != len(b):
        raise DimensionMismatch("rhs length mismatch")
    rows = [list(r) + [rat(x)] for r, x in zip(a.data, b)]
    pivots = rref_inplace(rows, a.ncols + 1)
    if pivots and pivots[-1] == a.ncols:
        return None
    x = [ZERO] * a.ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][a.ncols]
    return x


def matvec(a: Matrix, v):
    if a.ncols != len(v):
        raise DimensionMismatch("matvec shape mismatch")
    return [
        sum((x * y for x, y in zip(row, v) if x and y), ZERO) for row in a.data
    ]


def inverse(a: Matrix) -> Matrix:
    n = a.nrows
    rows = [list(r) + [ZERO] * n for r in a.data]
    for i in range(n):
        rows[i][n + i] = ONE
    pivots = rref_inplace(rows, 2 * n)
    if len([p for p in pivots if p < n]) != n:
        raise SingularTransform("matrix is singular")
    return Matrix([row[n:] for row in rows], copy=False)


def sparse_kernel(rows, ncols):
    """Kernel of sparse rows ({col: coeff} dicts): (pivot_cols, kernel vectors)."""
    pivots = {}
    for raw in rows:
        row = {c: v for c, v in raw.items() if v}
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                f = row[c]
                if f != 1:
                    inv = ONE / f
                    row = {cc: vv * inv for cc, vv in row.items()}
                pivots[c] = row
                break
            f = row.pop(c)
            for cc, vv in prow.items():
                if cc == c:
                    continue
                nv = row.get(cc, ZERO) - f * vv
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)
    # Back-substitute so pivot rows are reduced against later pivots.
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for cc in [k for k in row if k != c and k in pivots]:
            f = row.pop(cc)
            for c2, v2 in pivots[cc].items():
                if c2 == cc:
                    continue
                nv = row.get(c2, ZERO) - f * v2
                if nv:
                    row[c2] = nv
                else:
                    row.pop(c2, None)
    pivot_cols = sorted(pivots)
    pivot_set = set(pivot_cols)
    kernel = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for p in pivot_cols:
            coeff = pivots[p].get(free)
            if coeff:
                v[p] = -coeff
        kernel.append(v)
    return pivot_cols, kernel


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.ncols != b.nrows:
        raise DimensionMismatch("matmul shape mismatch")
    bt = b.transpose().data
    out = [
        [
            sum((x * y for x, y in zip(arow, bcol) if x and y), ZERO)
            for bcol in bt
        ]
        for arow in a.data
    ]
    return Matrix(out, copy=False)


def rank_sequence(a: Matrix, kmax=None):
    """[rank(A^0), rank(A^1), ...], stopping at rank zero, a repeated rank or kmax."""
    if not a.is_square:
        raise DimensionMismatch("rank_sequence of non-square matrix")
    n = a.nrows
    if kmax is None:
        kmax = n
    seq = [n]
    p = a
    for _ in range(kmax):
        r = rank(p)
        seq.append(r)
        if r == 0 or r == seq[-2]:
            break
        p = matmul(p, a)
    return seq


def nilpotent_jordan_profile(a: Matrix):
    """Jordan block sizes of a nilpotent matrix from its rank sequence, descending."""
    n = a.nrows
    seq = rank_sequence(a)
    if seq[-1] != 0:
        if n == 0:
            return ()
        raise NotNilpotent(f"rank(A^{len(seq) - 1}) = {seq[-1]} > 0")
    diffs = [seq[k - 1] - seq[k] for k in range(1, len(seq))]
    profile = []
    for size in range(len(diffs), 0, -1):
        count = diffs[size - 1] - (diffs[size] if size < len(diffs) else 0)
        profile.extend([size] * count)
    profile.sort(reverse=True)
    assert sum(profile) == n
    return tuple(profile)
