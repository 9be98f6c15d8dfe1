"""Reference derivation solver, for differential tests.

This is the version nilform used before `derivation_space` solved for the
values of a derivation on generators only: the full Leibniz system in n^2
unknowns D_{lk} (row l, column k of the derivation matrix), one sparse row
per basis pair i < j and coordinate t, with its kernel taken by
`sparse_kernel`.  Its kernel basis, one vector per free column of the
rref in ascending order, is the canonical basis the new solver must return.
"""

from nilform.derivations import DerivationSpace
from nilform.lie import LieAlgebra
from nilform.linalg import Matrix, sparse_kernel
from nilform.rational import ZERO


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
