"""Small dense matrix routines over a FieldSpec.

Matrices are tuples of row tuples of element indices.  Everything here is
exact field arithmetic; nothing is optimized beyond what Gaussian elimination
needs at desk scale.
"""


def matvec(field, x, A):
    """Row vector times matrix: y_j = sum_i x_i A[i][j]."""
    m = len(A[0]) if A else 0
    y = [0] * m
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        row = A[i]
        for j in range(m):
            y[j] = field.add(y[j], field.mul(xi, row[j]))
    return tuple(y)


def matmul(field, A, B):
    return tuple(matvec(field, row, B) for row in A)


def transpose(A):
    return tuple(zip(*A)) if A else ()


def rref(field, rows):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, v) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def rank(field, rows):
    basis, _ = rref(field, rows)
    return len(basis)


def inverse(field, A):
    n = len(A)
    aug = [tuple(A[i]) + tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    reduced, pivots = rref(field, aug)
    if tuple(pivots) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in reduced)


def null_space(field, rows, ncols):
    """Basis of {x : rows . x = 0} (x as a column; rows are the constraints)."""
    basis, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(basis[r][fc])
        out.append(tuple(vec))
    return tuple(out)
