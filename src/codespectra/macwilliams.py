"""Orthogonal complements and exact MacWilliams transforms.

The transforms count a code's members by type as integers and apply the
MacWilliams identity for complete weight enumerators: every variable u_a
becomes the character sum sum_x zeta^{Tr(x a)} u_x.  Character sums are kept
as integer coefficient vectors on zeta^0..zeta^{p-1}, and each output
coefficient is checked rational and divided once by a power of q.  A
non-rational residue is a bug and raises, it is never rounded away.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch
from .genfun import GenPoly, genfun_from_joint
from .linalg import null_space, rref
from .spectra import LinearCode, _check_size, _graph, _span_types, _span_walk, code_joint_spectrum, partition_make


@dataclass(frozen=True)
class Subspace:
    """Subspace of GF(q)^n held as a reduced-echelon generator matrix."""

    field: object
    n: int
    basis: tuple

    @property
    def dim(self):
        return len(self.basis)

    @property
    def size(self):
        return self.field.q**self.dim


def subspace_from_rows(field, rows, n=None):
    rows = [tuple(r) for r in rows]
    if n is None:
        if not rows:
            raise DimensionMismatch("no rows and no n: the length is unknown")
        n = len(rows[0])
    basis, _ = rref(field, rows)
    return Subspace(field, n, basis)


def random_subspace(field, n, seed):
    rng = random.Random(seed)
    k = rng.randrange(0, n + 1)
    rows = [tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(k)]
    return subspace_from_rows(field, rows, n)


def enumerate_subspace(A):
    """Members sum_i x_i basis_i of A, in all_vectors order of x."""
    _check_size("subspace members", A.size)
    return _span_walk(A.field, (0,) * A.n, A.basis)


def orthogonal(A):
    """All x with x . a = 0 for every a in A, under the standard dot product."""
    return subspace_from_rows(A.field, null_space(A.field, A.basis, A.n), A.n)


def _mw_kernel(field, counts, divisor):
    """MacWilliams substitution of integer type counts, one block at a time.

    counts maps concatenated per-block type counts (q entries per block) to
    integer multiplicities.  In every block each u_a becomes the linear form
    sum_x zeta^{Tr(x a)} u_x.  Values in Z[zeta_p] are p integer coefficients
    on zeta^0..zeta^{p-1}.  At the end each must be rational: since
    1 + zeta + ... + zeta^{p-1} = 0, that holds exactly when zeta^1..zeta^{p-1}
    carry equal coefficients c, and the value is c_0 - c (ValueError
    otherwise).  It is divided once by divisor.  Returns
    {concatenated output counts: Fraction}.
    """
    p, q = field.p, field.q
    shifts = [[field.trace(field.mul(x, a)) for x in range(q)] for a in range(q)]
    memo = {}

    def expand(e):
        # prod_a (sum_x zeta^{Tr(x a)} u_x)^{e_a}, one linear form at a time
        if e not in memo:
            poly = {(0,) * q: [1] + [0] * (p - 1)}
            for a, k in enumerate(e):
                for _ in range(k):
                    out = {}
                    for y, vec in poly.items():
                        for x, s in enumerate(shifts[a]):
                            acc = out.setdefault(y[:x] + (y[x] + 1,) + y[x + 1 :], [0] * p)
                            for i, c in enumerate(vec):
                                acc[(i + s) % p] += c
                    poly = out
            memo[e] = poly
        return memo[e]

    # keys: (transformed output blocks, blocks still to transform)
    state = {((), key): [mult] + [0] * (p - 1) for key, mult in counts.items()}
    for _ in range(len(next(iter(counts))) // q):
        nxt = {}
        for (done, rest), vec in state.items():
            for y, w in expand(rest[:q]).items():
                acc = nxt.setdefault((done + y, rest[q:]), [0] * p)
                for i, a in enumerate(vec):
                    if a:
                        for j, b in enumerate(w):
                            acc[(i + j) % p] += a * b
        state = nxt
    out = {}
    for (y, _), c in state.items():
        if c[1:].count(c[-1]) != p - 1:
            raise ValueError(f"not a rational cyclotomic value: {c}")
        out[y] = Fraction(c[0] - c[-1], divisor)
    return out


def mw_transform(A, partition=None):
    """Generating function of the dual of A by the MacWilliams identity.

    Counts the members of A by type (per block of a coordinate partition, if
    given), substitutes u_a -> sum_x zeta^{Tr(x a)} u_x in every block with
    integer cyclotomic coefficients, and divides once by q^n.  Equals the
    directly enumerated dual genfun.
    """
    field, q = A.field, A.field.q
    if partition is None:
        blocks = [range(A.n)]
        vars = tuple(("u", a) for a in range(q))
    else:
        blocks = partition_make(partition, A.n)
        vars = tuple((("u", b), a) for b in range(len(blocks)) for a in range(q))
    types = _span_types(field, A.basis, None, blocks)
    counts = {sum((P.counts for P in key), ()): c for key, c in types}
    return GenPoly(vars, _mw_kernel(field, counts, q**A.n))


def mw_joint_transpose(field, A):
    """Joint generating function of -g, g(y) = y A^T, from that of f(x) = x A.

    The MacWilliams substitution on both variable blocks of the joint genfun
    of f, divided once by q^(n+m).  In the result the v block carries the
    input of -g and the u block its output.
    """
    q = field.q
    f = LinearCode(field, tuple(tuple(r) for r in A))
    counts = {P.counts + Q.counts: c for (P, Q), c in _span_types(field, *_graph(f))}
    vars = tuple(("u", a) for a in range(q)) + tuple(("v", a) for a in range(q))
    return GenPoly(vars, _mw_kernel(field, counts, q ** (f.n + f.m)))


def neg_transpose_code(field, A):
    """The map y -> -(y A^T) as an explicit LinearCode."""
    n, m = len(A), len(A[0])
    gen = tuple(tuple(field.neg(A[i][j]) for i in range(n)) for j in range(m))
    return LinearCode(field, gen)


def joint_transpose_reference(field, A):
    """Directly enumerated joint genfun of -g, variables matching the transform."""
    h = neg_transpose_code(field, A)
    return genfun_from_joint(code_joint_spectrum(h), block_x="v", block_y="u")
