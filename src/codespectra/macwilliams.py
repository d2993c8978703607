"""Orthogonal complements and exact MacWilliams transforms.

The transform computes the dual's generating function by the character-matrix
substitution.  All cyclotomic intermediates must cancel back to rationals;
a non-rational residue is a bug and raises, it is never rounded away.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from .genfun import (
    genfun_from_joint,
    genfun_from_uspectrum,
    genfun_of_set,
    substitute_linear,
)
from .gf import mw_matrix
from .linalg import null_space, rref
from .spectra import (
    ENUM_LIMIT,
    LinearCode,
    code_joint_spectrum,
    codewords,
    u_set_spectrum,
)


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
        n = len(rows[0])
    basis, _ = rref(field, rows)
    return Subspace(field, n, basis)


def random_subspace(field, n, seed):
    rng = random.Random(seed)
    k = rng.randrange(0, n + 1)
    rows = [tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(k)]
    return subspace_from_rows(field, rows, n)


def enumerate_subspace(A, limit=ENUM_LIMIT):
    if A.dim == 0:
        return [(0,) * A.n]
    return [vec for _, vec in codewords(LinearCode(A.field, A.basis), limit)]


def orthogonal(A):
    """All x with x . a = 0 for every a in A, under the standard dot product."""
    if A.dim == 0:
        full = tuple(
            tuple(1 if j == i else 0 for j in range(A.n)) for i in range(A.n)
        )
        return Subspace(A.field, A.n, full)
    basis = null_space(A.field, A.basis, A.n)
    return subspace_from_rows(A.field, basis, A.n) if basis else Subspace(A.field, A.n, ())


def mw_transform(A, partition=None, limit=ENUM_LIMIT):
    """Generating function of the dual of A via character substitution.

    With a coordinate partition the per-block variable vectors are each
    substituted by u_block M.  Equals the directly enumerated dual genfun.
    """
    field = A.field
    M = mw_matrix(field)
    members = enumerate_subspace(A, limit)
    dual_size = field.q ** (A.n - A.dim)
    if partition is None:
        g = genfun_of_set(members, field)
        g = substitute_linear(g, "u", M)
    else:
        g = genfun_from_uspectrum(u_set_spectrum(members, field, partition))
        for bi in range(len(partition)):
            g = substitute_linear(g, ("u", bi), M)
    return g.scale(Fraction(1, dual_size)).as_rational()


def mw_joint_transpose(field, A, limit=ENUM_LIMIT):
    """Joint generating function of -g, g(y) = y A^T, from that of f(x) = x A.

    Double character substitution on both variable blocks, scaled by 1/q^m.
    In the result the v block carries the input of -g and the u block its
    output.
    """
    m = len(A[0])
    f = LinearCode(field, tuple(tuple(r) for r in A))
    g = genfun_from_joint(code_joint_spectrum(f, limit))
    M = mw_matrix(field)
    g = substitute_linear(g, "u", M)
    g = substitute_linear(g, "v", M)
    return g.scale(Fraction(1, field.q**m)).as_rational()


def neg_transpose_code(field, A):
    """The map y -> -(y A^T) as an explicit LinearCode."""
    n, m = len(A), len(A[0])
    gen = tuple(tuple(field.neg(A[i][j]) for i in range(n)) for j in range(m))
    return LinearCode(field, gen)


def joint_transpose_reference(field, A, limit=ENUM_LIMIT):
    """Directly enumerated joint genfun of -g, variables matching the transform."""
    h = neg_transpose_code(field, A)
    return genfun_from_joint(code_joint_spectrum(h, limit), block_x="v", block_y="u")
