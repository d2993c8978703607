"""Gabidulin maximum-rank-distance codes and SCC-goodness checks.

A codeword is an n x m matrix over GF(q), built by evaluating a linearized
polynomial (q-power analogue of Reed-Solomon evaluation) at points of
GF(q^{n'}) that are linearly independent over GF(q), then expanding each
value to a coordinate column.  The base field is restricted to prime q here;
every worked case and test uses q in {2, 3}.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionMismatch, DomainError, NotSCCGood
from .gf import field_make
from .linalg import inverse, matvec, rank, transpose
from .spectra import CodeEnsemble, LinearCode, _check_size, all_vectors, point_distribution


@dataclass(frozen=True)
class MatrixCodeword:
    entries: tuple
    rank: int


@dataclass(frozen=True)
class GabidulinSpec:
    base: object
    ext: object
    n: int
    m: int
    k: int
    points: tuple
    basis: tuple
    transposed: bool
    # element index -> coefficient vector over basis
    coords: tuple = field(repr=False, compare=False)


def gabidulin_make(q, n, m, k, points=None, basis=None):
    """Build the spec; n' = max(n, m) is the extension degree, m' = min(n, m)
    the number of evaluation points.  The m > n case is handled by building
    the transposed code and flipping every codeword."""
    base = field_make(q)
    n_prime = max(n, m)
    m_prime = min(n, m)
    if not 1 <= k <= m_prime:
        raise DomainError(f"need 1 <= k <= min(n, m), got k={k}")
    ext = field_make(q, n_prime)
    polynomial_basis = tuple(q**i for i in range(n_prime))
    basis = polynomial_basis if basis is None else tuple(basis)
    if len(basis) != n_prime:
        raise ValueError(f"need {n_prime} basis elements, got {len(basis)}")
    coord_rows = [ext._digits[b] for b in basis]
    if rank(base, coord_rows) != n_prime:
        raise ValueError("basis elements are not linearly independent over GF(q)")
    if basis == polynomial_basis:
        coords = tuple(ext._digits)
    else:
        to_basis = inverse(base, coord_rows)
        coords = tuple(matvec(base, digits, to_basis) for digits in ext._digits)
    if points is None:
        points = basis[:m_prime]
    else:
        points = tuple(points)
    if rank(base, [ext._digits[x] for x in points]) != len(points):
        raise ValueError("evaluation points are not linearly independent over GF(q)")
    if len(points) != m_prime:
        raise ValueError(f"need {m_prime} evaluation points")
    return GabidulinSpec(base, ext, n, m, k, points, basis, transposed=m > n, coords=coords)


def gabidulin_encode(spec, message):
    """Evaluate the linearized polynomial sum_i m_i x^{q^i} at each point and
    expand the values to coordinate columns."""
    ext = spec.ext
    q = spec.base.q
    if len(message) != spec.k:
        raise DimensionMismatch(f"message has {len(message)} symbols, the code has k = {spec.k}")
    cols = []
    for x in spec.points:
        acc = 0
        frob = x
        for mi in message:
            acc = ext.add(acc, ext.mul(mi, frob))
            frob = ext.pow(frob, q)
        cols.append(spec.coords[acc])
    # cols: m' columns of length n'; rows of the matrix are the basis coords
    mat = tuple(tuple(col[i] for col in cols) for i in range(len(spec.basis)))
    if spec.transposed:
        mat = tuple(zip(*mat))
    return MatrixCodeword(mat, rank(spec.base, mat))


def enumerate_code(spec):
    _check_size("codewords", spec.ext.q**spec.k)
    return [gabidulin_encode(spec, msg) for msg in all_vectors(spec.ext, spec.k)]


def sample_code(spec, seed):
    rng = random.Random(seed)
    msg = tuple(rng.randrange(spec.ext.q) for _ in range(spec.k))
    return gabidulin_encode(spec, msg)


def min_rank_distance(code, linear=True, field=None):
    """Minimum rank of a difference of distinct codewords; for a linear code
    this equals the minimum rank over nonzero codewords."""
    if linear:
        ranks = [cw.rank for cw in code if any(any(r) for r in cw.entries)]
        return min(ranks)
    best = None
    for i, a in enumerate(code):
        for b in code[i + 1 :]:
            diff = tuple(
                tuple(field.sub(x, y) for x, y in zip(ra, rb))
                for ra, rb in zip(a.entries, b.entries)
            )
            d = rank(field, diff)
            if best is None or d < best:
                best = d
    return best


def verify_mrd(spec):
    code = enumerate_code(spec)
    m_prime = min(spec.n, spec.m)
    n_prime = max(spec.n, spec.m)
    distinct = len({cw.entries for cw in code})
    dist = min_rank_distance(code)
    expected = m_prime - spec.k + 1
    return {
        "size": len(code),
        "distinct": distinct,
        "size_ok": distinct == len(code) == spec.base.q ** (spec.k * n_prime),
        "min_rank_distance": dist,
        "expected_distance": expected,
        "mrd_ok": dist == expected,
    }


def gabidulin_ensemble(spec, offset=None):
    """Uniform random code over the codeword matrices (or a coset of them)."""
    code = enumerate_code(spec)
    p = Fraction(1, len(code))
    field = spec.base
    support = []
    for cw in code:
        mat = cw.entries
        if offset is not None:
            mat = tuple(
                tuple(field.add(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(mat, offset)
            )
        support.append((LinearCode(field, mat), p))
    return CodeEnsemble(support=tuple(support), description="gabidulin ensemble")


def _first_nonuniform(E):
    """The first (x, y, probability) with x != 0 and P{F(x) = y} != q^-m, in
    all_vectors order of x then y, or None when every such F(x) is uniform."""
    field, target = E.field, Fraction(1, E.field.q**E.m)
    for x in all_vectors(field, E.n):
        if any(x):
            dist = point_distribution(E, x)
            for y in all_vectors(field, E.m):
                got = dist.get(y, Fraction(0))
                if got != target:
                    return x, y, got
    return None


def verify_scc(E):
    """Check that every nonzero input maps exactly uniformly onto GF(q)^m.

    Raises NotSCCGood with a witness (x, y, probability) on the first
    violation.  The report also records whether the column maps y -> A y^T
    are uniform over GF(q)^n for y != 0.
    """
    _check_size("inputs and outputs q^(n+m)", E.field.q ** (E.n + E.m))
    witness = _first_nonuniform(E)
    if witness is not None:
        raise NotSCCGood(witness)
    columns = CodeEnsemble(
        tuple((LinearCode(E.field, transpose(code.generator)), p) for code, p in E.support)
    )
    return {"scc_good": True, "column_uniform": _first_nonuniform(columns) is None}


def kernel_stats(E):
    """Exact distribution of |ker F| = q^(n - rank) over the support, with the mean
    identity and the characteristic-dependent lower bound on P{|ker| = 1}."""
    field, n, m = E.field, E.n, E.m
    dist = {}
    for code, p in E.support:
        size = field.q ** (n - rank(field, code.generator))
        dist[size] = dist.get(size, 0) + p
    mean = sum(Fraction(s) * p for s, p in dist.items())
    p_trivial = dist.get(1, Fraction(0))
    q = field.q
    char = field.p
    bound = (Fraction(char - 2) + Fraction(1, q**n)) / (char - 1)
    return {
        "distribution": dist,
        "mean": mean,
        "expected_mean": 1 + Fraction(q**n - 1, q**m),
        "p_trivial_kernel": p_trivial,
        "trivial_kernel_bound": bound,
    }
