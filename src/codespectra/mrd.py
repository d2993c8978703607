"""Gabidulin maximum-rank-distance codes and SCC-goodness checks.

A codeword is an n x m matrix over GF(q), built by evaluating a linearized
polynomial (q-power analogue of Reed-Solomon evaluation) at points of
GF(q^{n'}) that are linearly independent over GF(q), then expanding each
value to a coordinate column.  The base field is restricted to prime q here;
every worked case and test uses q in {2, 3}.

The code is GF(q)-linear, so gabidulin_ensemble is the span of k·n' basis
codewords (E.span), and verify_scc certifies span ensembles by rank (xA is
uniform on a coset of the row space of the x·B_i); others it enumerates.
Only rows are checked: for linear maps, xA uniform for every x != 0 means
sum_A p_A ψ(Tr(x A y^T)) = 0 for all x, y != 0, which is symmetric in x and
y, so every column map y -> A y^T is uniform too.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionMismatch, DomainError, NotSCCGood
from .gf import field_make
from .linalg import inverse, matvec, rank
from .spectra import CodeEnsemble, LinearCode, _check_size, _span_ensemble, all_vectors, point_distribution


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


def _evaluate(spec, message):
    """The n x m entries of message's codeword: the linearized polynomial
    sum_i m_i x^{q^i} at each point, expanded to coordinate columns."""
    ext = spec.ext
    q = spec.base.q
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
    return tuple(zip(*mat)) if spec.transposed else mat


def gabidulin_encode(spec, message):
    """The codeword of message (_evaluate) with its rank."""
    if len(message) != spec.k:
        raise DimensionMismatch(f"message has {len(message)} symbols, the code has k = {spec.k}")
    mat = _evaluate(spec, message)
    return MatrixCodeword(mat, rank(spec.base, mat))


def enumerate_code(spec):
    """Every codeword, in all_vectors order of the message."""
    return [MatrixCodeword(c.generator, rank(spec.base, c.generator)) for c, _ in gabidulin_ensemble(spec).support]


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
    """Uniform random code over the codeword matrices (or a coset of them), walked
    as the span of the codewords of the k·n' GF(q)-basis messages: symbol j, then
    digit q^i with i descending, so that the messages come in all_vectors order."""
    k, q = spec.k, spec.base.q
    span = [
        _evaluate(spec, (0,) * j + (q**i,) + (0,) * (k - 1 - j))
        for j in range(k)
        for i in reversed(range(max(spec.n, spec.m)))
    ]
    zero = ((0,) * spec.m,) * spec.n
    return _span_ensemble(spec.base, offset or zero, span, "gabidulin ensemble")


def _first_nonuniform(E):
    """The first (x, y, probability) with x != 0 and P{F(x) = y} != q^-m, in
    all_vectors order of x then y, or None when every such F(x) is uniform;
    refused past ENUM_LIMIT point applications, (q^n - 1)·|support|."""
    field, target = E.field, Fraction(1, E.field.q**E.m)
    _check_size("point applications", (field.q**E.n - 1) * len(E.support))
    for x in all_vectors(field, E.n):
        if any(x):
            dist = point_distribution(E, x)
            for y in all_vectors(field, E.m):
                got = dist.get(y, Fraction(0))
                if got != target:
                    return x, y, got
    return None


def _first_deficient(field, span, offset):
    """_first_nonuniform's witness on offset + span(span), uniform: the first x != 0
    whose x·B have rank r < m, y = 0, q^-r if x·offset is in their row space, else 0."""
    m = len(offset[0])
    for x in all_vectors(field, len(offset)):
        if any(x):
            rows = [matvec(field, x, B) for B in span]
            r = rank(field, rows)
            if r < m:
                inside = rank(field, rows + [matvec(field, x, offset)]) == r
                return x, (0,) * m, Fraction(int(inside), field.q**r)
    return None


def verify_scc(E):
    """Check that every nonzero input maps exactly uniformly onto GF(q)^m.

    Raises NotSCCGood with a witness (x, y, probability) on the first
    violation.  The report also records whether the column maps y -> A y^T
    are uniform over GF(q)^n for y != 0.  By the x/y symmetry of the Fourier
    criterion (module docstring) that follows from the row check when every
    member is linear; when some member is affine it is the row check of the
    members' linear parts.  With E.span the check is by rank, otherwise by
    (q^n - 1)·|support| member applications per row check.
    """
    _check_size("inputs and outputs q^(n+m)", E.field.q ** (E.n + E.m))
    if E.span is None:
        witness = _first_nonuniform(E)
    else:
        witness = _first_deficient(E.field, E.span, E.support[0][0].generator)
    if witness is not None:
        raise NotSCCGood(witness)
    columns = True
    # span members carry no offset, so only an explicit support can be affine
    if E.span is None and any(c.is_affine() for c, _ in E.support):
        linear = CodeEnsemble(tuple((LinearCode(E.field, c.generator), p) for c, p in E.support))
        columns = _first_nonuniform(linear) is None
    return {"scc_good": True, "column_uniform": columns}


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
