"""Types, spectra, alpha/rho, conditionals and randomized-code transforms.

Everything probabilistic in this module is an exact Fraction.  A "spectrum"
is a plain dict mapping TypeVector to Fraction; a joint spectrum maps
(TypeVector, TypeVector) pairs.  Brute-force enumeration is the ground truth
throughout, with explicit size limits.
"""

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    EmptySequence,
    EmptySet,
    NotStochastic,
    SupportExplosion,
    TooLarge,
    ZeroMarginal,
)
from .linalg import matvec, rank

ENUM_LIMIT = 1 << 20
PERM_LIMIT = 8


@dataclass(frozen=True)
class TypeVector:
    """Empirical distribution of a sequence, stored as symbol counts.

    counts is indexed by the field's element order (0..q-1), so two sequences
    have the same type iff their TypeVectors compare equal.
    """

    counts: tuple

    @property
    def n(self):
        return sum(self.counts)

    @property
    def q(self):
        return len(self.counts)

    def prob(self, a):
        return Fraction(self.counts[a], self.n)

    def is_zero_type(self):
        return self.counts[0] == self.n


def zero_type(n, q):
    return TypeVector((n,) + (0,) * (q - 1))


def type_of(seq, field):
    seq = tuple(seq)
    if not seq:
        raise EmptySequence("cannot take the type of an empty sequence")
    counts = [0] * field.q
    for a in seq:
        counts[a] += 1
    return TypeVector(tuple(counts))


def enumerate_types(n, field, limit=ENUM_LIMIT):
    if n < 1:
        raise ValueError("n must be >= 1")
    q = field.q
    total = math.comb(n + q - 1, q - 1)
    if total > limit:
        raise TooLarge(f"{total} types exceeds limit {limit}")
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(TypeVector(prefix + (remaining,)))
            return
        for c in range(remaining + 1):
            rec(prefix + (c,), remaining - c, slots - 1)

    rec((), n, q)
    return out


def type_class_size(P):
    """Number of sequences with type P, the multinomial n over nP."""
    size = math.factorial(P.n)
    for c in P.counts:
        size //= math.factorial(c)
    return size


def all_vectors(field, n):
    return itertools.product(range(field.q), repeat=n)


def space_spectrum(n, field):
    denom = field.q**n
    return {P: Fraction(type_class_size(P), denom) for P in enumerate_types(n, field)}


def set_spectrum(A, field):
    A = list(A)
    if not A:
        raise EmptySet("spectrum of an empty set")
    counts = Counter(type_of(x, field) for x in A)
    return {P: Fraction(c, len(A)) for P, c in counts.items()}


def partition_make(blocks, n):
    blocks = tuple(tuple(sorted(b)) for b in blocks)
    seen = set()
    for b in blocks:
        if not b:
            raise ValueError("empty partition block")
        for i in b:
            if i in seen or not 0 <= i < n:
                raise ValueError("partition blocks must disjointly cover 0..n-1")
            seen.add(i)
    if len(seen) != n:
        raise ValueError("partition does not cover all coordinates")
    return blocks


def u_set_spectrum(A, field, partition):
    """Spectrum refined per block of a coordinate partition.

    Keys are tuples of TypeVectors, one per block in partition order.
    """
    A = list(A)
    if not A:
        raise EmptySet("spectrum of an empty set")
    partition = partition_make(partition, len(A[0]))
    counts = Counter(
        tuple(type_of([x[i] for i in block], field) for block in partition) for x in A
    )
    return {key: Fraction(c, len(A)) for key, c in counts.items()}


# ---------------------------------------------------------------------------
# linear codes and ensembles


@dataclass(frozen=True)
class LinearCode:
    """The map x -> xA (+ offset when affine), A an n x m generator matrix."""

    field: object
    generator: tuple
    offset: tuple = None

    @property
    def n(self):
        return len(self.generator)

    @property
    def m(self):
        return len(self.generator[0])

    def apply(self, x):
        y = matvec(self.field, x, self.generator)
        if self.offset is not None:
            y = tuple(self.field.add(a, b) for a, b in zip(y, self.offset))
        return y

    def is_affine(self):
        return self.offset is not None and any(self.offset)


@dataclass(frozen=True)
class CodeEnsemble:
    """Random linear code given by its explicit (code, probability) support."""

    support: tuple
    description: str = ""

    def __post_init__(self):
        total = sum(p for _, p in self.support)
        if total != 1:
            raise NotStochastic(f"support probabilities sum to {total}")

    @property
    def field(self):
        return self.support[0][0].field

    @property
    def n(self):
        return self.support[0][0].n

    @property
    def m(self):
        return self.support[0][0].m

    def draw(self, seed):
        """One member, exactly with its probability: a uniform integer below
        D is matched against the cumulative weights p·D in support order."""
        import random

        scale, weights = _integer_weights(self.support)
        u = random.Random(seed).randrange(scale)
        for (code, _), acc in zip(self.support, itertools.accumulate(weights)):
            if u < acc:
                return code


def _integer_weights(support):
    """(D, [p·D per member]), D the lcm of the support's denominators."""
    scale = math.lcm(*(p.denominator for _, p in support))
    return scale, [p.numerator * (scale // p.denominator) for _, p in support]


def single_code_ensemble(code):
    return CodeEnsemble(support=((code, Fraction(1)),), description="single code")


def all_matrices_ensemble(field, n, m, limit=ENUM_LIMIT):
    count = field.q ** (n * m)
    if count > limit:
        raise TooLarge(f"{count} matrices exceeds limit {limit}")
    p = Fraction(1, count)
    support = []
    for flat in all_vectors(field, n * m):
        gen = tuple(tuple(flat[i * m : (i + 1) * m]) for i in range(n))
        support.append((LinearCode(field, gen), p))
    return CodeEnsemble(support=tuple(support), description=f"all {n}x{m} matrices")


# ---------------------------------------------------------------------------
# spectra of codes


def codewords(f, limit=ENUM_LIMIT):
    """Yield (x, f.apply(x)) for every input x, in all_vectors order.

    This is the one exhaustive walk over GF(q)^n, and the one place its size
    is checked against limit (TooLarge is raised when iteration starts).
    Each odometer step moves input coordinate i from c to the next element
    c' = (c + 1) mod q, so the output moves by the precomputed row (c' - c) A_i,
    the difference taken in the field.  Over a prime field c' - c is 1 and the
    row is A_i itself; over GF(p^r) it depends on how many base-p digits of c
    carry.  Rows are added by XOR in characteristic 2, where addition is XOR
    of the integer codes, by integer addition mod p over other prime fields,
    and by field.add otherwise.
    """
    field, n = f.field, f.n
    q, p = field.q, field.p
    if q**n > limit:
        raise TooLarge(f"q^n = {q**n} exceeds limit {limit}")
    if field.r == 1:
        steps = [[row] * q for row in f.generator]
    else:
        deltas = [field.sub((c + 1) % q, c) for c in range(q)]
        steps = [[tuple(field.mul(d, a) for a in row) for d in deltas] for row in f.generator]
    if p == 2:

        def add(y, row):
            return tuple(map(operator.xor, y, row))

    elif field.r == 1:

        def add(y, row):
            return tuple([(a + b) % p for a, b in zip(y, row)])

    else:

        def add(y, row):
            return tuple(map(field.add, y, row))

    x = [0] * n
    y = tuple(f.offset or (0,) * f.m)
    yield tuple(x), y
    for _ in range(q**n - 1):
        i = n - 1
        while x[i] == q - 1:
            x[i] = 0
            y = add(y, steps[i][q - 1])
            i -= 1
        y = add(y, steps[i][x[i]])
        x[i] += 1
        yield tuple(x), y


def _joint_type_counts(f, in_keys, limit):
    """Counter of (input counts, output counts) integer tuples over codewords(f).

    in_keys yields the input count tuples in codewords order; they depend only
    on q and n, so an ensemble computes them once for all its members.
    """
    if not f.m:
        raise EmptySequence("cannot take the type of an empty sequence")
    syms = range(f.field.q)
    outs = (tuple(map(y.count, syms)) for _, y in codewords(f, limit))
    return Counter(zip(in_keys, outs, strict=True))


def _input_keys(field, n):
    syms = range(field.q)
    return (tuple(map(x.count, syms)) for x in all_vectors(field, n))


def _typed(counts, total):
    """Joint spectrum from integer counts over total; zero counts are dropped."""
    return {
        (TypeVector(P), TypeVector(Q)): Fraction(c, total)
        for (P, Q), c in counts.items()
        if c
    }


def code_joint_spectrum(f, limit=ENUM_LIMIT):
    """Joint spectrum of the graph {(x, f(x))}."""
    return _typed(_joint_type_counts(f, _input_keys(f.field, f.n), limit), f.field.q**f.n)


def kernel_spectrum(f, limit=ENUM_LIMIT):
    if f.is_affine():
        raise ValueError("kernel of an affine map is not a subgroup")
    return set_spectrum([x for x, y in codewords(f, limit) if not any(y)], f.field)


def image_spectrum(f, limit=ENUM_LIMIT):
    return set_spectrum({y for _, y in codewords(f, limit)}, f.field)


def ensemble_avg_joint_spectrum(E, limit=ENUM_LIMIT):
    """Expected joint spectrum over the explicit support.

    Member type counts are weighted by the integer p·D, D the lcm of the
    support's denominators, and divided once by D·q^n.  The input types are
    computed once, since every member walks codewords in the same order.
    Keys whose expected mass is zero do not appear.
    """
    field, n = E.field, E.n
    scale, weights = _integer_weights(E.support)
    acc = {}
    in_keys = None
    for (code, _), w in zip(E.support, weights):
        counts = _joint_type_counts(code, in_keys or _input_keys(field, n), limit)
        if in_keys is None and len(E.support) > 1:
            # the first walk has passed the size guard in codewords
            in_keys = list(_input_keys(field, n))
        for key, c in counts.items():
            acc[key] = acc.get(key, 0) + w * c
    return _typed(acc, scale * field.q**n)


def alpha(E, P, Q, avg=None):
    """E[S_XY(F)(P,Q)] divided by the full product-space joint spectrum."""
    if avg is None:
        avg = ensemble_avg_joint_spectrum(E)
    n, m = P.n, Q.n
    q = len(P.counts)
    denom = Fraction(type_class_size(P), q**n) * Fraction(type_class_size(Q), q**m)
    return avg.get((P, Q), Fraction(0)) / denom


def alpha_table(E):
    """All (P, Q) -> alpha values with nonzero expected mass."""
    avg = ensemble_avg_joint_spectrum(E)
    return {key: alpha(E, key[0], key[1], avg=avg) for key in avg}


def rho(E):
    """max over nonzero input types P of (1/n) ln alpha(P, Q).

    Entries with alpha = 0 are excluded from the max (they would contribute
    minus infinity); for a nonempty ensemble some alpha > 0 exists at every
    P since the conditional masses over Q sum to 1.
    """
    table = alpha_table(E)
    n = E.n
    best = None
    for (P, Q), a in table.items():
        if P.is_zero_type() or a == 0:
            continue
        val = (math.log(a.numerator) - math.log(a.denominator)) / n
        if best is None or val > best:
            best = val
    if best is None:
        raise ZeroMarginal("no nonzero alpha at any nonzero input type")
    return best


def joint_marginal(J, axis):
    out = {}
    for (P, Q), mass in J.items():
        key = P if axis == 0 else Q
        out[key] = out.get(key, 0) + mass
    return out


def conditional_spectrum(J, direction="forward"):
    """Conditional table of a joint spectrum.

    direction "forward" gives S(Q|P), "backward" gives S(P|Q).  Keys with
    zero marginal do not appear.
    """
    axis = 0 if direction == "forward" else 1
    marg = joint_marginal(J, axis)
    out = {}
    for (P, Q), mass in J.items():
        given, other = (P, Q) if axis == 0 else (Q, P)
        if mass == 0:
            continue
        out.setdefault(given, {})[other] = mass / marg[given]
    return out


def conditional_at(J, given, direction="forward"):
    table = conditional_spectrum(J, direction)
    if given not in table:
        raise ZeroMarginal(f"conditioning type {given} has zero marginal")
    return table[given]


def compose_avg_conditional(F, G, limit=ENUM_LIMIT):
    """Average conditional spectrum of G after a uniform interleaver after F.

    Chapman-Kolmogorov style: sum over the intermediate type P of
    E[S(F)(P|O)] * E[S(G)(Q|P)].
    """
    if F.m != G.n:
        raise DimensionMismatch(f"F outputs length {F.m}, G expects {G.n}")
    cond_f = conditional_spectrum(ensemble_avg_joint_spectrum(F, limit))
    cond_g = conditional_spectrum(ensemble_avg_joint_spectrum(G, limit))
    out = {}
    for O, inner in cond_f.items():
        acc = {}
        for P, w in inner.items():
            for Q, v in cond_g.get(P, {}).items():
                acc[Q] = acc.get(Q, 0) + w * v
        out[O] = acc
    return out


# ---------------------------------------------------------------------------
# randomized-code transforms


def randomize(E, mode):
    """Expand an ensemble over coordinate permutations and, for mode affine,
    uniform output offsets.

    mode "in" composes with a uniform input permutation, "out" with an output
    permutation, "both" with independent ones, "affine" additionally adds a
    uniform offset so every single point maps uniformly.  A permutation acts
    by reindexing the generator A: P·A takes the rows of A in the order perm,
    and A·P takes its columns in the order of the inverse permutation.
    """
    if mode not in ("in", "out", "both", "affine"):
        raise ValueError(f"unknown mode {mode!r}")
    field, n, m = E.field, E.n, E.m

    def perms(k, used):
        if not used:
            return [None]
        if k > PERM_LIMIT:
            raise SupportExplosion(f"permutation expansion capped at n <= {PERM_LIMIT}")
        return list(itertools.permutations(range(k)))

    in_perms = perms(n, mode != "out")
    out_inverses = [
        p if p is None else tuple(sorted(range(m), key=p.__getitem__))
        for p in perms(m, mode != "in")
    ]
    offsets = list(all_vectors(field, m)) if mode == "affine" else [None]
    scale = Fraction(1, len(in_perms) * len(out_inverses) * len(offsets))
    merged = {}
    for code, p in E.support:
        A = code.generator
        for pin in in_perms:
            left = A if pin is None else tuple(tuple(A[i]) for i in pin)
            for inv in out_inverses:
                gen = left if inv is None else tuple(tuple(row[j] for j in inv) for row in left)
                for off in offsets:
                    offset = code.offset
                    if off is not None:
                        offset = tuple(map(field.add, offset or (0,) * m, off))
                    variant = LinearCode(field, gen, offset)
                    merged[variant] = merged.get(variant, 0) + p * scale
    return CodeEnsemble(
        support=tuple(merged.items()), description=f"{E.description} randomized {mode}"
    )


def point_distribution(E, x):
    """Exact distribution of F(x) over the explicit support.

    Member weights are the integers p·D, D the lcm of the support's
    denominators; each output gets one Fraction, in first-seen order.
    """
    scale, weights = _integer_weights(E.support)
    counts = Counter()
    for (code, _), w in zip(E.support, weights):
        counts[code.apply(x)] += w
    return {y: Fraction(c, scale) for y, c in counts.items()}


def rates(obj):
    """(R_s, R_c, R) from the generator rank: R_s = rank ln q / n, etc."""
    if isinstance(obj, CodeEnsemble):
        codes = [c for c, _ in obj.support]
    else:
        codes = [obj]
    ranks = {rank(c.field, c.generator) for c in codes}
    if len(ranks) != 1:
        raise ValueError("ensemble members have differing ranks; rates undefined")
    r = ranks.pop()
    code = codes[0]
    lnq = math.log(code.field.q)
    return (r * lnq / code.n, r * lnq / code.m, Fraction(code.n, code.m))
