"""Types, spectra, alpha/rho, conditionals and randomized-code transforms.

Everything probabilistic in this module is an exact Fraction.  A "spectrum"
is a plain dict mapping TypeVector to Fraction; a joint spectrum maps
(TypeVector, TypeVector) pairs.  Brute-force enumeration is the ground truth
throughout: one packed-integer walk (_type_counter) counts types over the
members of a span, the graph [I | A] for joint spectra and a kernel or image
basis for those spectra.  An ensemble average walks its whole support at
once: the graphs of all members share their inputs x, so one span of the
stacked rows [I | A_1 | ... | A_M] counts every (member, x) pair.

TypeVector is a NamedTuple, so spectrum keys hash and compare in C.  The
walk's packed keys are decoded through one _Decoder per (block base, q),
kept for the life of the process and holding only the types decoded.  The
explicit-set layer (set_spectrum, u_set_spectrum, and _span_walk behind
enumerate_subspace and the span ensembles) runs in C-level loops of its own
and shares no code with the packed walk, so it stays an independent
reference for it.

Every exhaustive enumeration of the package is sized by one guard,
_check_size: past ENUM_LIMIT items, or PERM_LIMIT permuted coordinates, it
raises TooLarge(what, needed, limit) before expanding anything.
"""

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptySequence,
    EmptySet,
    NotStochastic,
    TooLarge,
    ZeroMarginal,
)
from .linalg import matvec, null_space, rank, rref, transpose

ENUM_LIMIT = 1 << 20
PERM_LIMIT = 8


def _check_size(what, needed, perm=False):
    """Raise TooLarge(what, needed, limit) when needed exceeds the limit:
    PERM_LIMIT for a permuted length (perm), else ENUM_LIMIT.  Both are read
    at call time."""
    limit = PERM_LIMIT if perm else ENUM_LIMIT
    if needed > limit:
        raise TooLarge(what, needed, limit)


class TypeVector(NamedTuple):
    """Empirical distribution of a sequence, stored as symbol counts.

    counts is indexed by the field's element order (0..q-1), so two sequences
    have the same type iff their TypeVectors compare equal.  A TypeVector is
    the tuple (counts,): it hashes and compares in C, equals that plain
    1-tuple and orders like it.
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
    """Type of seq over field; DomainError if a symbol lies outside 0..q-1."""
    seq = tuple(seq)
    if not seq:
        raise EmptySequence("cannot take the type of an empty sequence")
    if min(seq) < 0 or max(seq) >= field.q:
        raise DomainError(f"{seq} has a symbol outside 0..{field.q - 1}")
    counts = [0] * field.q
    for a in seq:
        counts[a] += 1
    return TypeVector(tuple(counts))


def enumerate_types(n, field):
    if n < 1:
        raise ValueError("n must be >= 1")
    q = field.q
    _check_size("types", math.comb(n + q - 1, q - 1))
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
    """Spectrum of the explicit set A: vectors are counted by their sorted
    symbols, and each distinct one is typed once, in first-seen order."""
    A = list(A)
    if not A:
        raise EmptySet("spectrum of an empty set")
    counts = Counter(map(tuple, map(sorted, A)))
    masses = {}
    return {
        type_of(s, field): masses.get(c) or masses.setdefault(c, Fraction(c, len(A)))
        for s, c in counts.items()
    }


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

    Keys are tuples of TypeVectors, one per block in partition order.  Each
    vector is keyed by its sorted symbols per block, read off the transposed
    set, and each distinct key is typed once.
    """
    A = list(A)
    if not A:
        raise EmptySet("spectrum of an empty set")
    partition = partition_make(partition, len(A[0]))
    columns = list(zip(*A))
    keys = [map(tuple, map(sorted, zip(*map(columns.__getitem__, block)))) for block in partition]
    counts = Counter(zip(*keys)) if keys else {(): len(A)}
    typed, masses = functools.cache(lambda s: type_of(s, field)), {}
    return {
        tuple(map(typed, key)): masses.get(c) or masses.setdefault(c, Fraction(c, len(A)))
        for key, c in counts.items()
    }


# ---------------------------------------------------------------------------
# linear codes and ensembles


@dataclass(frozen=True)
class LinearCode:
    """The map x -> xA (+ offset when affine), A an n x m generator matrix."""

    field: object
    generator: tuple
    offset: tuple = None

    def __post_init__(self):
        lengths = set(map(len, self.generator))
        if len(lengths) != 1:
            raise DimensionMismatch(f"generator rows have lengths {sorted(lengths)}")
        if self.offset is not None and len(self.offset) != self.m:
            raise DimensionMismatch(f"offset has length {len(self.offset)}, the code m = {self.m}")

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
    """Random linear code given by its explicit (code, probability) support;
    span, set only by _span_ensemble, holds B_1..B_K such that the support is
    support[0] + span(B), uniform, in all_vectors coefficient order."""

    support: tuple
    description: str = ""
    span: tuple = dataclass_field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        total = sum(p for _, p in self.support)
        if total != 1:
            raise NotStochastic(f"support probabilities sum to {total}")
        first = self.support[0][0]
        for code, _ in self.support:
            if (code.n, code.m) != (first.n, first.m) or code.field != first.field:
                raise DimensionMismatch(
                    f"members over {first.field} {first.n}x{first.m}"
                    f" and {code.field} {code.n}x{code.m}"
                )

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


def all_matrices_ensemble(field, n, m):
    if n < 1 or m < 1:
        raise DomainError(f"need n, m >= 1, got {n}x{m}")
    units = [tuple(tuple(int(i * m + j == u) for j in range(m)) for i in range(n)) for u in range(n * m)]
    return _span_ensemble(field, ((0,) * m,) * n, units, f"all {n}x{m} matrices")


class _Shifts(dict):
    """v -> (v + c a for c in field.elements) for one coefficient a, each
    entry built on its first lookup."""

    def __init__(self, field, a):
        self.add, self.multiples = field.add, [field.mul(c, a) for c in field.elements]

    def __missing__(self, v):
        shifted = self[v] = tuple(map(self.add, itertools.repeat(v), self.multiples))
        return shifted


def _span_walk(field, start, rows):
    """start + sum_i x_i rows_i for every x, in all_vectors order of x.  Each
    coordinate's column grows one row at a time, each entry v becoming
    v + c row_i[j] for every c through the call's _Shifts of row_i[j], which
    hold no more entries than the columns built; the columns are then zipped
    into the members."""
    if not start:
        return [start] * field.q ** len(rows)
    shifts = {a: _Shifts(field, a) for a in set(itertools.chain.from_iterable(rows))}
    columns = []
    for j, s in enumerate(start):
        column = [s]
        for row in rows:
            column = list(itertools.chain.from_iterable(map(shifts[row[j]].__getitem__, column)))
        columns.append(column)
    return list(zip(*columns))


def _span_ensemble(field, offset, span, description):
    """Uniform on offset + span(B) (n x m matrices B), in all_vectors order of the
    coefficients: the one constructor that sets CodeEnsemble.span."""
    _check_size("span members", field.q ** len(span))
    flat = lambda M: tuple(itertools.chain.from_iterable(M))
    m = len(offset[0])
    members = _span_walk(field, flat(offset), [flat(B) for B in span])
    p = Fraction(1, len(members))
    support = tuple((LinearCode(field, tuple(v[i : i + m] for i in range(0, len(v), m))), p) for v in members)
    E = CodeEnsemble(support, description)
    object.__setattr__(E, "span", tuple(span))
    return E


# ---------------------------------------------------------------------------
# spectra of codes


TABLE_BITS = 8
LOW_MEMBERS = 1 << 11
GROUP_BITS = 1 << 8


def _type_counter(field, blocks):
    """count(members, shared=0): an iterator of one Counter of packed
    type keys per member (rows, offset), in order, over the member's span
    sum_i x_i rows_i + offset, x in GF(q)^k, in all_vectors order of x.  The
    one exhaustive walk; its tables are built once per counter.

    Member y has key sum_j B^(b(j) q + y_j), b(j) the block of coordinate j
    and B the longest block plus one (_types decodes it).  A vector is one int
    with each base-p digit in a w-bit field: w = 1 for p = 2, adding by XOR;
    else w = (2p-2).bit_length(), adding by + and a SWAR fold mod p, both
    list-wise.  Rows span members as c row = sum_i c_i (X^i row), c_i the
    base-p digits of c and X^i row from field.mul for i > 0.  The last rows
    span a low half of at most LOW_MEMBERS members, added to each prefix in
    chunks of whole coordinates (at most TABLE_BITS bits) read through tables
    that fold mod p and sum key terms; a wider coordinate is read through its
    block's q-entry weights.

    Members share k and their first `shared` coordinates (the inputs x of a
    graph [I_n | A]), so they are walked stacked: one span of the rows
    [head | slot_1 | ... | slot_M], each slot a member's coordinates past the
    head.  The head's keys are read once per prefix and each member adds the
    reads of its own slot.  The head is the shared coordinates, their whole
    chunks or nothing, whichever reads the fewest chunks; a lone member has
    none, so its chunks are the plain walk's.  Members are stacked in groups
    whose vectors hold at most GROUP_BITS bits (or one member), so memory and
    the cost of the shifts stay linear in M.
    """
    q, p, r = field.q, field.p, field.r
    if not all(blocks):
        raise EmptySequence("cannot take the type of an empty sequence")
    block_of = {j: b for b, block in enumerate(blocks) for j in block}
    n, w = len(block_of), 1 if p == 2 else (2 * p - 2).bit_length()
    width, digit = r * w, (1 << w) - 1
    cells = [sum(d << (i * w) for i, d in enumerate(ds)) for ds in field._digits]

    def pack(vec):
        return sum(map(operator.lshift, map(cells.__getitem__, vec), itertools.count(0, width)))

    def folder(bits):
        """List-wise fold mod p of every digit field of sums of two vectors
        below 2^bits: adding 2^w - p to the even, then the odd, fields carries
        out of a field exactly when it is >= p, into an empty neighbour."""
        if p == 2:
            return lambda sums: sums
        even = sum(1 << i for i in range(0, bits, 2 * w))
        (m0, k0, o0), (m1, k1, o1) = [(o * digit, o * ((1 << w) - p), o) for o in (even, even << w)]
        return lambda sums: [
            s - p * ((((s & m0) + k0) >> w & o0) + (((s & m1) + k1) >> w & o1)) for s in sums
        ]

    def span(rows, start, fold):
        members = [start]
        for row in rows:
            for i in reversed(range(r)):
                v = pack([field.mul(p**i, a) for a in row] if i else row)
                if p == 2:
                    members = [u ^ m for u in members for m in (0, v)]
                    continue
                multiples = [0, v]
                while len(multiples) < p:
                    multiples += fold([multiples[-1] + v])
                members = fold([u + m for u in members for m in multiples])
        return members

    def element(x):
        return sum(((x >> (i * w)) & digit) % p * p**i for i in range(r))

    base = max(map(len, blocks)) + 1
    weights = [[base ** (b * q + y) for y in range(q)] for b in range(len(blocks))]
    elements = [element(x) for x in range(1 << width)] if width <= TABLE_BITS else None
    low_max = next(t for t in itertools.count() if q ** (t + 1) > LOW_MEMBERS)
    per, readers = max(1, TABLE_BITS // width), {}
    combine = operator.xor if p == 2 else operator.add

    def reader(sig):
        if sig not in readers and width > TABLE_BITS:
            readers[sig] = functools.cache(lambda x, wb=weights[sig[0]]: wb[element(x)])
        elif sig not in readers:
            table = [0]
            for b in reversed(sig):
                table = [hi + weights[b][e] for hi in table for e in elements]
            readers[sig] = table.__getitem__
        return readers[sig]

    def chunks(lo, hi):
        """(shift, mask, read) per chunk of coordinates lo..hi-1 packed from bit 0."""
        out = []
        for start in range(lo, hi, per):
            sig = tuple(block_of[j] for j in range(start, min(start + per, hi)))
            out.append(((start - lo) * width, (1 << (len(sig) * width)) - 1, reader(sig)))
        return out

    def size(head):
        """Members per group: a group's vectors hold at most GROUP_BITS bits."""
        return max(1, (GROUP_BITS // width - head) // (n - head))

    def cost(head, total):
        """Chunk reads per x: the head's once per group, each slot's once per member."""
        return -(-total // size(head)) * -(-head // per) + total * -(-(n - head) // per)

    def stack(group, head):
        """Rows and offset of the group's members side by side: the first
        member's head coordinates, then each member's coordinates past it."""
        if len(group) == 1:
            return group[0]

        def joined(vectors):
            return tuple(itertools.chain(vectors[0][:head], *(v[head:] for v in vectors)))

        rows = [joined(parts) for parts in zip(*(rs for rs, _ in group))]
        if all(b is None for _, b in group):
            return rows, None
        return rows, joined([(0,) * n if b is None else b for _, b in group])

    def columns(chunks, at, suffixes):
        """The chunks moved to bit at, each with its column of suffix values."""
        shifted = [(at + s, mask, read) for s, mask, read in chunks]
        return [(s, mask, read, [(v >> s) & mask for v in suffixes]) for s, mask, read in shifted]

    def reads(x, chunks, keys):
        for s, mask, read, column in chunks:
            at = (x >> s) & mask
            part = map(read, map(combine, itertools.repeat(at), column) if at else column)
            keys = part if keys is None else map(operator.add, keys, part)
        return keys

    def count(members, shared=0):
        k = len(members[0][0])
        _check_size("span members q^k", q**k)
        total, low = len(members), min(k, low_max)
        head = 0
        if total > 1:
            head = min((0, shared - shared % per, shared), key=lambda h: cost(h, total))
        head_chunks, slot_chunks = chunks(0, head), chunks(head, n)
        for g in range(0, total, size(head)):
            group = members[g : g + size(head)]
            rows, offset = stack(group, head)
            fold = folder((head + len(group) * (n - head)) * width)
            prefixes = span(rows[: k - low], 0 if offset is None else pack(offset), fold)
            suffixes = span(rows[k - low :], 0, fold)
            heads = columns(head_chunks, 0, suffixes)
            slots = [
                columns(slot_chunks, (head + j * (n - head)) * width, suffixes)
                for j in range(len(group))
            ]
            counts = [Counter() for _ in group]
            for x in prefixes:
                keys = list(reads(x, heads, None)) if heads else None
                for counter, chunks_j in zip(counts, slots):
                    counter.update(reads(x, chunks_j, keys))
            yield from counts

    return count


class _Decoder(dict):
    """part -> TypeVector for the per-block parts sum_y c_y base^y of one
    (base, q) shape, each built on its first lookup."""

    def __init__(self, base, q):
        self.base, self.powers = base, [base**a for a in range(q)]

    def __missing__(self, part):
        P = self[part] = TypeVector(tuple([part // b % self.base for b in self.powers]))
        return P


@functools.cache
def _decoder(base, q):
    """The one _Decoder per (base, q), kept across calls: it holds only the types decoded."""
    return _Decoder(base, q)


def _types(counts, q, blocks):
    """(per-block TypeVectors, count) per nonzero key of a _type_counter result."""
    base = max(map(len, blocks)) + 1
    decode, radix = _decoder(base, q).__getitem__, base**q
    keys = [key for key, c in counts.items() if c]
    # block b's part is key // radix^b % radix; the last block needs no %
    parts = [map((radix**b).__rfloordiv__, keys) if b else keys for b in range(len(blocks))]
    parts = [map(radix.__rmod__, part) for part in parts[:-1]] + parts[-1:]
    return zip(zip(*[map(decode, part) for part in parts]), map(counts.__getitem__, keys))


def _typed(types, total):
    """Spectrum from _types over total, keyed by TypeVector or per-block tuples of them."""
    masses = {}
    return {
        key if len(key) > 1 else key[0]: masses.get(c) or masses.setdefault(c, Fraction(c, total))
        for key, c in types
    }


def _graph(f):
    """Rows [I_n | A], offset (0 | b) and blocks x|y of the graph {(x, f(x))}."""
    n = f.n
    rows = [(0,) * i + (1,) + (0,) * (n - 1 - i) + tuple(a) for i, a in enumerate(f.generator)]
    offset = None if f.offset is None else (0,) * n + tuple(f.offset)
    return rows, offset, (range(n), range(n, n + f.m))


def _span_types(field, rows, offset, blocks):
    return _types(next(_type_counter(field, blocks)([(rows, offset)])), field.q, blocks)


def code_joint_spectrum(f):
    """Joint spectrum of the graph {(x, f(x))}; ENUM_LIMIT bounds q^n."""
    return _typed(_span_types(f.field, *_graph(f)), f.field.q**f.n)


def kernel_spectrum(f):
    """Spectrum of {x : xA = 0} over a left null space basis; ENUM_LIMIT bounds q^(n - rank)."""
    if f.is_affine():
        raise ValueError("kernel of an affine map is not a subgroup")
    basis = null_space(f.field, transpose(f.generator), f.n)
    return _typed(_span_types(f.field, basis, None, (range(f.n),)), f.field.q ** len(basis))


def image_spectrum(f):
    """Spectrum of {xA (+ offset)} over the reduced row basis of A; ENUM_LIMIT bounds q^rank."""
    basis = rref(f.field, f.generator)[0]
    types = _span_types(f.field, basis, f.offset, (range(f.m),))
    return _typed(types, f.field.q ** len(basis))


def _permutation_class(code):
    """A normal form of code under row and column permutations: its rows
    sorted, then its columns sorted, each column led by its offset entry (0
    when linear).  Codes with equal forms have equal joint spectra, since
    permuting the rows permutes the inputs x and permuting the columns, with
    the offset, permutes the outputs; one pass may miss some equivalences."""
    rows = sorted(code.generator)
    return tuple(sorted(zip(code.offset or itertools.repeat(0), *rows)))


def ensemble_avg_joint_spectrum(E):
    """Expected joint spectrum over the explicit support.

    Members are merged by _permutation_class: each class is walked once, as
    its first member in support order, with the class's summed weight.
    Member weights are the integers p·D, D the lcm of the support's
    denominators.  One stacked walk counts the walked members' graphs
    [I_n | A] (the inputs x are shared); their key counts are weighted,
    summed, then decoded and divided once by D·q^n.  Later members of a class
    add no new keys and zero-weight classes still place theirs, so the key
    order is that of the whole support.  Keys whose expected mass is zero do
    not appear.
    """
    scale, weights = _integer_weights(E.support)
    codes = [code for code, _ in E.support]
    if len(codes) > 1:
        classes = {}
        for code, w in zip(codes, weights):
            key = _permutation_class(code)
            first, total = classes.get(key, (code, 0))
            classes[key] = first, total + w
        codes, weights = zip(*classes.values())
    blocks, acc = _graph(codes[0])[2], {}
    members = [_graph(code)[:2] for code in codes]
    for counts, w in zip(_type_counter(E.field, blocks)(members, E.n), weights):
        for key, c in counts.items():
            acc[key] = acc.get(key, 0) + w * c
    return _typed(_types(acc, E.field.q, blocks), scale * E.field.q**E.n)


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
    """Marginal on P (axis 0) or Q (axis 1), as integers over the lcm of J's denominators."""
    scale = math.lcm(*(mass.denominator for mass in J.values()))
    sums = {}
    for key, mass in J.items():
        sums[key[axis]] = sums.get(key[axis], 0) + mass.numerator * (scale // mass.denominator)
    return {key: Fraction(s, scale) for key, s in sums.items()}


def _given_axis(direction):
    """0 for "forward" (condition on the input P), 1 for "backward" (on Q)."""
    if direction not in ("forward", "backward"):
        raise DomainError(f"direction must be 'forward' or 'backward', not {direction!r}")
    return 0 if direction == "forward" else 1


def conditional_spectrum(J, direction="forward"):
    """Conditional table of a joint spectrum.

    direction "forward" gives S(Q|P), "backward" gives S(P|Q).  Keys with
    zero marginal do not appear.
    """
    axis = _given_axis(direction)
    marg = joint_marginal(J, axis)
    out = {}
    for (P, Q), mass in J.items():
        given, other = (P, Q) if axis == 0 else (Q, P)
        if mass == 0:
            continue
        out.setdefault(given, {})[other] = mass / marg[given]
    return out


def conditional_at(J, given, direction="forward"):
    """Row `given` of conditional_spectrum(J, direction), from one pass over J
    that sums only that row's marginal."""
    axis = _given_axis(direction)
    marg, row = 0, {}
    for key, mass in J.items():
        if key[axis] == given:
            marg += mass
            if mass != 0:
                row[key[1 - axis]] = mass
    if not row:
        raise ZeroMarginal(f"conditioning type {given} has zero marginal")
    return {other: mass / marg for other, mass in row.items()}


def compose_avg_conditional(F, G):
    """Average conditional spectrum of G after a uniform interleaver after F.

    Chapman-Kolmogorov style: sum over the intermediate type P of
    E[S(F)(P|O)] * E[S(G)(Q|P)].
    """
    if F.m != G.n:
        raise DimensionMismatch(f"F outputs length {F.m}, G expects {G.n}")
    cond_f = conditional_spectrum(ensemble_avg_joint_spectrum(F))
    cond_g = conditional_spectrum(ensemble_avg_joint_spectrum(G))
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
    Equal variants merge in first-seen order; their weights add as the
    integers p·D (see _integer_weights) and are divided once.
    """
    if mode not in ("in", "out", "both", "affine"):
        raise ValueError(f"unknown mode {mode!r}")
    field, n, m = E.field, E.n, E.m

    def perms(k, used):
        if not used:
            return [None]
        _check_size("permuted coordinates", k, perm=True)
        return list(itertools.permutations(range(k)))

    in_perms = perms(n, mode != "out")
    out_inverses = [
        p if p is None else tuple(sorted(range(m), key=p.__getitem__))
        for p in perms(m, mode != "in")
    ]
    offsets = list(all_vectors(field, m)) if mode == "affine" else [None]
    scale, weights = _integer_weights(E.support)
    merged = {}
    for (code, _), weight in zip(E.support, weights):
        A = code.generator
        for pin in in_perms:
            left = A if pin is None else tuple(tuple(A[i]) for i in pin)
            for inv in out_inverses:
                gen = left if inv is None else tuple(tuple(row[j] for j in inv) for row in left)
                for off in offsets:
                    offset = code.offset
                    if off is not None:
                        offset = tuple(map(field.add, offset or (0,) * m, off))
                    merged[gen, offset] = merged.get((gen, offset), 0) + weight
    scale *= len(in_perms) * len(out_inverses) * len(offsets)
    return CodeEnsemble(
        support=tuple(
            (LinearCode(field, gen, offset), Fraction(w, scale))
            for (gen, offset), w in merged.items()
        ),
        description=f"{E.description} randomized {mode}",
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
