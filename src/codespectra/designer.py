"""Serial concatenation, the kernel/image equivalence constructions, the
LDGM parameter design recipe, and the single-code lower bound."""

import itertools
import math
import random
from fractions import Fraction

from .errors import DimensionMismatch, DomainError
from .ldgm import kq_product, rho0_and_dq, rho0_of
from .linalg import matmul, null_space, rank, rref, transpose
from .spectra import (
    CodeEnsemble,
    LinearCode,
    TypeVector,
    _check_size,
    _graph,
    _span_types,
    alpha_table,
    single_code_ensemble,
    type_class_size,
)


def _as_ensemble(obj):
    return obj if isinstance(obj, CodeEnsemble) else single_code_ensemble(obj)


def compose(outer, inner, perm=None, uniform=False):
    """Concatenation outer, then an interleaver, then inner.

    perm is an explicit permutation of the intermediate coordinates; with
    uniform=True the result is the ensemble over all interleavers instead.
    Generator of each member is A_outer . P_sigma . A_inner, where
    P_sigma . A_inner is A_inner with its rows taken in the order sigma.
    """
    F, G = _as_ensemble(outer), _as_ensemble(inner)
    if F.m != G.n:
        raise DimensionMismatch(f"outer emits length {F.m}, inner expects {G.n}")
    field, mid = F.field, F.m
    if uniform:
        _check_size("interleaved coordinates", mid, perm=True)
        perms = list(itertools.permutations(range(mid)))
    else:
        perms = [tuple(perm) if perm is not None else tuple(range(mid))]
        if sorted(perms[0]) != list(range(mid)):
            raise DomainError(f"perm {perms[0]} is not a permutation of 0..{mid - 1}")
    scale = Fraction(1, len(perms))
    merged = {}
    for fc, fp in F.support:
        for sigma in perms:
            for gc, gp in G.support:
                right = tuple(gc.generator[i] for i in sigma)
                code = LinearCode(field, matmul(field, fc.generator, right))
                merged[code] = merged.get(code, 0) + fp * gp * scale
    if len(merged) == 1 and next(iter(merged.values())) == 1:
        return next(iter(merged))
    return CodeEnsemble(support=tuple(merged.items()), description="concatenation")


def outer_weight_window(f):
    """Range of the zero-symbol fraction P(0) over nonzero codewords of f,
    reported as the tightest window around 1/q."""
    q = f.field.q
    pairs = _span_types(f.field, *_graph(f))
    p0s = {Q.prob(0) for (P, Q), _ in pairs if not (P.is_zero_type() or Q.is_zero_type())}
    if not p0s:
        raise DomainError("code has no nonzero codewords")
    p0_min, p0_max = min(p0s), max(p0s)
    return {
        "p0_min": p0_min,
        "p0_max": p0_max,
        "gamma1": Fraction(1, q) - p0_min,
        "gamma2": p0_max - Fraction(1, q),
    }


def design_concat(q, outer_rate, p0_min, p0_max, delta, inner_rate=None):
    """Pick the (c, d) of an inner LDGM code so the concatenated code's
    goodness figure is at most delta.

    outer_rate is R(f) = n/m of the outer code.  inner_rate r0 = d/c defaults
    to 1/(2 outer_rate), i.e. an overall rate-1/2 concatenation; pass it
    explicitly for any other rate chain.  The certificate records
    rho0 / outer_rate <= delta with all inputs.
    """
    outer_rate = Fraction(outer_rate)
    if inner_rate is None:
        inner_rate = 1 / (2 * outer_rate)
    r0 = Fraction(inner_rate)
    p0_min = Fraction(p0_min).limit_denominator(10**9)
    p0_max = Fraction(p0_max).limit_denominator(10**9)
    gamma1 = Fraction(1, q) - p0_min
    gamma2 = p0_max - Fraction(1, q)
    target = delta * float(outer_rate)
    res = rho0_and_dq(q, float(r0), float(gamma1), float(gamma2), target)
    d = res["d_min"]
    # d/c must equal r0 exactly, so bump d to the next multiple of r0's numerator
    num = r0.numerator
    while d % num:
        d += 1
    c = int(d / r0)
    rho0 = rho0_of(q, float(r0), res["gamma"], d)
    bound = rho0 / float(outer_rate)
    return {
        "q": q,
        "outer_rate": str(outer_rate),
        "p0_window": [str(p0_min), str(p0_max)],
        "delta": delta,
        "gamma": res["gamma"],
        "inner_rate": str(r0),
        "d": d,
        "c": c,
        "rho0": rho0,
        "bound": bound,
        "ok": bound <= delta + 1e-12,
    }


# ---------------------------------------------------------------------------
# kernel/image preserving equivalents


def _kernel_basis(field, A):
    return rref(field, null_space(field, transpose(A), len(A)))[0]


def _row_space(field, A):
    return rref(field, A)[0]


def wilson_interval(successes, trials, z=1.96):
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _equivalence(F, side, product, invariant, exact, samples, seed):
    """How often invariant(A) survives A -> product(field, A, M), M a uniform
    side x side matrix and A the generator of a member of F.

    Exactly, a member of rank r keeps its kernel (G1) or image (G2) iff M is
    injective on an r-dimensional space; M sends its basis to r independent
    uniform vectors, linearly independent with probability
    prod_{i<r} (1 - q^(i - side)) = K(side) / K(side - r), K(k) =
    kq_product(q, k), so nothing is enumerated."""
    field = F.field
    if exact:
        prob = Fraction(0)
        for code, p in F.support:
            r = rank(field, code.generator)
            prob += p * kq_product(field.q, side) / kq_product(field.q, side - r)
        return {"probability": prob, "kq": kq_product(field.q, 64), "exact": True}
    rng = random.Random(seed)
    hits = 0
    for _ in range(samples):
        code = F.draw(rng.randrange(1 << 30))
        M = tuple(tuple(rng.randrange(field.q) for _ in range(side)) for _ in range(side))
        comp = product(field, code.generator, M)
        if invariant(field, comp) == invariant(field, code.generator):
            hits += 1
    lo, hi = wilson_interval(hits, samples)
    return {
        "probability": hits / samples,
        "interval95": (lo, hi),
        "kq": float(kq_product(field.q, 64)),
        "exact": False,
    }


def equivalence_G1(F, exact=True, samples=10**5, seed=0):
    """Left-compose F with a uniform square random code on its output side
    and report how often the kernel survives."""
    F = _as_ensemble(F)
    return _equivalence(F, F.m, matmul, _kernel_basis, exact, samples, seed)


def equivalence_G2(F, exact=True, samples=10**5, seed=0):
    """Right-compose F with a uniform square random code on its input side
    and report how often the image survives."""
    F = _as_ensemble(F)
    return _equivalence(
        F, F.n, lambda field, A, M: matmul(field, M, A), _row_space, exact, samples, seed
    )


# ---------------------------------------------------------------------------
# single-code lower bound


def single_code_lower_bound(alphabet_size, m):
    """|Y|^m over the largest multinomial coefficient: no single code's
    maximum alpha can fall below this."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if alphabet_size < 2:
        raise ValueError("alphabet_size must be >= 2")
    base, extra = divmod(m, alphabet_size)
    balanced = TypeVector((base + 1,) * extra + (base,) * (alphabet_size - extra))
    return Fraction(alphabet_size**m, type_class_size(balanced))


def check_lower_bound(code):
    """Compare a single code's max alpha over nonzero input types against
    the bound; returns the pair and whether the bound is respected."""
    E = single_code_ensemble(code)
    table = alpha_table(E)
    best = max(a for (P, _), a in table.items() if not P.is_zero_type())
    bound = single_code_lower_bound(code.field.q, code.m)
    return {"max_alpha": best, "bound": bound, "ok": best >= bound}
