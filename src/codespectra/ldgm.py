"""The regular LDGM ensemble (repetition, nonzero multipliers, interleaver,
checks), its exact average spectra, and the analytic bound chain used for
parameter design.

Spectra here are exact rationals; the bound functions (divergence, J,
delta_qd and friends) are 64-bit floats with minus/plus infinity as
first-class values, and 0 * (-inf) = 0 in the probability-weighted sums.
"""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, DomainError, SupportViolation
from .spectra import CodeEnsemble, LinearCode, TypeVector, _check_size, type_class_size

INF = float("inf")


@dataclass(frozen=True)
class LdgmParams:
    """Regular (c, d) LDGM ensemble over GF(q) at size parameter n.

    The code is check after multiplier after interleaver after repetition:
    input length d'n, intermediate length c d'n = c' d n, output length c'n,
    where c' = c/gcd(c,d) and d' = d/gcd(c,d).
    """

    field: object
    c: int
    d: int
    n: int

    @property
    def cp(self):
        return self.c // math.gcd(self.c, self.d)

    @property
    def dp(self):
        return self.d // math.gcd(self.c, self.d)

    @property
    def in_len(self):
        return self.dp * self.n

    @property
    def mid_len(self):
        return self.c * self.dp * self.n

    @property
    def out_len(self):
        return self.cp * self.n


def stretch_type(P, c):
    """Type of the c-fold repetition of any sequence of type P."""
    return TypeVector(tuple(x * c for x in P.counts))


# ---------------------------------------------------------------------------
# the randomized check code


def _poly_mul(a, b, top):
    """Product of integer coefficient lists, dropping degrees above top."""
    out = [0] * min(len(a) + len(b) - 1, top + 1)
    for i, x in enumerate(a[: top + 1]):
        if x:
            for j, y in enumerate(b[: top + 1 - i]):
                out[i + j] += x * y
    return out


def _poly_pow(a, k, top):
    out = [1]
    while k:
        if k & 1:
            out = _poly_mul(out, a, top)
        k >>= 1
        if k:
            a = _poly_mul(a, a, top)
    return out


def chk_avg_spectrum(q, d, n, P, Q):
    """Exact expected spectrum of the parallel randomized check code.

    Averaged over its multipliers, one check node of degree d has generating
    function (s^d v_sum + t^d v_alt) / q^(d+1), where s = sum_a u_a,
    t = u_0 - w/(q-1), w = u_1 + ... + u_{q-1} and v_alt = q v_0 - v_sum.
    The v^(nQ) coefficient of n such nodes is |T_Q| times
    (s^d + (q-1) t^d)^(nQ(0)) (s^d - t^d)^(n - nQ(0)), which depends on u_0
    and w only.  At u_0 = z, w = 1, scaled by (q-1)^(dn), it is an integer
    polynomial in z; its u^(nP) coefficient is the z^(P(0)) coefficient times
    the multinomial of P's nonzero counts.
    """
    if P.n != d * n or Q.n != n:
        raise DimensionMismatch(f"types of lengths {P.n}, {Q.n}; need {d * n}, {n}")
    m, top, nq0 = q - 1, P.counts[0], Q.counts[0]
    # s^d = (1+z)^d and t^d = (z - 1/(q-1))^d, both scaled by (q-1)^d
    sd = [math.comb(d, k) * m**d for k in range(d + 1)]
    td = [math.comb(d, k) * m**k * (-1) ** (d - k) for k in range(d + 1)]
    poly = _poly_mul(
        _poly_pow([s + m * t for s, t in zip(sd, td)], nq0, top),
        _poly_pow([s - t for s, t in zip(sd, td)], n - nq0, top),
        top,
    )
    num = poly[top] * type_class_size(TypeVector(P.counts[1:])) * type_class_size(Q)
    return Fraction(num, m ** (d * n) * q ** (n * (d + 1)))


def g2_bound(q, d, n, O, P, Q):
    """Upper bound on the expected check spectrum: the polynomial in u whose
    u^(nP) coefficient chk_avg_spectrum takes, evaluated at u = O and divided
    by O^(nP)."""
    for a in range(q):
        if P.counts[a] > 0 and O.counts[a] == 0:
            raise SupportViolation(f"O gives zero mass to symbol {a} in P's support")
    o0 = Fraction(O.counts[0], O.n)
    t = ((q * o0 - 1) / Fraction(q - 1)) ** d
    nq0 = Q.counts[0]
    o_pow = Fraction(1)
    for a in range(q):
        o_pow *= Fraction(O.counts[a], O.n) ** P.counts[a]
    return (
        Fraction(type_class_size(Q), q ** (n * (d + 1)))
        / o_pow
        * (1 + (q - 1) * t) ** nq0
        * (1 - t) ** (n - nq0)
    )


# ---------------------------------------------------------------------------
# analytic bound chain


def divergence(x, y):
    """Binary divergence D(x || y) in nats, extended-real valued."""
    if not (0 <= x <= 1 and 0 <= y <= 1):
        raise DomainError("divergence arguments must lie in [0, 1]")
    total = 0.0
    for p, r in ((x, y), (1 - x, 1 - y)):
        if p == 0:
            continue
        if r == 0:
            return INF
        total += p * math.log(p / r)
    return total


def entropy(P):
    """Shannon entropy in nats of the distribution induced by a type."""
    n = P.n
    return -sum((c / n) * math.log(c / n) for c in P.counts if c)


def Delta(P):
    """H(P) minus the normalized log multinomial; in [0, q ln(n+1)/n]."""
    return entropy(P) - math.log(type_class_size(P)) / P.n


def _wlog(w, arg):
    """One term w ln(arg) of J: an arg just below 0 (rounding) counts as 0,
    whose term is -inf whatever w; a clearly negative arg is an error."""
    if arg < 0:
        if arg > -1e-15:
            arg = 0.0
        else:
            raise DomainError(f"negative log argument {arg}")
    return -INF if arg == 0 else w * math.log(arg)


def J(q, d, x, y):
    if not (0 <= x <= 1 and 0 <= y <= 1):
        raise DomainError("J arguments must lie in [0, 1]")
    t = ((q * x - 1) / (q - 1)) ** d
    total = 0.0
    for w, arg in ((y, 1 + (q - 1) * t), (1 - y, 1 - t)):
        if w != 0:
            total += _wlog(w, arg)
    return total


def lemma2_bound(q, d, x, y):
    """The closed-form cap ln[1 + (qy-1)((qx-1)/(q-1))^d]."""
    arg = 1 + (q * y - 1) * ((q * x - 1) / (q - 1)) ** d
    if arg < 0:
        raise DomainError(f"negative log argument {arg}")
    return -INF if arg == 0 else math.log(arg)


def _block_floor(q, d, x, y, u, v):
    """Lower bound on d D(x||xh) + J(q,d,xh,y) over 0 < u <= xh <= v < 1,
    less a margin for float error; -inf where no bound is certain.

    Each term is monotone or convex on [u, v]: D(x||xh) is at least 0, or
    its value at the end nearer x when x lies outside [u, v]; t = s^d with
    s = (q xh - 1)/(q - 1) lies between its end values, or down to 0 when d
    is even and s changes sign; y ln(1 + (q-1)t) is least at the least t and
    (1-y) ln(1 - t) at the greatest.  The margin is 1e-9 (1 + sum of the
    terms' magnitudes).  A bound that is not finite, or a non-positive log
    argument, gives -inf.
    """
    log = math.log
    x1, y1, qm1 = 1 - x, 1 - y, q - 1
    terms = []
    if not u <= x <= v:
        e = u if x < u else v
        if x != 0:
            terms.append(d * (x * log(x / e)))
        if x1 != 0:
            terms.append(d * (x1 * log(x1 / (1 - e))))
    su, sv = (q * u - 1) / qm1, (q * v - 1) / qm1
    tu, tv = su**d, sv**d
    t_lo = 0.0 if d % 2 == 0 and su <= 0 <= sv else min(tu, tv)
    for w, a in ((y, 1 + qm1 * t_lo), (y1, 1 - max(tu, tv))):
        if w != 0:
            if not a > 0:
                return -INF
            terms.append(w * log(a))
    bound = math.fsum(terms)
    if not math.isfinite(bound):
        return -INF
    return bound - 1e-9 * (1 + math.fsum(map(abs, terms)))


def delta_qd(q, d, x, y, tol=1e-9, grid=10**4):
    """inf over xh in (0,1) of d D(x||xh) + J(q,d,xh,y), numerically.

    Grid scan over the cells i/grid, 0 < i < grid, plus golden-section
    refinement around the first best cell; the boundary value J(q,d,x,y)
    (the xh -> x limit) caps the result, so the return value never exceeds
    J + tol.  x and y are checked once; the objective is divergence and J
    inlined with the same float operations in the same order (J's clamp
    included), so the result is bit-identical to evaluating
    d * divergence(x, xh) + J(q, d, xh, y) at every point.

    The scan skips blocks of isqrt(grid) consecutive cells that cannot hold
    the minimum: those whose _block_floor exceeds the least objective value
    at the blocks' first cells.  Every cell that could tie the minimum is
    still scanned in order, so the first best cell, and the result, are
    those of the full scan.

    Where the infimum is -inf at xh -> 0 or xh -> 1, the result is still a
    finite upper bound on it, and that bound depends on grid.

    The refinement stops once its bracket is tol wide or stops shrinking in
    floating point.  grid must be a positive int; grid=1 scans nothing and
    returns J(q, d, x, y).
    """
    if not isinstance(grid, int) or grid < 1:
        raise DomainError(f"grid must be a positive integer, got {grid!r}")
    if not (0 <= x <= 1 and 0 <= y <= 1):
        # the first evaluation that would have failed names the check
        name = "divergence" if grid > 1 and not 0 <= x <= 1 else "J"
        raise DomainError(f"{name} arguments must lie in [0, 1]")
    log = math.log
    x1, y1, qm1 = 1 - x, 1 - y, q - 1

    def f(xh):
        div = 0.0
        if x != 0:
            div += x * log(x / xh) if xh != 0 else INF
        if x1 != 0:
            r = 1 - xh
            div += x1 * log(x1 / r) if r != 0 else INF
        t = ((q * xh - 1) / qm1) ** d
        j = 0.0
        if y != 0:
            a = 1 + qm1 * t
            j += y * log(a) if a > 0 else _wlog(y, a)
        if y1 != 0:
            a = 1 - t
            j += y1 * log(a) if a > 0 else _wlog(y1, a)
        return d * div + j

    size = math.isqrt(grid)
    blocks = [(lo, min(lo + size, grid)) for lo in range(1, grid, size)]
    seed = min((f(lo / grid) for lo, _ in blocks), default=INF)
    best_i, best_v = None, INF
    for lo, end in blocks:
        if _block_floor(q, d, x, y, lo / grid, (end - 1) / grid) > seed:
            continue
        for i in range(lo, end):
            v = f(i / grid)
            if v < best_v:
                best_i, best_v = i, v
    if best_i is not None:
        lo = max(1e-15, (best_i - 1) / grid)
        hi = min(1 - 1e-15, (best_i + 1) / grid)
        phi = (math.sqrt(5) - 1) / 2
        a, b = lo, hi
        c1 = b - phi * (b - a)
        c2 = a + phi * (b - a)
        f1, f2 = f(c1), f(c2)
        while b - a > tol:
            # a bracket a few floats wide can stop shrinking before tol
            if f1 <= f2:
                if not c2 < b:
                    break
                b, c2, f2 = c2, c1, f1
                c1 = b - phi * (b - a)
                f1 = f(c1)
            else:
                if not a < c1:
                    break
                a, c1, f1 = c1, c2, f2
                c2 = a + phi * (b - a)
                f2 = f(c2)
        best_v = min(best_v, f1, f2)
    return min(best_v, J(q, d, x, y))


# ---------------------------------------------------------------------------
# the LDGM ensemble itself


def ldgm_generator(params, perm, mults):
    """Dense generator for a fixed interleaver and multiplier assignment.

    perm maps pre-interleaver position p to its post-interleaver slot;
    mults[j] is the nonzero multiplier at post-interleaver position j.
    Input symbol i feeds positions i*c .. i*c+c-1; output check j sums
    post-interleaver positions j*d .. j*d+d-1.
    """
    field = params.field
    c, d = params.c, params.d
    gen = [[0] * params.out_len for _ in range(params.in_len)]
    for p in range(params.mid_len):
        i = p // c
        slot = perm[p]
        j = slot // d
        gen[i][j] = field.add(gen[i][j], mults[slot])
    return LinearCode(field, tuple(tuple(r) for r in gen))


def ldgm_sample(params, seed):
    """Seeded draw: Fisher-Yates interleaver plus uniform nonzero multipliers.

    Returns the code and the pre-cancellation edge list (input symbol,
    output check, multiplier).
    """
    rng = random.Random(seed)
    perm = list(range(params.mid_len))
    rng.shuffle(perm)
    q = params.field.q
    mults = tuple(rng.randrange(1, q) if q > 2 else 1 for _ in range(params.mid_len))
    code = ldgm_generator(params, perm, mults)
    edges = [
        (p // params.c, perm[p] // params.d, mults[perm[p]]) for p in range(params.mid_len)
    ]
    return code, edges


def _edge_count_tables(rows, room, c):
    """Every table of `rows` rows, each summing to c, with column sums room.

    Rows are chosen first to last, each in itertools.product order.
    """
    if rows == 0:
        yield ()
        return
    for row in itertools.product(*(range(min(r, c) + 1) for r in room)):
        if sum(row) == c:
            rest = tuple(r - a for r, a in zip(room, row))
            for tail in _edge_count_tables(rows - 1, rest, c):
                yield (row,) + tail


def ldgm_ensemble_exact(params):
    """Explicit support over every interleaver and multiplier choice.

    The L!·(q-1)^L choices are not walked one by one.  An interleaver fixes
    the edge-count table N (N_ij edges from input i to check j, row sums c,
    column sums d), and ∏c!·∏d!/∏N_ij! interleavers give the same N.  Given
    N, generator entry (i, j) is the sum of N_ij independent uniform nonzero
    multipliers, independently across entries.  Each code's integer weight
    is summed over the tables and divided once by L!·(q-1)^L.  The support
    lists codes in order of first appearance over the tables (as
    _edge_count_tables yields them) and, within a table, over the entry
    values; that is not the order of an interleaver walk.  The interleaver
    length L is capped at PERM_LIMIT.
    """
    L = params.mid_len
    _check_size("interleaved coordinates", L, perm=True)
    field, c, d = params.field, params.c, params.d
    q, rows, cols = field.q, params.in_len, params.out_len
    # sums[k][v]: how many of the (q-1)^k multiplier tuples add up to v
    sums = [{0: 1}]
    for _ in range(min(c, d)):
        nxt = {}
        for v, w in sums[-1].items():
            for a in range(1, q):
                s = field.add(v, a)
                nxt[s] = nxt.get(s, 0) + w
        sums.append(nxt)
    perms_const = math.factorial(c) ** rows * math.factorial(d) ** cols
    weights = {}
    for table in _edge_count_tables(rows, (d,) * cols, c):
        flat = [k for row in table for k in row]
        perms = perms_const // math.prod(map(math.factorial, flat))
        for choice in itertools.product(*(sums[k].items() for k in flat)):
            w = perms
            for _, count in choice:
                w *= count
            gen = tuple(
                tuple(v for v, _ in choice[i * cols : (i + 1) * cols]) for i in range(rows)
            )
            weights[gen] = weights.get(gen, 0) + w
    total = math.factorial(L) * (q - 1) ** L
    return CodeEnsemble(
        support=tuple((LinearCode(field, gen), Fraction(w, total)) for gen, w in weights.items()),
        description=f"ldgm q={q} c={c} d={d} n={params.n}",
    )


def ldgm_conditional_spectrum(params, P, Q):
    """Exact E[S(Q|P)] of the LDGM ensemble.

    The repetition stage maps type P to the same distribution on the longer
    intermediate block, so the conditional equals that of the randomized
    check code at the stretched type.
    """
    q = params.field.q
    if P.n != params.in_len or Q.n != params.out_len:
        raise DimensionMismatch(
            f"types of lengths {P.n}, {Q.n}; need {params.in_len}, {params.out_len}"
        )
    Pt = stretch_type(P, params.c)
    joint = chk_avg_spectrum(q, params.d, params.out_len, Pt, Q)
    marginal = Fraction(type_class_size(Pt), q**params.mid_len)
    return joint / marginal


def ldgm_alpha_bound(params, P, Q):
    """(c/d) delta_{q,d}(P(0), Q(0)) + c Delta at the stretched type: the
    upper bound on (1/(d'n)) ln alpha."""
    q = params.field.q
    x = P.counts[0] / P.n
    y = Q.counts[0] / Q.n
    return (params.c / params.d) * delta_qd(q, params.d, x, y) + params.c * Delta(
        stretch_type(P, params.c)
    )


# ---------------------------------------------------------------------------
# design helpers


def rho0_of(q, r0, gamma, d):
    return math.log(1 + (q - 1) * (q * gamma / (q - 1)) ** d) / r0


def rho0_and_dq(q, r0, gamma1, gamma2, delta):
    """Minimal check degree with rho0 <= delta, and the achieved rho0.

    gamma is the larger of the two window half-widths; d_min comes from the
    ceiling formula and is then verified (and nudged, in case of float
    borderline) so the returned pair really satisfies rho0 <= delta.
    """
    if r0 <= 0 or delta <= 0:
        raise DomainError("need r0 > 0 and delta > 0")
    if not (0 < gamma1 <= 1 / q) or gamma1 == 0.5:
        raise DomainError(f"gamma1={gamma1} outside (0, 1/q] \\ {{1/2}}")
    if not (0 < gamma2 < (q - 1) / q):
        raise DomainError(f"gamma2={gamma2} outside (0, (q-1)/q)")
    gamma = max(gamma1, gamma2)
    ratio = q * gamma / (q - 1)
    numer = math.exp(r0 * delta) - 1
    if numer >= q - 1:
        d_min = 1
    else:
        d_min = max(1, math.ceil(math.log(numer / (q - 1)) / math.log(ratio)))
    while rho0_of(q, r0, gamma, d_min) > delta:
        d_min += 1
    return {"rho0": rho0_of(q, r0, gamma, d_min), "d_min": d_min, "gamma": gamma}


# ---------------------------------------------------------------------------
# K_q


def kq_product(q, terms):
    out = Fraction(1)
    for i in range(1, terms + 1):
        out *= 1 - Fraction(1, q**i)
    return out


def kq_series(q, terms):
    """Euler pentagonal expansion 1 + sum (-1)^k [q^{-k(3k-1)/2} + q^{-k(3k+1)/2}]."""
    out = Fraction(1)
    k = 1
    while k * (3 * k - 1) // 2 <= terms:
        sign = -1 if k % 2 else 1
        out += sign * (
            Fraction(1, q ** (k * (3 * k - 1) // 2)) + Fraction(1, q ** (k * (3 * k + 1) // 2))
        )
        k += 1
    return out


def K_q(q, terms=64):
    return float(kq_product(q, terms))


def full_rank_probability(q, n):
    """Exact P{a uniform n x n matrix over GF(q) is invertible}."""
    return kq_product(q, n)
