import itertools
import math
import random
import threading
from fractions import Fraction

import pytest

from codespectra.errors import DimensionMismatch, DomainError, SupportViolation, TooLarge
from codespectra.genfun import GenPoly
from codespectra.gf import field_make
from codespectra.ldgm import (
    Delta,
    J,
    K_q,
    LdgmParams,
    _block_floor,
    chk_avg_spectrum,
    delta_qd,
    divergence,
    full_rank_probability,
    g2_bound,
    kq_product,
    kq_series,
    ldgm_alpha_bound,
    ldgm_conditional_spectrum,
    ldgm_ensemble_exact,
    ldgm_generator,
    ldgm_sample,
    lemma2_bound,
    rho0_and_dq,
    rho0_of,
    stretch_type,
)
from codespectra.spectra import (
    TypeVector,
    conditional_at,
    ensemble_avg_joint_spectrum,
    enumerate_types,
    randomize,
    single_code_ensemble,
    space_spectrum,
    type_class_size,
)

f2 = field_make(2)
f3 = field_make(3)
f4 = field_make(2, 2)
f5 = field_make(5)


def _u(a):
    return GenPoly.variable(("u", a))


def _v(a):
    return GenPoly.variable(("v", a))


def _sum(polys):
    return sum(polys, GenPoly.constant(0))


def _s_t(q):
    """s = sum_a u_a and t = u_0 - (u_1 + ... + u_{q-1}) / (q-1)."""
    s = _sum(_u(a) for a in range(q))
    return s, _u(0) - _sum(_u(a) for a in range(1, q)) * Fraction(1, q - 1)


def _chk_node_genfun(q, d):
    """Expected genfun of one randomized check node of degree d, in the
    paper's form (s^d v_sum + t^d v_alt) / q^(d+1), v_alt = q v_0 - v_sum."""
    s, t = _s_t(q)
    v_sum = _sum(_v(a) for a in range(q))
    return (s**d * v_sum + t**d * (_v(0) * q - v_sum)) * Fraction(1, q ** (d + 1))


def _g1(q, d, n, Q):
    """The polynomial in u whose u^(nP) coefficient is the expected spectrum
    of n parallel randomized checks at (P, Q)."""
    s, t = _s_t(q)
    s, t = s**d, t**d
    nq0 = Q.counts[0]
    poly = (s + t * (q - 1)) ** nq0 * (s - t) ** (n - nq0)
    return poly * Fraction(type_class_size(Q), q ** (n * (d + 1)))


def _exponent(block, T):
    return {(block, a): T.counts[a] for a in range(T.q)}


def _multiplier_average(field, gens):
    """Average joint spectrum over the listed generators, equally weighted."""
    from codespectra.spectra import LinearCode, code_joint_spectrum

    acc = {}
    for gen in gens:
        for key, mass in code_joint_spectrum(LinearCode(field, gen)).items():
            acc[key] = acc.get(key, 0) + Fraction(mass, len(gens))
    return acc


def test_rep_genfun_binary():
    from codespectra.genfun import genfun_from_joint
    from codespectra.spectra import LinearCode, code_joint_spectrum

    got = genfun_from_joint(code_joint_spectrum(LinearCode(f2, ((1, 1, 1),))))
    assert got == (_u(0) * _v(0) ** 3 + _u(1) * _v(1) ** 3) * Fraction(1, 2)


def test_rrep_genfun_binary_is_plain_rep():
    # q = 2 has a single nonzero multiplier, so randomization changes nothing
    from codespectra.spectra import LinearCode, code_joint_spectrum

    rep = ((1, 1, 1, 1),)
    assert _multiplier_average(f2, [rep]) == code_joint_spectrum(LinearCode(f2, rep))


def test_rrep_genfun_q3_symmetrized():
    # uniform nonzero multipliers on the input and on both outputs of the
    # single-symbol repetition code make the nonzero symbols exchangeable
    from codespectra.genfun import genfun_from_joint

    gens = [
        ((f3.mul(f3.inv(a), b0), f3.mul(f3.inv(a), b1)),)
        for a in (1, 2)
        for b0 in (1, 2)
        for b1 in (1, 2)
    ]
    half = (_v(1) + _v(2)) * Fraction(1, 2)
    want = (_u(0) * _v(0) ** 2 + (_u(1) + _u(2)) * half**2) * Fraction(1, 3)
    assert genfun_from_joint(_multiplier_average(f3, gens)) == want


def test_rep_joint_spectrum_matches_brute_force():
    # the repetition stage stretches every input type: the joint spectrum of
    # the c-fold repetition code sits at (P, stretch_type(P, c)) with the
    # mass of P in the whole space
    from codespectra.spectra import LinearCode, code_joint_spectrum

    for field, c, n in ((f2, 3, 2), (f3, 2, 2), (f4, 2, 1)):
        gen = tuple(
            tuple(1 if c * i <= j < c * (i + 1) else 0 for j in range(c * n))
            for i in range(n)
        )
        want = {(P, stretch_type(P, c)): m for P, m in space_spectrum(n, field).items()}
        assert code_joint_spectrum(LinearCode(field, gen)) == want


def test_chk_avg_spectrum_binary_matches_enumeration():
    # one binary degree-2 check: average over the identity assignment only
    from codespectra.spectra import LinearCode, code_joint_spectrum

    chk = LinearCode(f2, ((1,), (1,)))
    j = code_joint_spectrum(chk)
    for (P, Q), mass in j.items():
        assert chk_avg_spectrum(2, 2, 1, P, Q) == mass


def test_chk_avg_spectrum_q3_matches_multiplier_average():
    # degree-2 check over GF(3): average the joint spectrum over all 4
    # nonzero multiplier pairs and compare entrywise
    from codespectra.spectra import LinearCode, code_joint_spectrum

    d, n = 2, 1
    acc = {}
    pairs = list(itertools.product((1, 2), repeat=d))
    for mults in pairs:
        code = LinearCode(f3, tuple((m,) for m in mults))
        for key, mass in code_joint_spectrum(code).items():
            acc[key] = acc.get(key, 0) + Fraction(mass, len(pairs))
    for P in enumerate_types(d * n, f3):
        for Q in enumerate_types(n, f3):
            assert chk_avg_spectrum(3, d, n, P, Q) == acc.get((P, Q), 0)


def test_chk_avg_spectrum_parallel_copies():
    # two parallel binary checks: compare against the two-permutation average
    from codespectra.spectra import LinearCode, code_joint_spectrum

    d, n = 2, 2
    acc = {}
    layouts = []
    for assign in itertools.permutations(range(d * n)):
        gen = [[0] * n for _ in range(d * n)]
        for pos, slot in enumerate(assign):
            gen[pos][slot // d] = 1
        layouts.append(tuple(tuple(r) for r in gen))
    for gen in layouts:
        for key, mass in code_joint_spectrum(LinearCode(f2, gen)).items():
            acc[key] = acc.get(key, 0) + Fraction(mass, len(layouts))
    for P in enumerate_types(d * n, f2):
        for Q in enumerate_types(n, f2):
            assert chk_avg_spectrum(2, d, n, P, Q) == acc.get((P, Q), 0)


def test_chk_genfun_matches_spectrum():
    # every (P, Q) coefficient of the n-th power of the single-node genfun
    for field, d, n in ((f2, 3, 2), (f3, 2, 2), (f4, 1, 2), (f5, 2, 1)):
        q = field.q
        g = _chk_node_genfun(q, d) ** n
        for P in enumerate_types(d * n, field):
            for Q in enumerate_types(n, field):
                want = g.coef(_exponent("u", P) | _exponent("v", Q))
                assert chk_avg_spectrum(q, d, n, P, Q) == want, (q, d, n, P, Q)


def _random_type(rng, n, q):
    cuts = sorted(rng.randint(0, n) for _ in range(q - 1))
    bounds = [0, *cuts, n]
    return TypeVector(tuple(b - a for a, b in zip(bounds, bounds[1:])))


def test_g1_coefficient_extraction():
    # chk_avg_spectrum against the u^(nP) coefficient of g1 expanded in all q
    # variables.  That expansion has C(dn+q-1, q-1) terms; shapes above 1000
    # are skipped so the sweep stays near a second.
    rng = random.Random(6)
    seen = set()
    for _ in range(120):
        q, d, n = rng.choice((2, 3, 4, 5, 7)), rng.randint(1, 6), rng.randint(1, 3)
        if math.comb(d * n + q - 1, q - 1) > 1000:
            continue
        seen.add((q, d))
        P, Q = _random_type(rng, d * n, q), _random_type(rng, n, q)
        got = chk_avg_spectrum(q, d, n, P, Q)
        assert type(got) is Fraction
        assert got == _g1(q, d, n, Q).coef(_exponent("u", P)), (q, d, n, P, Q)
    assert {q for q, _ in seen} == {2, 3, 4, 5, 7}
    assert {d for _, d in seen} == set(range(1, 7))
    assert (4, 1) in seen


def test_g2_bound_dominates_exact():
    q, d, n = 2, 2, 2
    for P in enumerate_types(d * n, f2):
        for Q in enumerate_types(n, f2):
            exact = chk_avg_spectrum(q, d, n, P, Q)
            for O in enumerate_types(d * n, f2):
                if any(P.counts[a] > 0 and O.counts[a] == 0 for a in range(q)):
                    continue
                assert g2_bound(q, d, n, O, P, Q) >= exact
            # evaluating at O = P is within support by construction
            assert g2_bound(q, d, n, P, P, Q) >= exact


def test_g2_bound_support_violation():
    with pytest.raises(SupportViolation):
        g2_bound(2, 2, 1, TypeVector((2, 0)), TypeVector((1, 1)), TypeVector((1, 0)))


def test_divergence_values():
    assert divergence(0.5, 0.5) == 0
    assert divergence(0, 0.5) == pytest.approx(math.log(2))
    assert divergence(0.3, 0) == math.inf
    assert divergence(1, 1) == 0
    with pytest.raises(DomainError):
        divergence(1.5, 0.5)


def test_Delta_values():
    P = TypeVector((2, 2))
    assert Delta(P) == pytest.approx(math.log(2) - math.log(6) / 4)
    assert Delta(TypeVector((4, 0))) == 0
    n = 8
    for P in enumerate_types(n, f2):
        d = Delta(P)
        assert -1e-12 <= d <= 2 * math.log(n + 1) / n + 1e-12


def test_J_values():
    # at x = 1/q the inner factor vanishes for d >= 1
    assert J(2, 3, 0.5, 0.3) == 0
    # x = 0, y = 0: t = (-1)^d
    assert J(2, 2, 0.0, 0.0) == -math.inf
    assert J(2, 1, 0.0, 1.0) == -math.inf
    # generic value against the explicit formula
    x, y, d = 0.4, 0.3, 3
    t = (2 * x - 1) ** d
    assert J(2, d, x, y) == pytest.approx(y * math.log(1 + t) + (1 - y) * math.log(1 - t))


def test_bound_chain_ordering():
    # delta_qd <= J <= lemma2 cap wherever all are finite
    for q, d in ((2, 2), (2, 3), (3, 2)):
        for x in (0.1, 0.3, 0.5, 0.7):
            for y in (0.2, 0.5, 0.9):
                j = J(q, d, x, y)
                assert delta_qd(q, d, x, y) <= j + 1e-9
                assert j <= lemma2_bound(q, d, x, y) + 1e-12


def test_delta_qd_can_beat_J():
    # at x = 0 the divergence term lets the infimum undercut the boundary value
    q, d, y = 2, 2, 0.0
    assert J(q, d, 0.0, y) == -math.inf or delta_qd(q, d, 0.2, y) <= J(q, d, 0.2, y)
    v = delta_qd(2, 4, 0.05, 0.5)
    assert v <= J(2, 4, 0.05, 0.5) + 1e-9
    assert v > -math.inf


def test_ldgm_conditional_equals_chk_conditional_exactly():
    # the repetition stage only stretches the input type, so the ensemble
    # conditional equals the randomized check conditional entry for entry
    for q, c, d, n in ((2, 1, 2, 2), (2, 2, 2, 1), (3, 1, 2, 1)):
        field = field_make(q)
        params = LdgmParams(field, c, d, n)
        E = ldgm_ensemble_exact(params)
        avg = ensemble_avg_joint_spectrum(E)
        for P in enumerate_types(params.in_len, field):
            cond = conditional_at(avg, P)
            for Q in enumerate_types(params.out_len, field):
                assert cond.get(Q, Fraction(0)) == ldgm_conditional_spectrum(
                    params, P, Q
                )


def test_ldgm_alpha_bound_holds_small():
    q, c, d, n = 2, 1, 2, 2
    params = LdgmParams(field_make(q), c, d, n)
    E = ldgm_ensemble_exact(params)
    avg = ensemble_avg_joint_spectrum(E)
    space = space_spectrum(params.out_len, f2)
    for P in enumerate_types(params.in_len, f2):
        if P.is_zero_type():
            continue
        cond = conditional_at(avg, P)
        for Q in enumerate_types(params.out_len, f2):
            a = cond.get(Q, Fraction(0)) / space[Q]
            if a == 0:
                continue
            lhs = math.log(a) / params.in_len
            assert lhs <= ldgm_alpha_bound(params, P, Q) + 1e-9


def test_ldgm_sample_reproducible_and_edges():
    params = LdgmParams(f2, 2, 3, 4)
    code1, edges1 = ldgm_sample(params, 123)
    code2, edges2 = ldgm_sample(params, 123)
    assert code1 == code2 and edges1 == edges2
    # every input symbol has degree c d', every check has degree d
    indeg = [0] * params.in_len
    outdeg = [0] * params.out_len
    for i, j, m in edges1:
        indeg[i] += 1
        outdeg[j] += 1
        assert m != 0
    assert all(v == params.mid_len // params.in_len for v in indeg)
    assert all(v == params.d for v in outdeg)
    assert code1.n == params.in_len and code1.m == params.out_len


def test_ldgm_sample_q3_multipliers_nonzero():
    params = LdgmParams(f3, 1, 2, 2)
    _, edges = ldgm_sample(params, 9)
    assert all(m in (1, 2) for _, _, m in edges)


def test_ldgm_ensemble_exact_cap():
    with pytest.raises(TooLarge):
        ldgm_ensemble_exact(LdgmParams(f2, 3, 3, 10))


def _ldgm_ensemble_walk(params):
    """Reference: walk all L! interleavers times (q-1)^L multiplier tuples."""
    L, q = params.mid_len, params.field.q
    mult_space = list(itertools.product(range(1, q), repeat=L))
    p = Fraction(1, math.factorial(L) * len(mult_space))
    merged = {}
    for perm in itertools.permutations(range(L)):
        for mults in mult_space:
            code = ldgm_generator(params, perm, mults)
            merged[code] = merged.get(code, 0) + p
    return merged


def _ldgm_shapes(max_len):
    """Every (c, d, n) whose intermediate length c d' n is at most max_len."""
    return [
        (c, d, n)
        for c in range(1, max_len + 1)
        for d in range(1, max_len + 1)
        for n in range(1, max_len + 1)
        if c * (d // math.gcd(c, d)) * n <= max_len
    ]


# The walk costs L!·(q-1)^L generators, so the larger fields stop at a
# shorter intermediate length (GF(3) at L = 6 alone would take about 15 s).
@pytest.mark.parametrize(
    "field,max_len",
    [(f2, 6), (f3, 5), (f4, 4), (f5, 4)],
    ids=["GF2-L6", "GF3-L5", "GF4-L4", "GF5-L4"],
)
def test_ldgm_ensemble_exact_matches_interleaver_walk(field, max_len):
    shapes = _ldgm_shapes(max_len)
    # the shapes include gcd(c, d) > 1 and c > d
    assert (2, 2, 1) in shapes and (2, 1, 1) in shapes
    for c, d, n in shapes:
        params = LdgmParams(field, c, d, n)
        E = ldgm_ensemble_exact(params)
        assert dict(E.support) == _ldgm_ensemble_walk(params), (c, d, n)
        assert len(E.support) == len(dict(E.support))
        assert E.description == f"ldgm q={field.q} c={c} d={d} n={n}"


def _delta_qd_reference(q, d, x, y, tol=1e-9, grid=200):
    """The scan and golden-section refinement of delta_qd, evaluating the
    objective through the public divergence and J at every point."""

    def f(xh):
        return d * divergence(x, xh) + J(q, d, xh, y)

    best_i, best_v = None, math.inf
    for i in range(1, grid):
        v = f(i / grid)
        if v < best_v:
            best_i, best_v = i, v
    if best_i is not None:
        phi = (math.sqrt(5) - 1) / 2
        a, b = max(1e-15, (best_i - 1) / grid), min(1 - 1e-15, (best_i + 1) / grid)
        c1, c2 = b - phi * (b - a), a + phi * (b - a)
        f1, f2 = f(c1), f(c2)
        while b - a > tol:
            if f1 <= f2:
                b, c2, f2 = c2, c1, f1
                c1 = b - phi * (b - a)
                f1 = f(c1)
            else:
                a, c1, f1 = c1, c2, f2
                c2 = a + phi * (b - a)
                f2 = f(c2)
        best_v = min(best_v, f1, f2)
    return min(best_v, J(q, d, x, y))


def test_delta_qd_is_bit_identical_to_public_objective():
    rng = random.Random(11)
    shapes = [(2, 1), (2, 2), (2, 3), (2, 6), (2, 35), (3, 2), (3, 4), (4, 3), (5, 2)]
    edges = [(x, y) for x in (0, 1, 0.0, 1.0) for y in (0, 1, 0.0, 1.0)]
    edges += [(0, 0.4), (1, 0.7), (0.3, 0), (0.8, 1), (0.5, 0.5)]
    for q, d in shapes:
        points = edges + [(rng.random(), rng.random()) for _ in range(4)]
        for x, y in points:
            got = delta_qd(q, d, x, y, grid=200)
            assert repr(got) == repr(_delta_qd_reference(q, d, x, y)), (q, d, x, y)
    # the default grid as well, at a few points
    for q, d, x, y in ((2, 4, 0.3, 0.6), (3, 2, 0.05, 0.9), (2, 35, 0.5, 0.02)):
        assert repr(delta_qd(q, d, x, y)) == repr(_delta_qd_reference(q, d, x, y, grid=10**4))


def _blocks(grid):
    """delta_qd's partition of the cells 1..grid-1: (first, last) per block."""
    size = math.isqrt(grid)
    return [(lo, min(lo + size, grid) - 1) for lo in range(1, grid, size)]


def test_block_floor_never_exceeds_the_objective():
    rng = random.Random(17)
    cases = []
    for _ in range(300):
        q = rng.choice((2, 3, 4, 5, 7))
        if rng.random() < 0.5:
            grid = rng.choice((2, 3, 7, 20, 21, 65, 200))
        else:
            grid = q * rng.randint(1, 25)
        cases.append((q, rng.randint(1, 12), rng.random(), rng.random(), grid))
    # d even and qy > 1: the objective dips towards 1/q inside its block,
    # with x in that block too (t and D both reach their least inside it)
    for _ in range(300):
        q = rng.choice((2, 3, 4, 5, 7))
        grid = q * rng.randint(2, 25)
        lo, hi = next(b for b in _blocks(grid) if b[0] <= grid // q <= b[1])
        x = rng.uniform(lo, hi) / grid
        cases.append((q, 2 * rng.randint(1, 6), x, rng.uniform(1 / q, 1), grid))
    cases += [(3, 1, 0.60, 0.03, 65), (2, 4, 1 / 8, 1 / 4, 200)]
    cases += [(2, 35, 0, 1, 65), (5, 3, 1, 0, 21)]
    for q, d, x, y, grid in cases:
        for lo, hi in _blocks(grid):
            floor = _block_floor(q, d, x, y, lo / grid, hi / grid)
            for i in range(lo, hi + 1):
                xh = i / grid
                value = d * divergence(x, xh) + J(q, d, xh, y)
                assert floor <= value, (q, d, x, y, grid, lo, hi, i)


def test_delta_qd_block_skip_is_bit_identical_to_full_scan():
    rng = random.Random(23)
    shapes = [(2, 3), (2, 4), (2, 6), (2, 8), (2, 35), (3, 2), (3, 4)]
    default_grid = [(3, 1, 0.60, 0.03), (2, 4, 1 / 8, 1 / 4), (2, 4, 0, 1), (3, 2, 1, 0)]
    for q, d in shapes:
        default_grid += [(q, d, rng.random(), rng.random()) for _ in range(2)]
    for q, d, x, y in default_grid:
        got = delta_qd(q, d, x, y)
        assert repr(got) == repr(_delta_qd_reference(q, d, x, y, grid=10**4)), (q, d, x, y)
    # grids that are not multiples of the block size
    edges = [(x, y) for x in (0, 1) for y in (0, 1)] + [(0.60, 0.03), (1 / 8, 1 / 4)]
    for q, d in shapes + [(3, 1), (5, 2), (7, 3)]:
        for x, y in edges + [(rng.random(), rng.random()) for _ in range(3)]:
            for grid in (7, 65, 199):
                want = _delta_qd_reference(q, d, x, y, grid=grid)
                assert repr(delta_qd(q, d, x, y, grid=grid)) == repr(want), (q, d, x, y, grid)


@pytest.mark.parametrize("tol", [1e-300, 0.0, -1.0])
def test_delta_qd_returns_when_tol_is_below_float_spacing(tol):
    result = []
    worker = threading.Thread(
        target=lambda: result.append(delta_qd(2, 4, 0.3, 0.6, tol=tol)), daemon=True
    )
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert result[0] <= delta_qd(2, 4, 0.3, 0.6) <= J(2, 4, 0.3, 0.6)


@pytest.mark.parametrize("grid", [2.5, 0, -3, "10", None])
def test_delta_qd_rejects_a_grid_that_is_not_a_positive_integer(grid):
    with pytest.raises(DomainError):
        delta_qd(2, 3, 0.3, 0.6, grid=grid)


def test_delta_qd_with_one_cell_is_J():
    for q, d, x, y in ((2, 3, 0.3, 0.6), (3, 2, 0.05, 0.9), (2, 4, 0, 1)):
        assert repr(delta_qd(q, d, x, y, grid=1)) == repr(J(q, d, x, y))


@pytest.mark.parametrize(
    "x,y", [(-0.1, 0.5), (1.5, 0.5), (0.5, -1e-9), (0.5, 1.01), (math.nan, 0.5), (0.5, math.nan)]
)
def test_delta_qd_rejects_arguments_outside_unit_interval(x, y):
    with pytest.raises(DomainError):
        delta_qd(2, 3, x, y)
    with pytest.raises(DomainError):
        delta_qd(2, 3, x, y, grid=1)


def test_type_length_checks_are_typed():
    # raised, not asserted, so they hold under python -O as well
    params = LdgmParams(f2, 2, 4, 2)
    with pytest.raises(DimensionMismatch):
        ldgm_conditional_spectrum(params, TypeVector((1, 1)), TypeVector((1, 1)))
    with pytest.raises(DimensionMismatch):
        ldgm_conditional_spectrum(params, TypeVector((2, 2)), TypeVector((1, 2)))
    with pytest.raises(DimensionMismatch):
        chk_avg_spectrum(2, 2, 2, TypeVector((1, 1)), TypeVector((1, 1)))
    with pytest.raises(DimensionMismatch):
        chk_avg_spectrum(2, 2, 2, TypeVector((2, 2)), TypeVector((3, 0)))


def test_stretch_type():
    assert stretch_type(TypeVector((2, 1)), 3).counts == (6, 3)


def test_rho0_and_dq_reference_point():
    res = rho0_and_dq(2, 2.5, 0.45, 0.45, 0.01)
    assert res["d_min"] == 35
    assert res["gamma"] == 0.45
    assert res["rho0"] == pytest.approx(0.009889, abs=1e-5)
    # minimality: one degree lower misses the target
    assert rho0_of(2, 2.5, 0.45, 34) > 0.01
    assert rho0_of(2, 2.5, 0.45, 35) <= 0.01


def test_rho0_monotone_in_d():
    vals = [rho0_of(2, 2.5, 0.45, d) for d in range(1, 40)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_rho0_and_dq_validation():
    with pytest.raises(DomainError):
        rho0_and_dq(2, 0, 0.4, 0.4, 0.01)
    with pytest.raises(DomainError):
        rho0_and_dq(2, 2.5, 0.6, 0.4, 0.01)
    with pytest.raises(DomainError):
        rho0_and_dq(2, 2.5, 0.4, 0.6, 0.01)


def test_kq_values():
    assert kq_product(2, 2) == Fraction(3, 8)
    assert K_q(2) == pytest.approx(0.2887880950866, abs=1e-12)
    for q in (2, 3, 5):
        assert abs(kq_product(q, 64) - kq_series(q, 64)) < Fraction(1, 10**12)


def test_full_rank_probability():
    assert full_rank_probability(2, 1) == Fraction(1, 2)
    assert full_rank_probability(2, 2) == Fraction(3, 8)
    assert full_rank_probability(3, 2) == Fraction(16, 27)
    # brute force check for 2x2 over GF(2)
    from codespectra.linalg import rank

    hits = sum(
        1
        for flat in itertools.product(range(2), repeat=4)
        if rank(f2, (flat[:2], flat[2:])) == 2
    )
    assert Fraction(hits, 16) == full_rank_probability(2, 2)
