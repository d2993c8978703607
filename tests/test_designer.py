import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from codespectra.designer import (
    _kernel_basis,
    _row_space,
    check_lower_bound,
    compose,
    design_concat,
    equivalence_G1,
    equivalence_G2,
    outer_weight_window,
    single_code_lower_bound,
    wilson_interval,
)
from codespectra.errors import DimensionMismatch, DomainError, TooLarge
from codespectra.gf import field_make
from codespectra.linalg import matmul
from codespectra.spectra import (
    PERM_LIMIT,
    CodeEnsemble,
    LinearCode,
    all_vectors,
    compose_avg_conditional,
    conditional_spectrum,
    ensemble_avg_joint_spectrum,
    randomize,
    single_code_ensemble,
)

f2 = field_make(2)
f3 = field_make(3)


def test_compose_identity_interleaver():
    rep = LinearCode(f2, ((1, 1),))
    chk = LinearCode(f2, ((1,), (1,)))
    out = compose(rep, chk)
    assert isinstance(out, LinearCode)
    assert out.generator == ((0,),)


def test_compose_explicit_perm():
    f = LinearCode(f2, ((1, 0),))
    g = LinearCode(f2, ((1,), (0,)))
    swapped = compose(f, g, perm=(1, 0))
    assert swapped.generator == ((0,),)
    straight = compose(f, g)
    assert straight.generator == ((1,),)


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compose(LinearCode(f2, ((1, 1),)), LinearCode(f2, ((1,),)))


@pytest.mark.parametrize("perm", [(0,), (0, 0), (0, 2), (0, -1), (0, 1, 2)])
def test_compose_rejects_a_perm_that_is_not_a_permutation(perm):
    with pytest.raises(DomainError):
        compose(LinearCode(f2, ((1, 0),)), LinearCode(f2, ((1,), (0,))), perm=perm)


def test_compose_uniform_interleaver_is_capped_before_expansion():
    mid = PERM_LIMIT + 1
    with pytest.raises(TooLarge) as exc:
        compose(LinearCode(f2, ((1,) * mid,)), LinearCode(f2, ((1,),) * mid), uniform=True)
    assert (exc.value.needed, exc.value.limit) == (mid, PERM_LIMIT)


@pytest.mark.parametrize("mode,n,m", [("in", PERM_LIMIT + 1, 1), ("out", 1, PERM_LIMIT + 1)])
def test_randomize_permutations_are_capped_before_expansion(mode, n, m):
    E = single_code_ensemble(LinearCode(f2, ((1,) * m,) * n))
    with pytest.raises(TooLarge) as exc:
        randomize(E, mode)
    assert (exc.value.needed, exc.value.limit) == (PERM_LIMIT + 1, PERM_LIMIT)


# Reference: the permutation-matrix products that randomize and compose
# replace by reindexing rows and columns.


def _perm_matrix(perm):
    k = len(perm)
    return tuple(tuple(1 if perm[i] == j else 0 for j in range(k)) for i in range(k))


def _perm_matrices(k):
    return [_perm_matrix(p) for p in itertools.permutations(range(k))]


def _randomize_reference(E, mode):
    field, n, m = E.field, E.n, E.m
    in_perms = _perm_matrices(n) if mode in ("in", "both", "affine") else [None]
    out_perms = _perm_matrices(m) if mode in ("out", "both", "affine") else [None]
    offsets = list(all_vectors(field, m)) if mode == "affine" else [None]
    scale = Fraction(1, len(in_perms) * len(out_perms) * len(offsets))
    merged = {}
    for code, p in E.support:
        for pin in in_perms:
            left = matmul(field, pin, code.generator) if pin is not None else code.generator
            for pout in out_perms:
                gen = matmul(field, left, pout) if pout is not None else left
                for off in offsets:
                    offset = code.offset
                    if off is not None:
                        base = offset or (0,) * m
                        offset = tuple(field.add(a, b) for a, b in zip(base, off))
                    variant = LinearCode(field, gen, offset)
                    merged[variant] = merged.get(variant, 0) + p * scale
    return list(merged.items())


def _compose_reference(F, G, perms):
    field = F.field
    merged = {}
    for fc, fp in F.support:
        for sigma in perms:
            left = matmul(field, fc.generator, _perm_matrix(sigma))
            for gc, gp in G.support:
                code = LinearCode(field, matmul(field, left, gc.generator))
                merged[code] = merged.get(code, 0) + fp * gp * Fraction(1, len(perms))
    return list(merged.items())


def _support(result):
    return [(result, 1)] if isinstance(result, LinearCode) else list(result.support)


SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def _matrix(draw, field, n, m):
    entry = st.integers(0, field.q - 1)
    return draw(st.lists(st.tuples(*[entry] * m), min_size=n, max_size=n).map(tuple))


def _ensemble(draw, field, n, m, offsets=False):
    """One to three members with random weights, optionally affine."""
    k = draw(st.integers(1, 3))
    codes = []
    for _ in range(k):
        offset = None
        if offsets and draw(st.booleans()):
            offset = _matrix(draw, field, 1, m)[0]
        codes.append(LinearCode(field, _matrix(draw, field, n, m), offset))
    weights = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    return CodeEnsemble(support=tuple((c, Fraction(w, sum(weights))) for c, w in zip(codes, weights)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_randomize_equals_permutation_matrix_products(data):
    field = field_make(*data.draw(st.sampled_from(SMALL_FIELDS)))
    mode = data.draw(st.sampled_from(["in", "out", "both", "affine"]))
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 2 if mode == "affine" else 3))
    E = _ensemble(data.draw, field, n, m, offsets=True)
    assert list(randomize(E, mode).support) == _randomize_reference(E, mode)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compose_equals_permutation_matrix_products(data):
    field = field_make(*data.draw(st.sampled_from(SMALL_FIELDS)))
    n, mid, m = (data.draw(st.integers(1, 3)) for _ in range(3))
    F = _ensemble(data.draw, field, n, mid)
    G = _ensemble(data.draw, field, mid, m)
    perm = data.draw(st.permutations(range(mid)))
    assert _support(compose(F, G, perm=perm)) == _compose_reference(F, G, [tuple(perm)])
    perms = list(itertools.permutations(range(mid)))
    assert _support(compose(F, G, uniform=True)) == _compose_reference(F, G, perms)


def test_compose_uniform_matches_conditional_law():
    # spectrum of uniform-interleaver concatenation equals the
    # Chapman-Kolmogorov composition of the pieces' average conditionals
    F = single_code_ensemble(LinearCode(f2, ((1, 1),)))
    G = single_code_ensemble(LinearCode(f2, ((1, 0), (1, 1))))
    E = compose(F, G, uniform=True)
    if isinstance(E, LinearCode):
        E = single_code_ensemble(E)
    got = conditional_spectrum(ensemble_avg_joint_spectrum(E))
    want = compose_avg_conditional(F, G)
    assert got == want


def test_compose_uniform_matches_conditional_law_q3():
    F = single_code_ensemble(LinearCode(f3, ((1, 2),)))
    G = single_code_ensemble(LinearCode(f3, ((2, 0), (1, 1))))
    E = compose(F, G, uniform=True)
    if isinstance(E, LinearCode):
        E = single_code_ensemble(E)
    got = conditional_spectrum(ensemble_avg_joint_spectrum(E))
    assert got == compose_avg_conditional(F, G)


def test_compose_ensemble_output_probabilities():
    F = single_code_ensemble(LinearCode(f2, ((1, 0),)))
    G = single_code_ensemble(LinearCode(f2, ((1,), (0,))))
    E = compose(F, G, uniform=True)
    assert isinstance(E, CodeEnsemble)
    assert sum(p for _, p in E.support) == 1
    assert len(E.support) == 2


def test_outer_weight_window_repetition():
    rep = LinearCode(f2, ((1, 1, 1, 1),))
    w = outer_weight_window(rep)
    assert w["p0_min"] == 0 and w["p0_max"] == 0
    assert w["gamma1"] == Fraction(1, 2)


def test_outer_weight_window_identity():
    ident = LinearCode(f2, ((1, 0), (0, 1)))
    w = outer_weight_window(ident)
    assert w["p0_min"] == 0 and w["p0_max"] == Fraction(1, 2)
    assert w["gamma1"] == Fraction(1, 2) and w["gamma2"] == 0


def test_design_concat_reference_point():
    cert = design_concat(2, Fraction(1, 5), 0.05, 0.95, 0.05)
    assert cert["d"] == 35
    assert cert["c"] == 14
    assert cert["inner_rate"] == "5/2"
    assert cert["gamma"] == pytest.approx(0.45)
    assert cert["rho0"] == pytest.approx(0.009889, abs=1e-5)
    assert cert["bound"] == pytest.approx(0.04945, abs=1e-4)
    assert cert["ok"]


def test_design_concat_looser_delta_needs_smaller_d():
    tight = design_concat(2, Fraction(1, 5), 0.05, 0.95, 0.05)
    loose = design_concat(2, Fraction(1, 5), 0.05, 0.95, 0.25)
    assert loose["d"] <= tight["d"]
    assert loose["ok"]


def test_design_concat_explicit_inner_rate():
    cert = design_concat(2, Fraction(1, 5), 0.05, 0.95, 0.05, inner_rate=Fraction(2))
    assert cert["c"] * 2 == cert["d"]
    assert cert["ok"]


def test_wilson_interval_contains_point():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.1


def test_equivalence_G1_identity_2x2():
    res = equivalence_G1(LinearCode(f2, ((1, 0), (0, 1))))
    assert res["exact"]
    # kernel survives exactly when the random square factor is invertible
    assert res["probability"] == Fraction(3, 8)
    assert res["probability"] > res["kq"]


def test_equivalence_G1_zero_map():
    # the zero map's kernel is everything; any composition preserves it
    res = equivalence_G1(LinearCode(f2, ((0, 0), (0, 0))))
    assert res["probability"] == 1


def test_equivalence_G2_identity_2x2():
    res = equivalence_G2(LinearCode(f2, ((1, 0), (0, 1))))
    assert res["probability"] == Fraction(3, 8)
    assert res["probability"] > res["kq"]


def test_equivalence_G2_zero_map():
    res = equivalence_G2(LinearCode(f2, ((0, 0), (0, 0))))
    assert res["probability"] == 1


def test_equivalence_exceeds_kq_various():
    for code in (
        LinearCode(f2, ((1, 1), (0, 1))),
        LinearCode(f2, ((1, 1),)),
        LinearCode(f3, ((1,), (2,))),
    ):
        res1 = equivalence_G1(code)
        res2 = equivalence_G2(code)
        assert res1["probability"] > res1["kq"]
        assert res2["probability"] > res2["kq"]


def _equivalence_by_enumeration(F, side, product, invariant):
    """P{invariant(A) = invariant(product(A, M))} over the support of F and
    every side x side matrix M: the walk the closed form replaces."""
    field, count, prob = F.field, F.field.q ** (side * side), Fraction(0)
    for code, p in F.support:
        base, hits = invariant(field, code.generator), 0
        for flat in all_vectors(field, side * side):
            M = tuple(tuple(flat[i * side : (i + 1) * side]) for i in range(side))
            hits += invariant(field, product(field, code.generator, M)) == base
        prob += p * Fraction(hits, count)
    return prob


f4 = field_make(2, 2)
_G4 = single_code_ensemble(LinearCode(f4, ((1, 3), (2, 0))))
_MIXED_RANKS = CodeEnsemble(
    (
        (LinearCode(f3, ((1, 2), (2, 1))), Fraction(1, 3)),
        (LinearCode(f3, ((1, 0), (0, 1))), Fraction(1, 2)),
        (LinearCode(f3, ((0, 0), (0, 0))), Fraction(1, 6)),
    )
)


@pytest.mark.parametrize(
    "F",
    [
        LinearCode(f2, ((1, 1, 0), (0, 1, 1))),
        LinearCode(f2, ((1, 1, 0), (1, 1, 0), (0, 0, 0))),
        LinearCode(f2, ((1, 0, 1), (0, 1, 1), (1, 1, 1))),
        randomize(single_code_ensemble(LinearCode(f2, ((1, 0, 1), (0, 0, 0)))), "both"),
        LinearCode(f3, ((1, 2), (2, 1))),
        LinearCode(f3, ((1, 2, 0),)),
        _MIXED_RANKS,
        _G4,
        LinearCode(f4, ((1, 2), (2, 3))),
        randomize(single_code_ensemble(LinearCode(f4, ((1, 3), (0, 0)))), "both"),
    ],
    ids=[
        "GF2-rank2",
        "GF2-rank1",
        "GF2-rank3",
        "GF2-ensemble",
        "GF3-rank1",
        "GF3-wide",
        "GF3-mixed-ranks",
        "GF4-rank2",
        "GF4-rank1",
        "GF4-ensemble",
    ],
)
def test_equivalence_exact_matches_enumeration(F):
    F = F if isinstance(F, CodeEnsemble) else single_code_ensemble(F)
    kernels = _equivalence_by_enumeration(F, F.m, matmul, _kernel_basis)
    images = _equivalence_by_enumeration(
        F, F.n, lambda field, A, M: matmul(field, M, A), _row_space
    )
    assert equivalence_G1(F)["probability"] == kernels
    assert equivalence_G2(F)["probability"] == images


def test_equivalence_sampled_interval_covers_exact():
    code = LinearCode(f2, ((1, 0), (0, 1)))
    res = equivalence_G1(code, exact=False, samples=2000, seed=1)
    lo, hi = res["interval95"]
    assert lo <= 3 / 8 <= hi
    res = equivalence_G2(code, exact=False, samples=2000, seed=2)
    lo, hi = res["interval95"]
    assert lo <= 3 / 8 <= hi


@pytest.mark.parametrize(
    "fn,F,samples,seed,hits",
    [
        (equivalence_G1, LinearCode(f2, ((1, 1, 0), (0, 1, 1))), 400, 11, 273),
        (equivalence_G2, LinearCode(f2, ((1, 1, 0), (0, 1, 1))), 400, 12, 147),
        (equivalence_G1, LinearCode(f3, ((1, 2), (0, 1), (2, 2))), 300, 13, 184),
        (equivalence_G2, LinearCode(f3, ((1, 2), (0, 1), (2, 2))), 300, 14, 252),
        (equivalence_G1, randomize(_G4, "both"), 300, 15, 216),
        (equivalence_G2, randomize(_G4, "affine"), 300, 16, 204),
    ],
    ids=["G1-GF2", "G2-GF2", "G1-GF3", "G2-GF3", "G1-GF4-ensemble", "G2-GF4-ensemble"],
)
def test_equivalence_sampled_is_fixed_by_the_seed(fn, F, samples, seed, hits):
    # hit counts recorded from the two separate G1/G2 bodies they replace
    res = fn(F, exact=False, samples=samples, seed=seed)
    assert res["probability"] == hits / samples
    assert res["interval95"] == wilson_interval(hits, samples)
    assert not res["exact"]


def test_single_code_lower_bound_values():
    # binary length 2: 4 / binom(2,1) = 2
    assert single_code_lower_bound(2, 2) == 2
    # binary length 4: 16 / binom(4,2) = 8/3
    assert single_code_lower_bound(2, 4) == Fraction(8, 3)
    assert single_code_lower_bound(3, 3) == Fraction(27, 6)
    with pytest.raises(ValueError):
        single_code_lower_bound(2, 0)


def test_single_code_lower_bound_grows_like_sqrt_m():
    # q = 2: the bound is asymptotic to sqrt(pi m / 2), so bound/sqrt(m)
    # should stabilize near sqrt(pi/2)
    ratios = [float(single_code_lower_bound(2, m)) / math.sqrt(m) for m in (50, 200, 800)]
    target = math.sqrt(math.pi / 2)
    assert abs(ratios[-1] - target) < 0.02
    assert abs(ratios[-1] - target) < abs(ratios[0] - target)


def test_check_lower_bound_codes():
    for code in (
        LinearCode(f2, ((1, 1),)),
        LinearCode(f2, ((1, 0), (0, 1))),
        LinearCode(f2, ((0, 0),)),
        LinearCode(f3, ((1, 2),)),
    ):
        res = check_lower_bound(code)
        assert res["ok"]
        assert res["max_alpha"] >= res["bound"]


def test_check_lower_bound_values():
    # both length-2 codes peak at the all-ones type with alpha = 4, above
    # the balanced-composition floor of 2
    res = check_lower_bound(LinearCode(f2, ((1, 0), (0, 1))))
    assert res["max_alpha"] == 4 and res["bound"] == 2
    res = check_lower_bound(LinearCode(f2, ((1, 1),)))
    assert res["max_alpha"] == 4 and res["bound"] == 2
