import itertools
import math
import random
from fractions import Fraction

import pytest

from codespectra.designer import outer_weight_window
from codespectra.errors import EmptySequence, EmptySet, NotStochastic, TooLarge, ZeroMarginal
from codespectra.gf import field_make
from codespectra.macwilliams import Subspace, enumerate_subspace, subspace_from_rows
from codespectra.mrd import gabidulin_ensemble, gabidulin_make, kernel_stats
from codespectra.spectra import (
    CodeEnsemble,
    LinearCode,
    TypeVector,
    all_matrices_ensemble,
    all_vectors,
    alpha,
    alpha_table,
    code_joint_spectrum,
    codewords,
    compose_avg_conditional,
    conditional_at,
    conditional_spectrum,
    ensemble_avg_joint_spectrum,
    enumerate_types,
    image_spectrum,
    kernel_spectrum,
    partition_make,
    point_distribution,
    randomize,
    rates,
    rho,
    set_spectrum,
    single_code_ensemble,
    space_spectrum,
    type_class_size,
    type_of,
    u_set_spectrum,
    zero_type,
)

f2 = field_make(2)
f3 = field_make(3)
f4 = field_make(2, 2)


def test_type_of():
    assert type_of([0, 1, 1, 0], f2).counts == (2, 2)
    assert type_of([0, 0, 0], f2).counts == (3, 0)
    assert type_of([2, 2, 1], f4).counts == (0, 1, 2, 0)
    with pytest.raises(EmptySequence):
        type_of([], f2)
    with pytest.raises(EmptySequence):
        code_joint_spectrum(LinearCode(f2, ((),)))


def test_enumerate_types_counts():
    assert len(enumerate_types(2, f2)) == 3
    assert len(enumerate_types(3, f2)) == 4
    assert len(enumerate_types(2, f3)) == 6
    ts = {t.counts for t in enumerate_types(2, f2)}
    assert ts == {(2, 0), (1, 1), (0, 2)}


def test_type_class_size():
    assert type_class_size(TypeVector((2, 2))) == 6
    assert type_class_size(TypeVector((5, 0))) == 1
    assert type_class_size(TypeVector((1, 1, 1))) == 6


def test_space_spectrum():
    s = space_spectrum(2, f2)
    assert s[TypeVector((2, 0))] == Fraction(1, 4)
    assert s[TypeVector((1, 1))] == Fraction(1, 2)
    assert sum(s.values()) == 1
    s3 = space_spectrum(3, f2)
    assert s3[TypeVector((2, 1))] == Fraction(3, 8)
    # entries equal multinomial / q^n throughout
    for P, v in space_spectrum(3, f3).items():
        assert v == Fraction(type_class_size(P), 27)


def test_set_spectrum():
    s = set_spectrum([(0, 0), (1, 1)], f2)
    assert s == {TypeVector((2, 0)): Fraction(1, 2), TypeVector((0, 2)): Fraction(1, 2)}
    assert set_spectrum([(0, 1), (1, 0)], f2) == {TypeVector((1, 1)): Fraction(1)}
    with pytest.raises(EmptySet):
        set_spectrum([], f2)


def test_u_set_spectrum():
    part = partition_make([(0,), (1,)], 2)
    s = u_set_spectrum([(0, 0), (1, 1)], f2, part)
    d0, d1 = TypeVector((1, 0)), TypeVector((0, 1))
    assert s == {(d0, d0): Fraction(1, 2), (d1, d1): Fraction(1, 2)}


def test_permutation_invariance_of_spectra():
    # permuting the coordinates of a set leaves its spectrum unchanged
    A = [(0, 1, 1), (1, 0, 0), (1, 1, 1)]
    for perm in itertools.permutations(range(3)):
        B = [tuple(x[i] for i in perm) for x in A]
        assert set_spectrum(B, f2) == set_spectrum(A, f2)


def test_code_joint_spectrum():
    ident = LinearCode(f2, ((1,),))
    j = code_joint_spectrum(ident)
    d0, d1 = TypeVector((1, 0)), TypeVector((0, 1))
    assert j == {(d0, d0): Fraction(1, 2), (d1, d1): Fraction(1, 2)}
    repc = LinearCode(f2, ((1, 1),))
    j = code_joint_spectrum(repc)
    assert j[(d0, TypeVector((2, 0)))] == Fraction(1, 2)
    assert j[(d1, TypeVector((0, 2)))] == Fraction(1, 2)
    zeromap = LinearCode(f2, ((0,),))
    j = code_joint_spectrum(zeromap)
    assert j == {(d0, d0): Fraction(1, 2), (d1, d0): Fraction(1, 2)}


def test_joint_x_marginal_is_space_spectrum():
    code = LinearCode(f2, ((1, 0), (1, 1)))
    j = code_joint_spectrum(code)
    marg = {}
    for (P, _), v in j.items():
        marg[P] = marg.get(P, 0) + v
    assert marg == space_spectrum(2, f2)


def test_kernel_image_spectra():
    ident2 = LinearCode(f2, ((1, 0), (0, 1)))
    assert kernel_spectrum(ident2) == {zero_type(2, 2): Fraction(1)}
    zmap = LinearCode(f2, ((0, 0), (0, 0)))
    assert kernel_spectrum(zmap) == space_spectrum(2, f2)
    repc = LinearCode(f2, ((1, 1),))
    assert image_spectrum(repc) == {
        TypeVector((2, 0)): Fraction(1, 2),
        TypeVector((0, 2)): Fraction(1, 2),
    }


def test_product_rule_joint_spectrum():
    # spectrum of a Cartesian product of sets factorizes
    A = [(0,), (1,)]
    B = [(0, 0), (1, 1)]
    prod = [a + b for a in A for b in B]
    sp = set_spectrum(prod, f2)
    sa, sb = set_spectrum(A, f2), set_spectrum(B, f2)
    for P, v in sp.items():
        total = Fraction(0)
        for Pa, va in sa.items():
            for Pb, vb in sb.items():
                if tuple(x + y for x, y in zip(Pa.counts, Pb.counts)) == P.counts:
                    total += va * vb
        assert v == total


def test_alpha_all_matrices():
    E = all_matrices_ensemble(f2, 2, 2)
    for (P, Q), a in alpha_table(E).items():
        if not P.is_zero_type():
            assert a == 1
    # zero input type concentrates on the zero output type
    assert alpha(E, zero_type(2, 2), zero_type(2, 2)) == 4
    assert rho(E) == 0


def test_alpha_single_identity():
    E = single_code_ensemble(LinearCode(f2, ((1,),)))
    d0, d1 = TypeVector((1, 0)), TypeVector((0, 1))
    assert alpha(E, d1, d1) == 2
    assert alpha(E, d1, d0) == 0
    assert rho(E) == pytest.approx(math.log(2))


def test_rho_zero_map():
    E = single_code_ensemble(LinearCode(f2, ((0,),)))
    assert rho(E) == pytest.approx(math.log(2))


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_prop2_point_probability_identity(n, m):
    # |Y|^{-m} alpha(P_x, P_y) equals the enumerated P{F~(x) = y}
    E = all_matrices_ensemble(f2, n, m)
    Et = randomize(E, "both")
    avg = ensemble_avg_joint_spectrum(Et)
    for x in all_vectors(f2, n):
        for y in all_vectors(f2, m):
            a = alpha(Et, type_of(x, f2), type_of(y, f2), avg=avg)
            assert point_distribution(Et, x).get(y, Fraction(0)) == a / 2**m


def test_prop2_identity_single_code():
    code = LinearCode(f2, ((1, 1), (0, 1)))
    Et = randomize(single_code_ensemble(code), "both")
    avg = ensemble_avg_joint_spectrum(Et)
    for x in all_vectors(f2, 2):
        for y in all_vectors(f2, 2):
            a = alpha(Et, type_of(x, f2), type_of(y, f2), avg=avg)
            assert point_distribution(Et, x).get(y, Fraction(0)) == a / 4


def test_conditional_spectrum():
    repc = LinearCode(f2, ((1, 1),))
    cond = conditional_spectrum(code_joint_spectrum(repc))
    d1 = TypeVector((0, 1))
    assert cond[d1] == {TypeVector((0, 2)): Fraction(1)}
    zmap = LinearCode(f2, ((0,),))
    cond = conditional_spectrum(code_joint_spectrum(zmap))
    for P, inner in cond.items():
        assert inner == {TypeVector((1, 0)): Fraction(1)}
    with pytest.raises(ZeroMarginal):
        conditional_at(code_joint_spectrum(repc), TypeVector((5, 5)))


def test_compose_rep_chk_is_zero_map():
    rep = single_code_ensemble(LinearCode(f2, ((1, 1),)))
    chk = single_code_ensemble(LinearCode(f2, ((1,), (1,))))
    cond = compose_avg_conditional(rep, chk)
    zmap = LinearCode(f2, ((0,),))
    ref = conditional_spectrum(code_joint_spectrum(zmap))
    assert cond == ref


def test_compose_with_all_matrices_gives_space_conditional():
    F = single_code_ensemble(LinearCode(f2, ((1, 0), (1, 1))))
    G = all_matrices_ensemble(f2, 2, 2)
    cond = compose_avg_conditional(F, G)
    space = space_spectrum(2, f2)
    for P, inner in cond.items():
        if not P.is_zero_type():
            assert inner == space


def test_compose_matches_direct_enumeration():
    # Chapman-Kolmogorov composition equals the enumerated composed ensemble
    F = single_code_ensemble(LinearCode(f2, ((1, 1),)))
    G = single_code_ensemble(LinearCode(f2, ((1, 0), (1, 1))))
    composed = compose_avg_conditional(F, G)
    from codespectra.linalg import matmul

    support = []
    for perm in itertools.permutations(range(2)):
        P = tuple(tuple(1 if perm[i] == j else 0 for j in range(2)) for i in range(2))
        gen = matmul(f2, matmul(f2, ((1, 1),), P), ((1, 0), (1, 1)))
        support.append((LinearCode(f2, gen), Fraction(1, 2)))
    direct = conditional_spectrum(
        ensemble_avg_joint_spectrum(CodeEnsemble(support=tuple(support)))
    )
    assert composed == direct


def test_randomize_affine_uniform():
    E = single_code_ensemble(LinearCode(f2, ((1, 0), (0, 1))))
    Ea = randomize(E, "affine")
    for x in all_vectors(f2, 2):
        pd = point_distribution(Ea, x)
        assert all(v == Fraction(1, 4) for v in pd.values()) and len(pd) == 4


def _point_distribution_by_fraction_sum(E, x):
    out = {}
    for code, p in E.support:
        y = code.apply(x)
        out[y] = out.get(y, 0) + p
    return out


def test_point_distribution_equals_fraction_sum():
    mixed = CodeEnsemble(
        support=(
            (LinearCode(f3, ((1, 2), (0, 1))), Fraction(1, 2)),
            (LinearCode(f3, ((2, 0), (1, 1))), Fraction(1, 3)),
            (LinearCode(f3, ((1, 2), (0, 1)), (1, 0)), Fraction(1, 6)),
        )
    )
    ensembles = [
        single_code_ensemble(LinearCode(f3, ((1, 2), (2, 2)))),
        mixed,
        randomize(mixed, "affine"),
        gabidulin_ensemble(gabidulin_make(2, 3, 3, 2)),
    ]
    for E in ensembles:
        for x in all_vectors(E.field, E.n):
            got = point_distribution(E, x)
            want = _point_distribution_by_fraction_sum(E, x)
            assert list(got.items()) == list(want.items())
            assert all(type(v) is Fraction for v in got.values())


def test_randomize_in_expands_permutations():
    E = single_code_ensemble(LinearCode(f2, ((1, 1), (0, 1))))
    Ei = randomize(E, "in")
    assert sum(p for _, p in Ei.support) == 1
    assert len(Ei.support) == 2


def test_rates():
    ident3 = LinearCode(f2, tuple(tuple(1 if i == j else 0 for j in range(3)) for i in range(3)))
    rs, rc, r = rates(ident3)
    assert rs == pytest.approx(math.log(2))
    assert rc == pytest.approx(math.log(2))
    assert r == 1
    rep = LinearCode(f2, ((1, 1),))
    rs, rc, r = rates(rep)
    assert rs == pytest.approx(math.log(2))
    assert rc == pytest.approx(math.log(2) / 2)
    assert r == Fraction(1, 2)
    assert rates(LinearCode(f2, ((0,),)))[0] == 0


def test_spectrum_serialization_roundtrip():
    from codespectra.serialize import spectrum_from_json, spectrum_to_json

    s = space_spectrum(3, f3)
    obj = spectrum_to_json(s, 3, 3)
    counts = [e["type"] for e in obj["entries"]]
    assert counts == sorted(counts)
    assert spectrum_from_json(obj) == s


@pytest.mark.parametrize(
    "p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (3, 3)]
)
def test_codewords_match_apply(p, r):
    # GF(4), GF(8), GF(9), GF(16) and GF(27) step by ((c + 1) - c) A_i, which is
    # not A_i there; characteristic 2 adds rows by XOR
    field = field_make(p, r)
    q = field.q
    rng = random.Random(q)
    n = 3 if q <= 4 else 2
    rows = [tuple(rng.randrange(q) for _ in range(3)) for _ in range(n)]
    rows[1] = (0, 0, 0)
    offset = tuple(rng.randrange(q) for _ in range(3))
    codes = [
        LinearCode(field, tuple(rows[:1])),
        LinearCode(field, tuple(rows)),
        LinearCode(field, tuple(rows), offset),
    ]
    for f in codes:
        assert list(codewords(f)) == [(x, f.apply(x)) for x in all_vectors(field, f.n)]


def test_enumerate_subspace_dim_zero():
    assert enumerate_subspace(Subspace(f3, 4, ())) == [(0, 0, 0, 0)]


_code = LinearCode(f3, ((1, 2, 0), (0, 1, 1)))
_ENUMERATIONS = {
    "code_joint_spectrum": lambda limit: code_joint_spectrum(_code, limit),
    "kernel_spectrum": lambda limit: kernel_spectrum(_code, limit),
    "image_spectrum": lambda limit: image_spectrum(_code, limit),
    "enumerate_subspace": lambda limit: enumerate_subspace(
        subspace_from_rows(f3, _code.generator), limit
    ),
    "outer_weight_window": lambda limit: outer_weight_window(_code, limit),
    "kernel_stats": lambda limit: kernel_stats(single_code_ensemble(_code), limit),
}


@pytest.mark.parametrize("name", sorted(_ENUMERATIONS))
def test_enumeration_limit_is_q_to_the_n(name):
    run = _ENUMERATIONS[name]
    with pytest.raises(TooLarge):
        run(3**2 - 1)
    assert run(3**2)


def test_ensemble_probabilities_must_sum_to_one():
    code = LinearCode(f2, ((1,),))
    with pytest.raises(NotStochastic):
        CodeEnsemble(support=((code, Fraction(1, 2)), (code, Fraction(1, 3))))


def _weighted_sum_of_spectra(E):
    out = {}
    for code, p in E.support:
        for key, mass in code_joint_spectrum(code).items():
            out[key] = out.get(key, 0) + p * mass
    return {k: v for k, v in out.items() if v != 0}


@pytest.mark.parametrize(
    "field,n,m",
    [(f2, 2, 3), (f2, 3, 2), (f3, 2, 2), (f4, 1, 2)],
    ids=["GF2-2x3", "GF2-3x2", "GF3-2x2", "GF4-1x2"],
)
def test_ensemble_average_equals_weighted_sum(field, n, m):
    E = all_matrices_ensemble(field, n, m)
    for ensemble in (E, randomize(E, "both")):
        assert ensemble_avg_joint_spectrum(ensemble) == _weighted_sum_of_spectra(ensemble)


def test_ensemble_average_mixed_denominators_and_zero_member():
    zero = LinearCode(f3, ((0, 0), (0, 0)))
    first = LinearCode(f3, ((1, 0), (0, 0)))  # x -> (x0, 0)
    second = LinearCode(f3, ((0, 0), (2, 0)))  # x -> (2 x1, 0)
    identity = LinearCode(f3, ((1, 0), (0, 1)))
    E = CodeEnsemble(
        support=(
            (zero, Fraction(1, 2)),
            (identity, Fraction(0)),
            (first, Fraction(1, 3)),
            (second, Fraction(1, 6)),
        )
    )
    avg = ensemble_avg_joint_spectrum(E)
    assert avg == _weighted_sum_of_spectra(E)
    assert sum(avg.values()) == 1
    # only the zero-probability identity reaches an output without a zero
    both = TypeVector((0, 1, 1))
    assert (both, both) in code_joint_spectrum(identity)
    assert all(Q.counts[0] > 0 for _, Q in avg)
    assert all(mass != 0 for mass in avg.values())


def test_draw_is_exact():
    # masses 1/3 and 2/3: the member is chosen by one randrange(3)
    a, b = LinearCode(f2, ((0,),)), LinearCode(f2, ((1,),))
    E = CodeEnsemble(support=((a, Fraction(1, 3)), (b, Fraction(2, 3))))
    for seed in range(40):
        want = a if random.Random(seed).randrange(3) == 0 else b
        assert E.draw(seed) == want, seed
    # mixed denominators over the lcm 6, and a zero-probability member
    c0, c1, c2, c3 = (LinearCode(f3, (row,)) for row in ((0, 0), (1, 0), (2, 0), (1, 1)))
    F = CodeEnsemble(
        support=((c0, Fraction(1, 6)), (c1, Fraction(0)), (c2, Fraction(1, 2)), (c3, Fraction(1, 3)))
    )
    for seed in range(40):
        u = random.Random(seed).randrange(6)
        assert F.draw(seed) == (c0 if u < 1 else c2 if u < 4 else c3), seed
