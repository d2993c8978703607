import itertools
import json
import math
import operator
import pickle
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from codespectra import spectra
from codespectra.designer import outer_weight_window
from codespectra.errors import (
    DimensionMismatch,
    DomainError,
    EmptySequence,
    EmptySet,
    NotStochastic,
    TooLarge,
    ZeroMarginal,
)
from codespectra.gf import field_make
from codespectra.linalg import rank as linalg_rank
from codespectra.macwilliams import Subspace, enumerate_subspace, subspace_from_rows
from codespectra.mrd import gabidulin_ensemble, gabidulin_make
from codespectra.spectra import (
    CodeEnsemble,
    LinearCode,
    TypeVector,
    all_matrices_ensemble,
    all_vectors,
    alpha,
    alpha_table,
    _type_counter,
    _types,
    code_joint_spectrum,
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


@pytest.mark.parametrize("n", [0, -1])
def test_all_matrices_ensemble_rejects_no_columns(n):
    # a row split of width 0 used to fail inside the span build with a ValueError
    with pytest.raises(DomainError, match="n, m >= 1"):
        all_matrices_ensemble(f2, 2, n)


@pytest.mark.parametrize("n", [0, -1])
def test_all_matrices_ensemble_rejects_no_rows(n):
    # an empty offset used to fail inside the span build with an IndexError
    with pytest.raises(DomainError, match="n, m >= 1"):
        all_matrices_ensemble(f3, n, 2)


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


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_conditional_at_is_one_row_of_the_table(direction):
    # zero-mass entries inside rows, and a row whose entries are all zero
    E = randomize(all_matrices_ensemble(f3, 1, 2), "in")
    J = dict(ensemble_avg_joint_spectrum(E))
    P1, P2 = TypeVector((0, 1, 0)), TypeVector((0, 0, 1))
    Q0, Q1 = TypeVector((2, 0, 0)), TypeVector((0, 1, 1))
    J[P1, Q1] = Fraction(0)  # a nonzero pair zeroed: both rows keep other mass
    J[TypeVector((1, 0, 0)), Q1] = Fraction(0)
    dead_in, dead_out = TypeVector((3, 0, 0)), TypeVector((0, 3, 0))
    J[dead_in, dead_out] = Fraction(0)
    table = conditional_spectrum(J, direction)
    axis = 0 if direction == "forward" else 1
    givens = list(dict.fromkeys(key[axis] for key in J))
    assert {P1, P2, Q0, Q1} & set(givens)
    for given in givens:
        if given in (dead_in, dead_out):
            with pytest.raises(ZeroMarginal):
                conditional_at(J, given, direction)
            assert given not in table
            continue
        row = conditional_at(J, given, direction)
        assert list(row.items()) == list(table[given].items())
        assert sum(row.values()) == 1
    with pytest.raises(ZeroMarginal):
        conditional_at(J, TypeVector((1, 1, 1)), direction)


@pytest.mark.parametrize("direction", ["fwd", "Forward", None, 0])
def test_unknown_direction_is_rejected(direction):
    J = code_joint_spectrum(LinearCode(f2, ((1, 1),)))
    with pytest.raises(DomainError):
        conditional_spectrum(J, direction)
    with pytest.raises(DomainError):
        conditional_at(J, TypeVector((0, 1)), direction)


def _joint_marginal_by_fraction_sum(J, axis):
    out = {}
    for (P, Q), mass in J.items():
        key = P if axis == 0 else Q
        out[key] = out.get(key, Fraction(0)) + mass
    return out


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_joint_marginal_matches_fraction_sum(p, r):
    # integer numerators over the lcm: the same values, Fraction types and key
    # order as summing Fraction by Fraction, on both axes
    field = field_make(p, r)
    q = field.q
    rng = random.Random(q)
    n = 3 if q <= 4 else 2
    rows = tuple(tuple(rng.randrange(q) for _ in range(n + 1)) for _ in range(n))
    code = LinearCode(field, rows)
    shifted = LinearCode(field, rows, tuple(rng.randrange(q) for _ in range(n + 1)))
    zero = LinearCode(field, ((0,) * (n + 1),) * n)
    # weights over 3, 6 and 2 mix with the q-power denominators of the spectra
    E = CodeEnsemble(((code, Fraction(1, 3)), (shifted, Fraction(1, 6)), (zero, Fraction(1, 2))))
    mixed = {key: Fraction(i % 4, 7 * (i % 5 + 1)) for i, key in enumerate(code_joint_spectrum(code))}
    for J in (code_joint_spectrum(code), ensemble_avg_joint_spectrum(E), mixed, {}):
        for axis in (0, 1):
            got = spectra.joint_marginal(J, axis)
            assert list(got.items()) == list(_joint_marginal_by_fraction_sum(J, axis).items())
            assert all(type(v) is Fraction for v in got.values())


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


def _brute_counts(f, blocks, field):
    """Counter of concatenated per-block types of f.apply(x), all_vectors order."""
    return Counter(
        tuple(c for b in blocks for c in type_of([y[j] for j in b], field).counts)
        for y in map(f.apply, all_vectors(field, f.n))
    )


@pytest.mark.parametrize(
    "p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (3, 3), (257, 1)]
)
def test_codewords_match_apply(p, r):
    # The packed walk against f.apply and type_of over all_vectors: joint
    # spectra (with their key order), images, kernels and partitioned counts.
    # GF(27) and GF(257) have coordinates wider than one key table; odd p
    # needs the SWAR fold and the table's fold mod p once offsets are added.
    field = field_make(p, r)
    q = field.q
    rng = random.Random(q)
    n = 1 if q > 27 else 3 if q <= 4 else 2
    for m in (1, 3, 5):
        rows = [tuple(rng.randrange(q) for _ in range(m)) for _ in range(n)]
        if n > 1:
            rows[-1] = (0,) * m
        offset = tuple(rng.randrange(q) for _ in range(m))
        coords = list(range(m))
        rng.shuffle(coords)
        partition = partition_make([coords[0::2], coords[1::2]] if m > 1 else [coords], m)
        for f in (LinearCode(field, tuple(rows)), LinearCode(field, tuple(rows), offset)):
            inputs = list(all_vectors(field, n))
            joint = Counter((type_of(x, field), type_of(f.apply(x), field)) for x in inputs)
            want = {key: Fraction(c, q**n) for key, c in joint.items()}
            assert list(code_joint_spectrum(f).items()) == list(want.items())
            assert image_spectrum(f) == set_spectrum({f.apply(x) for x in inputs}, field)
            if f.offset is None:
                kernel = [x for x in inputs if not any(f.apply(x))]
                assert kernel_spectrum(f) == set_spectrum(kernel, field)
            for blocks in ((range(m),), partition):
                counts = next(_type_counter(field, blocks)([(rows, f.offset)]))
                got = _types(counts, q, blocks)
                got = [(tuple(c for P in types for c in P.counts), c) for types, c in got]
                assert got == list(_brute_counts(f, blocks, field).items())
        # no rows: the one member is the offset
        got = next(_type_counter(field, partition)([((), offset)]))
        assert list(_types(got, q, partition)) == [
            (tuple(type_of([offset[j] for j in b], field) for b in partition), 1)
        ]


def test_enumerate_subspace_dim_zero():
    assert enumerate_subspace(Subspace(f3, 4, ())) == [(0, 0, 0, 0)]


_code = LinearCode(f3, ((1, 2, 0), (0, 1, 1)))
_rank_two = LinearCode(f3, ((1, 2, 0), (0, 1, 1), (1, 0, 1)))
_two_members = randomize(single_code_ensemble(_code), "in")
# ENUM_LIMIT bounds the side that is enumerated: q^n inputs for the joint
# spectrum, q^rank image points, q^(n - rank) kernel members.
_ENUMERATIONS = {
    "code_joint_spectrum": (lambda: code_joint_spectrum(_code), 3**2),
    "kernel_spectrum": (lambda: kernel_spectrum(_rank_two), 3 ** (3 - 2)),
    "image_spectrum": (lambda: image_spectrum(_rank_two), 3**2),
    "enumerate_subspace": (
        lambda: enumerate_subspace(subspace_from_rows(f3, _code.generator)),
        3**2,
    ),
    "outer_weight_window": (lambda: outer_weight_window(_code), 3**2),
    "ensemble_avg_joint_spectrum": (lambda: ensemble_avg_joint_spectrum(_two_members), 3**2),
}


@pytest.mark.parametrize("name", sorted(_ENUMERATIONS))
def test_enumeration_limit_is_q_to_the_n(name, monkeypatch):
    run, needed = _ENUMERATIONS[name]
    monkeypatch.setattr(spectra, "ENUM_LIMIT", needed - 1)
    with pytest.raises(TooLarge) as exc:
        run()
    assert (exc.value.needed, exc.value.limit) == (needed, needed - 1)
    monkeypatch.setattr(spectra, "ENUM_LIMIT", needed)
    assert run()


def _block_diagonal(blocks):
    n, m = sum(len(b) for b in blocks), sum(len(b[0]) for b in blocks)
    rows, col = [], 0
    for b in blocks:
        for row in b:
            rows.append((0,) * col + tuple(row) + (0,) * (m - col - len(row)))
        col += len(b[0])
    assert len(rows) == n
    return LinearCode(f2, tuple(rows))


def _product_spectrum(spectra):
    """Spectrum of the concatenations of independent parts: types add."""
    out = {TypeVector((0, 0)): Fraction(1)}
    for spec in spectra:
        nxt = {}
        for P, a in out.items():
            for Q, b in spec.items():
                key = TypeVector(tuple(map(operator.add, P.counts, Q.counts)))
                nxt[key] = nxt.get(key, 0) + a * b
        out = nxt
    return out


def _random_block(rng, n, m, rank):
    """Random n x m binary matrix of the given rank: a sum of rank outer products."""
    while True:
        u = [[rng.randrange(2) for _ in range(n)] for _ in range(rank)]
        v = [[rng.randrange(2) for _ in range(m)] for _ in range(rank)]
        block = tuple(
            tuple(sum(u[t][i] * v[t][j] for t in range(rank)) % 2 for j in range(m))
            for i in range(n)
        )
        if linalg_rank(f2, block) == rank:
            return block


def test_kernel_at_rank_36_of_n_40_walks_its_basis():
    # 2^40 inputs, 2^4 kernel members: four 10 x 9 blocks of rank 9
    rng = random.Random(40)
    blocks = [_random_block(rng, 10, 9, 9) for _ in range(4)]
    parts = []
    for b in blocks:
        small = LinearCode(f2, b)
        parts.append(set_spectrum([x for x in all_vectors(f2, 10) if not any(small.apply(x))], f2))
    start = time.perf_counter()
    got = kernel_spectrum(_block_diagonal(blocks))
    assert time.perf_counter() - start < 1
    assert got == _product_spectrum(parts)
    assert sum(got.values()) == 1


def test_image_at_rank_4_of_n_40_walks_its_basis():
    # 2^40 inputs, 2^4 image points: four 10 x 3 blocks of rank 1, affine
    rng = random.Random(4)
    blocks = [_random_block(rng, 10, 3, 1) for _ in range(4)]
    offset = tuple(rng.randrange(2) for _ in range(12))
    parts = []
    for i, b in enumerate(blocks):
        small = LinearCode(f2, b, offset[3 * i : 3 * i + 3])
        parts.append(set_spectrum({small.apply(x) for x in all_vectors(f2, 10)}, f2))
    code = _block_diagonal(blocks)
    start = time.perf_counter()
    got = image_spectrum(LinearCode(f2, code.generator, offset))
    assert time.perf_counter() - start < 1
    assert got == _product_spectrum(parts)
    assert sum(got.values()) == 1


def test_ensemble_probabilities_must_sum_to_one():
    code = LinearCode(f2, ((1,),))
    with pytest.raises(NotStochastic):
        CodeEnsemble(support=((code, Fraction(1, 2)), (code, Fraction(1, 3))))


def test_ragged_generator_and_offset_length_are_rejected():
    with pytest.raises(DimensionMismatch):
        LinearCode(f2, ((1, 0), (1,)))
    with pytest.raises(DimensionMismatch):
        LinearCode(f2, ())  # no rows
    with pytest.raises(DimensionMismatch):
        LinearCode(f2, ((1, 0), (0, 1)), (1,))
    with pytest.raises(DimensionMismatch):
        LinearCode(f2, ((1, 0), (0, 1)), (1, 0, 1))
    assert LinearCode(f2, ((1, 0), (0, 1)), (1, 0)).apply((0, 0)) == (1, 0)


def test_ensemble_members_of_different_shapes_are_rejected():
    two_by_two = LinearCode(f2, ((1, 0), (0, 1)))
    half = Fraction(1, 2)
    for other in (
        LinearCode(f2, ((1, 0), (0, 1), (1, 1))),  # n = 3
        LinearCode(f2, ((1, 0, 1), (0, 1, 1))),  # m = 3
        LinearCode(f3, ((1, 0), (0, 1))),  # GF(3)
    ):
        with pytest.raises(DimensionMismatch):
            CodeEnsemble(support=((two_by_two, half), (other, half)))


def _reference_average(E):
    """E[S(P, Q)] by f.apply and type_of over all_vectors, with Fraction
    weights, keyed in first-seen order over the support, then the inputs."""
    out = {}
    for code, p in E.support:
        field = code.field
        for x in all_vectors(field, code.n):
            key = (type_of(x, field), type_of(code.apply(x), field))
            out[key] = out.get(key, 0) + p / field.q**code.n
    return {key: mass for key, mass in out.items() if mass}


def _permuted(code, rows, cols, offset=None):
    """code with its rows taken in the order rows and its columns (and
    offset) in the order cols; offset replaces a missing offset."""
    gen = tuple(tuple(code.generator[i][j] for j in cols) for i in rows)
    base = code.offset if code.offset is not None else offset
    return LinearCode(code.field, gen, None if base is None else tuple(base[j] for j in cols))


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_ensemble_average_matches_apply_reference(p, r):
    # Linear and affine members, zero-probability members and mixed
    # denominators, against an oracle that shares nothing with the walk.
    # Permuted copies of members: the walk merges those it finds in one
    # class.  A copy with only its rows permuted always shares its code's
    # class; these make a class led by a zero-probability member and a class
    # of zero-probability members only.  Copies with their columns permuted
    # too (an affine one, whose offset moves with the columns, and a linear
    # one given a zero offset in place of None) may or may not be merged.
    field = field_make(p, r)
    q = field.q
    rng = random.Random(q)
    for n, m in ((1, 1), (2, 3), (1, 4), (3, 2)) if q <= 5 else ((1, 2), (2, 1), (2, 2)):
        codes = []
        for i in range(7):
            gen = tuple(tuple(rng.randrange(q) for _ in range(m)) for _ in range(n))
            offset = None if i % 3 == 0 else tuple(rng.randrange(q) for _ in range(m))
            codes.append(LinearCode(field, gen, offset))
        def shuffled(k):
            order = list(range(k))
            rng.shuffle(order)
            return order

        copies = [
            _permuted(codes[0], shuffled(n), range(m)),
            _permuted(codes[1], shuffled(n), shuffled(m)),
            _permuted(codes[3], shuffled(n), range(m)),
            _permuted(codes[0], shuffled(n), shuffled(m), (0,) * m),
        ]
        for i, copy in ((0, copies[0]), (3, copies[2])):
            assert spectra._permutation_class(copy) == spectra._permutation_class(codes[i])
        weights = [Fraction(w, 24) for w in (0, 3, 1, 0, 2, 5, 1)]
        weights += [Fraction(1, 8), Fraction(1, 6), Fraction(0), Fraction(5, 24)]
        E = CodeEnsemble(tuple(zip(codes + copies, weights)))
        avg = ensemble_avg_joint_spectrum(E)
        ref = _reference_average(E)
        assert list(avg.items()) == list(ref.items())
        assert sum(avg.values()) == 1
        # copies of one code with their rows permuted are one class
        single = [_permuted(codes[1], shuffled(n), range(m)) for _ in range(6)]
        E = CodeEnsemble(tuple((code, Fraction(1, 6)) for code in single))
        assert len({spectra._permutation_class(code) for code in single}) == 1
        assert list(ensemble_avg_joint_spectrum(E).items()) == list(_reference_average(E).items())


@pytest.mark.parametrize("field,n,m", [(f2, 2, 3), (f3, 2, 2)], ids=["GF2-2x3", "GF3-2x2"])
def test_ensemble_average_wider_than_one_group(field, n, m):
    # every member's slot holds at least its m outputs, so the stacked walk
    # splits this support into several groups
    E = randomize(all_matrices_ensemble(field, n, m), "affine")
    assert len(E.support) * m > spectra.GROUP_BITS
    avg = ensemble_avg_joint_spectrum(E)
    ref = _reference_average(E)
    assert avg == ref
    assert list(avg) == list(ref)


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


# ---------------------------------------------------------------------------
# TypeVector as a tuple, and the explicit-set layer against per-vector loops

SMALL_FIELDS = [field_make(*pr) for pr in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]
_ids = [f"GF{f.q}" for f in SMALL_FIELDS]


def _per_vector_spectrum(A, field, blocks=None):
    """Test-local reference: each vector typed by a counting loop, keys in
    first-seen order (per-block tuples when blocks are given)."""
    counts = {}
    for x in A:
        key = []
        for block in blocks or [range(len(x))]:
            c = [0] * field.q
            for i in block:
                c[x[i]] += 1
            key.append(TypeVector(tuple(c)))
        key = key[0] if blocks is None else tuple(key)
        counts[key] = counts.get(key, 0) + 1
    return [(key, Fraction(c, len(A))) for key, c in counts.items()]


@st.composite
def _sets_and_partitions(draw):
    field = draw(st.sampled_from(SMALL_FIELDS))
    n = draw(st.integers(1, 5))
    vector = st.tuples(*[st.integers(0, field.q - 1)] * n)
    A = draw(st.lists(vector, min_size=1, max_size=40))
    coords = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else [])
    bounds = [0, *cuts, n]
    return field, A, [coords[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=200, deadline=None)
@given(case=_sets_and_partitions())
def test_set_spectra_match_a_per_vector_loop(case):
    field, A, blocks = case
    assert list(set_spectrum(A, field).items()) == _per_vector_spectrum(A, field)
    want = _per_vector_spectrum(A, field, partition_make(blocks, len(A[0])))
    assert list(u_set_spectrum(A, field, blocks).items()) == want
    assert [type_of(x, field) for x in A] == [P for x in A for P, _ in _per_vector_spectrum([x], field)]


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=_ids)
def test_symbols_outside_the_field_raise_domain_error(field):
    q = field.q
    for bad in (-1, q, q + 3):
        vec = (0, bad, q - 1)
        with pytest.raises(DomainError):
            type_of(vec, field)
        with pytest.raises(DomainError):
            set_spectrum([(0, 0, 0), vec], field)
        for blocks in ([(0, 2), (1,)], [(0, 1), (2,)], [(0, 1, 2)]):
            with pytest.raises(DomainError):
                u_set_spectrum([(0, 0, 0), vec], field, blocks)
    # the empty vector keeps its own error
    with pytest.raises(EmptySequence):
        set_spectrum([()], field)


def test_type_vector_is_the_tuple_of_its_counts():
    P = TypeVector((1, 2))
    assert P == ((1, 2),) and hash(P) == hash(((1, 2),))
    assert {P: 1}[((1, 2),)] == 1
    assert len(P) == 1 and P[0] == P.counts == (1, 2)
    assert TypeVector(counts=(1, 2)) == P and (P.n, P.q, P.prob(1)) == (3, 2, Fraction(2, 3))
    types = [TypeVector((2, 0)), TypeVector((0, 2)), TypeVector((1, 1))]
    assert sorted(types) == [TypeVector((0, 2)), TypeVector((1, 1)), TypeVector((2, 0))]
    assert json.dumps(P) == "[[1, 2]]"
    assert pickle.loads(pickle.dumps(P)) == P
    assert repr(P) == "TypeVector(counts=(1, 2))"
    assert repr(set_spectrum([(0, 1), (1, 1)], f2)) == (
        "{TypeVector(counts=(1, 1)): Fraction(1, 2), TypeVector(counts=(0, 2)): Fraction(1, 2)}"
    )
    assert repr(code_joint_spectrum(LinearCode(f2, ((1,),)))) == (
        "{(TypeVector(counts=(1, 0)), TypeVector(counts=(1, 0))): Fraction(1, 2),"
        " (TypeVector(counts=(0, 1)), TypeVector(counts=(0, 1))): Fraction(1, 2)}"
    )


def _is_type(key):
    return type(key) is TypeVector


def _is_types(key, blocks):
    return type(key) is tuple and len(key) == blocks and all(map(_is_type, key))


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=_ids)
def test_every_spectrum_key_is_a_type_vector_or_a_tuple_of_them(field):
    # no spectrum mixes a TypeVector with the plain tuple (counts,) it equals
    rng = random.Random(field.q)
    gen = tuple(tuple(rng.randrange(field.q) for _ in range(3)) for _ in range(2))
    code = LinearCode(field, gen)
    members = enumerate_subspace(subspace_from_rows(field, gen, 3))
    for spec in (kernel_spectrum(code), image_spectrum(code), set_spectrum(members, field)):
        assert spec and all(map(_is_type, spec))
    joints = [code_joint_spectrum(code), ensemble_avg_joint_spectrum(all_matrices_ensemble(field, 1, 2))]
    for spec in joints:
        assert spec and all(_is_types(key, 2) for key in spec)
    for blocks in ([(0, 1, 2)], [(0, 2), (1,)]):
        spec = u_set_spectrum(members, field, blocks)
        assert spec and all(_is_types(key, len(blocks)) for key in spec)


# m < n, so the kernels are nontrivial and each image has its own block base
_SHAPES = {"gf2": (field_make(2), 8, 6), "gf9": (field_make(3, 2), 3, 2)}
_SPECTRA = (code_joint_spectrum, kernel_spectrum, image_spectrum)


def _spectrum_of(spectrum, field, n, m):
    rng = random.Random(n * m)
    code = LinearCode(field, tuple(tuple(rng.randrange(field.q) for _ in range(m)) for _ in range(n)))
    return repr(spectrum(code))


def test_decode_tables_kept_across_shapes_give_fresh_interpreter_outputs():
    # GF(2) n = 8, then GF(9) n = 3, then GF(2) n = 8 again with the tables
    # kept, each spectrum against one decoded from empty tables
    order = [(spectrum, _SHAPES[shape]) for shape in ("gf2", "gf9", "gf2") for spectrum in _SPECTRA]
    spectra._decoder.cache_clear()
    kept = [_spectrum_of(spectrum, *shape) for spectrum, shape in order]
    fresh = []
    for spectrum, shape in order:
        spectra._decoder.cache_clear()
        fresh.append(_spectrum_of(spectrum, *shape))
    assert kept == fresh
