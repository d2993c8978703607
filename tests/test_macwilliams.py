import itertools
import random
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from codespectra.genfun import GenPoly, genfun_of_set
from codespectra.gf import field_make
from codespectra.macwilliams import (
    Subspace,
    _mw_kernel,
    enumerate_subspace,
    joint_transpose_reference,
    mw_joint_transpose,
    mw_transform,
    orthogonal,
    random_subspace,
    subspace_from_rows,
)
from codespectra.linalg import matvec
from codespectra.spectra import _span_ensemble, all_matrices_ensemble, partition_make

f2 = field_make(2)
f3 = field_make(3)
f4 = field_make(2, 2)
f5 = field_make(5)
f7 = field_make(7)
f8 = field_make(2, 3)
f9 = field_make(3, 2)
# every small field, each with a length whose space is cheap to enumerate
SMALL_FIELDS = [(f2, 6), (f3, 4), (f4, 3), (f5, 3), (f7, 3), (f8, 3), (f9, 3)]


@st.composite
def _subspaces(draw):
    """A subspace of GF(q)^n, n up to its field's SMALL_FIELDS length, spanned
    by up to n random rows."""
    field, n_max = draw(st.sampled_from(SMALL_FIELDS))
    n = draw(st.integers(1, n_max))
    row = st.tuples(*[st.integers(0, field.q - 1)] * n)
    return subspace_from_rows(field, draw(st.lists(row, max_size=n)), n)


def test_orthogonal_examples():
    A = subspace_from_rows(f2, [(1, 1)])
    assert set(enumerate_subspace(orthogonal(A))) == {(0, 0), (1, 1)}
    full = subspace_from_rows(f2, [(1, 0), (0, 1)])
    assert orthogonal(full).dim == 0
    zero = Subspace(f2, 2, ())
    assert orthogonal(zero).dim == 2


@settings(max_examples=100, deadline=None)
@given(A=_subspaces())
def test_orthogonal_dims(A):
    # |A| |A⊥| = q^n, counting the members of both
    B = orthogonal(A)
    assert A.dim + B.dim == A.n
    assert len(enumerate_subspace(A)) * len(enumerate_subspace(B)) == A.field.q**A.n


def test_orthogonality_actual():
    A = random_subspace(f4, 4, 99)
    B = orthogonal(A)
    for x in enumerate_subspace(A):
        for y in enumerate_subspace(B):
            acc = 0
            for a, b in zip(x, y):
                acc = f4.add(acc, f4.mul(a, b))
            assert acc == 0


def test_mw_transform_self_dual():
    A = subspace_from_rows(f2, [(1, 1)])
    assert mw_transform(A) == genfun_of_set(enumerate_subspace(A), f2)


def test_mw_transform_extremes():
    zero = Subspace(f2, 2, ())
    full_space = list(itertools.product(range(2), repeat=2))
    assert mw_transform(zero) == genfun_of_set(full_space, f2)
    full = subspace_from_rows(f2, [(1, 0), (0, 1)])
    assert mw_transform(full) == genfun_of_set([(0, 0)], f2)


def test_mw_transform_gf4_line():
    A = subspace_from_rows(f4, [(1, 2)])
    ref = genfun_of_set(enumerate_subspace(orthogonal(A)), f4)
    assert mw_transform(A) == ref


@pytest.mark.parametrize(
    "field,n,count",
    [(f2, 6, 25), (f3, 4, 25), (f4, 3, 15), (f5, 3, 15), (f7, 3, 10), (f8, 3, 10), (f9, 3, 10)],
)
def test_mw_transform_random_subspaces(field, n, count):
    for seed in range(count):
        A = random_subspace(field, n, seed)
        ref = genfun_of_set(enumerate_subspace(orthogonal(A)), field)
        assert mw_transform(A) == ref


def test_mw_transform_partitioned():
    from codespectra.genfun import genfun_from_uspectrum
    from codespectra.spectra import u_set_spectrum

    rng = random.Random(17)
    for seed in range(10):
        n = 4
        A = random_subspace(f2, n, seed + 500)
        blocks = [(0, 2), (1, 3)] if rng.random() < 0.5 else [(0,), (1, 2, 3)]
        part = partition_make(blocks, n)
        got = mw_transform(A, partition=part)
        want = genfun_from_uspectrum(
            u_set_spectrum(enumerate_subspace(orthogonal(A)), f2, part)
        )
        assert got == want
    # one partitioned case on every small field
    for field, n in SMALL_FIELDS:
        A = random_subspace(field, n, 41)
        dual_members = enumerate_subspace(orthogonal(A))
        assert A.size * len(dual_members) == field.q**n
        part = partition_make([range(0, n, 2), range(1, n, 2)], n)
        want = genfun_from_uspectrum(u_set_spectrum(dual_members, field, part))
        assert mw_transform(A, partition=part) == want


@settings(max_examples=100, deadline=None)
@given(A=_subspaces())
def test_mw_transform_bidual_roundtrip(A):
    # the MacWilliams involution: a subspace is negation-closed, so
    # transforming its dual returns its own genfun
    assert mw_transform(orthogonal(A)) == genfun_of_set(enumerate_subspace(A), A.field)


def test_mw_transforms_do_not_recurse_per_symbol():
    # blocks longer than the recursion limit: the all-ones line of GF(2)^n,
    # whose dual holds the even-weight words, and the parity map it defines
    n = 300
    line = ((1,) * n,)
    want = {(n - w, w): Fraction(comb(n, w), 2 ** (n - 1)) for w in range(0, n + 1, 2)}
    joint_vars = (("u", 0), ("u", 1), ("v", 0), ("v", 1))
    joint = {(1 - w % 2, w % 2, n - w, w): Fraction(comb(n, w), 2**n) for w in range(n + 1)}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(n * 2 // 3)
    try:
        got = mw_transform(subspace_from_rows(f2, line))
        got_joint = mw_joint_transpose(f2, line)
    finally:
        sys.setrecursionlimit(limit)
    assert got == GenPoly((("u", 0), ("u", 1)), want)
    assert got_joint == GenPoly(joint_vars, joint)


def test_mw_kernel_rejects_non_rational_residue():
    # the single vector (1,) over GF(3) is not a subspace: its transform
    # u_0 + zeta u_1 + zeta^2 u_2 has no rational coefficients
    with pytest.raises(ValueError):
        _mw_kernel(f3, {(0, 1, 0): 1}, 3)


def test_joint_transpose_repetition():
    got = mw_joint_transpose(f2, ((1, 1),))
    u0, u1 = GenPoly.variable(("u", 0)), GenPoly.variable(("u", 1))
    v0, v1 = GenPoly.variable(("v", 0)), GenPoly.variable(("v", 1))
    want = (u0 * v0**2 + u0 * v1**2 + u1 * v0 * v1 * 2) * Fraction(1, 4)
    assert got == want


def test_joint_transpose_identity_and_zero():
    for A in (((1,),), ((0,),)):
        assert mw_joint_transpose(f2, A) == joint_transpose_reference(f2, A)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_joint_transpose_exhaustive_gf2(n, m):
    for flat in itertools.product(range(2), repeat=n * m):
        A = tuple(tuple(flat[i * m : (i + 1) * m]) for i in range(n))
        assert mw_joint_transpose(f2, A) == joint_transpose_reference(f2, A)


def test_joint_transpose_sampled_gf3():
    # also GF(4) and GF(5), where the trace and p differ from GF(3)
    rng = random.Random(7)
    for field in (f3, f4, f5):
        for _ in range(15):
            n, m = rng.randint(1, 2), rng.randint(1, 2)
            A = tuple(tuple(rng.randrange(field.q) for _ in range(m)) for _ in range(n))
            assert mw_joint_transpose(field, A) == joint_transpose_reference(field, A)


def _span_reference(field, rows, n, offset=None):
    """Test-local reference: offset + x·rows for every x in itertools.product
    order, by linalg.matvec."""
    if not rows:
        return [offset or (0,) * n]
    members = [matvec(field, x, rows) for x in itertools.product(range(field.q), repeat=len(rows))]
    if offset is not None:
        members = [tuple(map(field.add, y, offset)) for y in members]
    return members


@settings(max_examples=100, deadline=None)
@given(A=_subspaces())
def test_enumerate_subspace_matches_a_matvec_reference(A):
    assert enumerate_subspace(A) == _span_reference(A.field, A.basis, A.n)


@pytest.mark.parametrize("field", [f for f, _ in SMALL_FIELDS], ids=lambda f: f"GF{f.q}")
def test_enumerate_subspace_edge_cases(field):
    assert enumerate_subspace(Subspace(field, 3, ())) == [(0, 0, 0)]
    assert enumerate_subspace(Subspace(field, 0, ())) == [()]


@pytest.mark.parametrize("q", [257, 65521])
def test_enumerate_subspace_over_a_large_field(q):
    # the walk's addition tables grow with the members listed, not with q^3
    field = field_make(q)
    for rows in [((1, 2),), ((0, q - 1),)]:
        A = subspace_from_rows(field, rows, 2)
        assert enumerate_subspace(A) == _span_reference(field, A.basis, 2)
    E = all_matrices_ensemble(field, 1, 1)
    assert [code.generator for code, _ in E.support] == [((c,),) for c in range(q)]


@st.composite
def _matrix_shapes(draw):
    field, _ = draw(st.sampled_from(SMALL_FIELDS))
    n, m = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]))
    return field, n, m


def _rows(v, m):
    return tuple(tuple(v[i : i + m]) for i in range(0, len(v), m))


@settings(max_examples=30, deadline=None)
@given(shape=_matrix_shapes())
def test_all_matrices_support_matches_a_matvec_reference(shape):
    field, n, m = shape
    if field.q ** (n * m) > 4096:
        return
    units = [tuple(int(i == u) for i in range(n * m)) for u in range(n * m)]
    want = [_rows(v, m) for v in _span_reference(field, units, n * m)]
    E = all_matrices_ensemble(field, n, m)
    assert [code.generator for code, _ in E.support] == want
    assert {p for _, p in E.support} == {Fraction(1, len(want))}


@st.composite
def _cosets(draw):
    """An offset and up to three n x m span matrices, dependent ones too."""
    field, _ = draw(st.sampled_from(SMALL_FIELDS))
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    matrix = st.tuples(*[st.tuples(*[st.integers(0, field.q - 1)] * m)] * n)
    return field, draw(matrix), draw(st.lists(matrix, max_size=3 if field.q <= 4 else 2))


@settings(max_examples=100, deadline=None)
@given(case=_cosets())
def test_span_ensemble_support_matches_a_matvec_reference(case):
    field, offset, span = case
    m = len(offset[0])
    flat = lambda M: tuple(itertools.chain.from_iterable(M))
    want = _span_reference(field, [flat(B) for B in span], len(flat(offset)), flat(offset))
    E = _span_ensemble(field, offset, span, "coset")
    assert [code.generator for code, _ in E.support] == [_rows(v, m) for v in want]
