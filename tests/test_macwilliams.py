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
from codespectra.spectra import partition_make

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
