import itertools

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from codespectra.errors import FieldTooLarge, NonPrimeP, ReducibleModulus
from codespectra.gf import CycInt, FieldSpec, field_make


def test_gf2_tables():
    f = field_make(2)
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1
    assert f.q == 2


def test_gf4_paper_modulus():
    # x^2 + x + 1, so alpha^2 = alpha + 1
    f = field_make(2, 2, modulus=(1, 1, 1))
    alpha = 2
    assert f.mul(alpha, alpha) == f.add(alpha, 1)
    # the default modulus search finds the same polynomial
    assert field_make(2, 2).modulus == (1, 1, 1)


def test_gf3_arithmetic():
    f = field_make(3)
    assert f.mul(2, 2) == 1
    assert f.add(2, 2) == 1


def test_field_make_errors():
    with pytest.raises(NonPrimeP):
        field_make(4)
    with pytest.raises(ReducibleModulus):
        field_make(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ReducibleModulus):
        FieldSpec(2, 2, (1, 0, 1))  # no irreducibility check before the tables
    with pytest.raises(FieldTooLarge):
        field_make(2, 17)


@pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (3, 1), (2, 3), (5, 1), (3, 2)])
def test_field_axioms_exhaustive(p, r):
    f = field_make(p, r)
    els = range(f.q)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    for a, b in itertools.product(els, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
    # distributivity on a subset is enough at q = 25
    for a, b, c in itertools.islice(itertools.product(els, repeat=3), 2000):
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


# Every field with q <= 256 among these is checked exhaustively against a
# digit-wise reference that uses none of the field's tables.
_SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]


def _ref_digits(f, a):
    return [(a // f.p**i) % f.p for i in range(f.r)]


def _ref_value(f, digits):
    return sum(d * f.p**i for i, d in enumerate(digits))


def _ref_add(f, a, b):
    return _ref_value(f, [(x + y) % f.p for x, y in zip(_ref_digits(f, a), _ref_digits(f, b))])


def _ref_neg(f, a):
    return _ref_value(f, [-x % f.p for x in _ref_digits(f, a)])


def _ref_mul(f, a, b):
    """Schoolbook product of the digit polynomials, reduced by the modulus."""
    p, r, m = f.p, f.r, f.modulus
    prod = [0] * (2 * r - 1)
    for i, x in enumerate(_ref_digits(f, a)):
        for j, y in enumerate(_ref_digits(f, b)):
            prod[i + j] += x * y
    lead_inv = pow(m[r], -1, p)
    for k in range(2 * r - 2, r - 1, -1):
        c = prod[k] * lead_inv % p
        for i in range(r + 1):
            prod[k - r + i] -= c * m[i]
    return _ref_value(f, [c % p for c in prod[:r]])


def _ref_trace(f, a):
    acc, x = 0, a
    for _ in range(f.r):
        acc = _ref_add(f, acc, x)
        y = 1
        for _ in range(f.p):
            y = _ref_mul(f, y, x)
        x = y
    return acc


@pytest.mark.parametrize(
    "p,r,modulus", [(p, r, None) for p, r in _SMALL_FIELDS] + [(2, 2, (1, 1, 1))]
)
def test_table_arithmetic_matches_digitwise_reference(p, r, modulus):
    f = field_make(p, r, modulus)
    els = range(f.q)
    for a in els:
        assert f.neg(a) == _ref_neg(f, a)
        assert f.trace(a) == _ref_trace(f, a)
        for b in els:
            assert f.add(a, b) == _ref_add(f, a, b)
            assert f.sub(a, b) == _ref_add(f, a, _ref_neg(f, b))
            assert f.mul(a, b) == _ref_mul(f, a, b)


@pytest.mark.parametrize("p,r", _SMALL_FIELDS)
def test_trace_additive_and_surjective(p, r):
    f = field_make(p, r)
    traces = set()
    for a in range(f.q):
        traces.add(f.trace(a))
        for b in range(f.q):
            assert f.trace(f.add(a, b)) == (f.trace(a) + f.trace(b)) % p
    assert traces == set(range(p))


def test_trace_gf4_alpha():
    f = field_make(2, 2)
    assert f.trace(2) == 1
    assert f.trace(0) == 0
    assert f.trace(1) == 0  # 1 + 1^2 = 0


# The additive character chi(x) = zeta^Tr(x) as a CycInt, and the q x q
# character matrix M[a][b] = chi(a b) of the MacWilliams identity.


def chi(f, x):
    return CycInt.zeta_power(f.p, f.trace(x))


def mw_matrix(f):
    return [[chi(f, f.mul(a, b)) for b in range(f.q)] for a in range(f.q)]


def test_chi_values():
    f2 = field_make(2)
    assert chi(f2, 0) == 1
    assert chi(f2, 1) == -1
    f3 = field_make(3)
    assert chi(f3, 1) == CycInt.zeta_power(3, 1)
    assert chi(f3, 2) == CycInt.zeta_power(3, 2)


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_chi_sum_vanishes(p, r):
    f = field_make(p, r)
    for a in range(1, f.q):
        total = CycInt.from_rational(p, 0)
        for x in range(f.q):
            total = total + chi(f, f.mul(a, x))
        assert total.is_zero()


def test_chi_homomorphism():
    f = field_make(3, 2)
    for a in range(f.q):
        for b in range(f.q):
            assert chi(f, f.add(a, b)) == chi(f, a) * chi(f, b)


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_mw_matrix_properties(p, r):
    f = field_make(p, r)
    q = f.q
    M = mw_matrix(f)
    # symmetric
    for i in range(q):
        for j in range(q):
            assert M[i][j] == M[j][i]
    # M conj(M)^T = q I
    for i in range(q):
        for j in range(q):
            acc = CycInt.from_rational(p, 0)
            for k in range(q):
                acc = acc + M[i][k] * M[j][k].conjugate()
            assert acc == (q if i == j else 0)
    # row sums
    for a in range(q):
        s = CycInt.from_rational(p, 0)
        for x in range(q):
            s = s + M[a][x]
        assert s == (q if a == 0 else 0)


def test_mw_matrix_gf2():
    M = mw_matrix(field_make(2))
    assert M[0][0] == 1 and M[0][1] == 1 and M[1][0] == 1 and M[1][1] == -1


def test_cycint_canonical_and_rational():
    z = CycInt.zeta_power(3, 1)
    z2 = CycInt.zeta_power(3, 2)
    assert z + z2 == -1  # 1 + z + z^2 = 0
    assert (z * z2).as_rational() == 1
    assert not z.is_rational()
    assert z.conjugate() == z2


def test_cycint_fraction_coeffs():
    half = CycInt.from_rational(2, Fraction(1, 2))
    assert (half + half).as_rational() == 1


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(0, 4))
def test_cycint_ring_laws(a, b, k):
    p = 5
    x = CycInt.from_rational(p, a) + CycInt.zeta_power(p, k)
    y = CycInt.from_rational(p, b) * CycInt.zeta_power(p, (k + 1) % p)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x
