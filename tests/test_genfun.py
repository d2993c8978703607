import itertools
import random
from fractions import Fraction

import pytest

from codespectra.errors import DomainError, NotARefinement, NotStochastic
from codespectra.genfun import (
    GenPoly,
    expect_rename,
    genfun_from_joint,
    genfun_from_spectrum,
    genfun_from_uspectrum,
    genfun_of_set,
    merge_refinement,
    multiplier_kernel,
)
from codespectra.gf import field_make
from codespectra.spectra import (
    code_joint_spectrum,
    LinearCode,
    partition_make,
    set_spectrum,
    u_set_spectrum,
)

f2 = field_make(2)
f3 = field_make(3)

u0 = GenPoly.variable(("u", 0))
u1 = GenPoly.variable(("u", 1))


def test_genfun_of_set_examples():
    g = genfun_of_set([(0, 0), (1, 1)], f2)
    assert g == (u0**2 + u1**2) * Fraction(1, 2)
    assert genfun_of_set([(0,), (1,)], f2) == (u0 + u1) * Fraction(1, 2)
    assert genfun_of_set([(0, 1), (1, 0)], f2) == u0 * u1


def test_full_space_power_form():
    # genfun of the whole space is ((sum u_a)/q)^n
    space = list(itertools.product(range(2), repeat=3))
    assert genfun_of_set(space, f2) == ((u0 + u1) * Fraction(1, 2)) ** 3


def test_mul_identity_and_product():
    half = (u0 + u1) * Fraction(1, 2)
    sq = half * half
    assert sq == (u0**2 + u0 * u1 * 2 + u1**2) * Fraction(1, 4)
    p = genfun_of_set([(0, 1)], f2)
    assert p * GenPoly.constant(1) == p


@pytest.mark.parametrize("k", [-1, 1.0])
def test_pow_rejects_bad_exponent(k):
    with pytest.raises(DomainError):
        u0**k


def test_product_rule_random_sets():
    rng = random.Random(5)
    for _ in range(20):
        na, nb = rng.randint(1, 3), rng.randint(1, 3)
        A = list({tuple(rng.randrange(2) for _ in range(na)) for _ in range(rng.randint(1, 8))})
        B = list({tuple(rng.randrange(2) for _ in range(nb)) for _ in range(rng.randint(1, 8))})
        prod = [a + b for a in A for b in B]
        assert genfun_of_set(prod, f2) == genfun_of_set(A, f2) * genfun_of_set(B, f2)


def test_coef():
    g = genfun_of_set([(0, 0), (1, 1)], f2)
    assert g.coef({("u", 0): 2}) == Fraction(1, 2)
    space2 = genfun_of_set(list(itertools.product(range(2), repeat=2)), f2)
    assert space2.coef({("u", 0): 1, ("u", 1): 1}) == Fraction(1, 2)
    assert g.coef({("u", 0): 1, ("u", 1): 1}) == 0


def test_evaluate_at_one_sums_to_one():
    for A in ([(0, 1), (1, 1), (0, 0)], [(2, 0), (1, 1)]):
        field = f3
        g = genfun_of_set(A, field)
        ones = {v: 1 for v in g.vars}
        assert g.evaluate(ones) == 1


def test_expect_rename_identity_kernel():
    K = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    g = genfun_of_set([(0, 1), (1, 1)], f2)
    assert expect_rename(g, "u", K) == g
    # q = 2 multiplier kernel is the identity
    assert multiplier_kernel(2) == K


def test_expect_rename_not_stochastic():
    with pytest.raises(NotStochastic):
        expect_rename(u0, "u", [[Fraction(1, 2), Fraction(1, 4)], [0, 1]])


def test_expect_rename_multiplier_q3():
    # single-symbol repetition genfun under the multiplier kernel
    v0 = GenPoly.variable(("v", 0))
    v1 = GenPoly.variable(("v", 1))
    v2 = GenPoly.variable(("v", 2))
    us = [GenPoly.variable(("u", a)) for a in range(3)]
    rep = sum((us[a] * GenPoly.variable(("v", a)) ** 2 for a in range(3)), GenPoly.constant(0)) * Fraction(1, 3)
    K = multiplier_kernel(3)
    got = expect_rename(expect_rename(rep, "v", K), "u", K)
    want = us[0] * v0**2 * Fraction(1, 3) + (us[1] + us[2]) * ((v1 + v2) * Fraction(1, 2)) ** 2 * Fraction(1, 3)
    assert got == want


def test_expect_rename_commutes_with_mul():
    K = multiplier_kernel(3)
    a = genfun_of_set([(0,), (1,)], f3)
    b = genfun_of_set([(2,), (1,)], f3, block="v")
    lhs = expect_rename(a * b, "u", K)
    rhs = expect_rename(a, "u", K) * b
    assert lhs == rhs


def test_merge_refinement():
    part_fine = partition_make([(0,), (1,)], 2)
    part_coarse = partition_make([(0, 1)], 2)
    A = [(0, 0), (1, 1)]
    g = genfun_from_uspectrum(u_set_spectrum(A, f2, part_fine))
    merged = merge_refinement(g, part_coarse, part_fine)
    want = genfun_from_uspectrum(u_set_spectrum(A, f2, part_coarse))
    assert merged == want


def test_merge_refinement_full_space():
    space = list(itertools.product(range(2), repeat=2))
    fine = partition_make([(0,), (1,)], 2)
    coarse = partition_make([(0, 1)], 2)
    g = genfun_from_uspectrum(u_set_spectrum(space, f2, fine))
    merged = merge_refinement(g, coarse, fine)
    want = genfun_from_uspectrum(u_set_spectrum(space, f2, coarse))
    assert merged == want


def test_merge_refinement_all_partitions_small():
    def partitions(indices):
        if not indices:
            yield []
            return
        first, rest = indices[0], indices[1:]
        for sub in partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
            yield [[first]] + sub

    rng = random.Random(11)
    n = 4
    A = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(5)]
    coarse_opts = list(partitions(list(range(n))))
    for coarse in coarse_opts:
        # the singleton partition refines everything
        fine = [[i] for i in range(n)]
        g = genfun_from_uspectrum(u_set_spectrum(A, f2, fine))
        merged = merge_refinement(g, coarse, fine)
        want = genfun_from_uspectrum(u_set_spectrum(A, f2, coarse))
        assert merged == want


def test_merge_refinement_rejects_straddle():
    g = genfun_from_uspectrum(u_set_spectrum([(0, 0)], f2, [(0, 1)]))
    with pytest.raises(NotARefinement):
        merge_refinement(g, [(0,), (1,)], [(0, 1)])


def test_joint_genfun_roundtrip():
    code = LinearCode(f2, ((1, 1),))
    g = genfun_from_joint(code_joint_spectrum(code))
    assert g.coef({("u", 1): 1, ("v", 1): 2}) == Fraction(1, 2)


def test_genpoly_serialization_roundtrip():
    from codespectra.serialize import genpoly_from_json, genpoly_to_json

    h = genfun_of_set([(0, 2), (1, 1)], f3)
    assert genpoly_from_json(genpoly_to_json(h)) == h
