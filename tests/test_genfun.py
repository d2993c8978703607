import itertools
import random
from fractions import Fraction

import pytest

from codespectra.errors import DomainError, NotARefinement
from codespectra.genfun import (
    GenPoly,
    genfun_from_joint,
    genfun_from_spectrum,
    genfun_from_uspectrum,
    genfun_of_set,
    merge_refinement,
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
    # a spectrum is a distribution: its coefficients sum to one
    for A in ([(0, 1), (1, 1), (0, 0)], [(2, 0), (1, 1)]):
        assert sum(genfun_of_set(A, f3).terms.values()) == 1


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
