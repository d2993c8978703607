from fractions import Fraction

import pytest

from codespectra.errors import DimensionMismatch, DomainError, NotSCCGood
from codespectra.mrd import (
    enumerate_code,
    gabidulin_encode,
    gabidulin_ensemble,
    gabidulin_make,
    kernel_stats,
    min_rank_distance,
    sample_code,
    verify_mrd,
    verify_scc,
)
from codespectra.spectra import all_matrices_ensemble


def test_binary_2x2_k1_codewords():
    spec = gabidulin_make(2, 2, 2, 1)
    mats = {cw.entries for cw in enumerate_code(spec)}
    assert mats == {
        ((0, 0), (0, 0)),
        ((1, 0), (0, 1)),
        ((0, 1), (1, 1)),
        ((1, 1), (1, 0)),
    }


def test_encode_rejects_wrong_message_length():
    # raised, not asserted, so it holds under python -O as well
    spec = gabidulin_make(2, 2, 2, 1)
    for message in ((1, 1, 1), (1, 1), ()):
        with pytest.raises(DimensionMismatch):
            gabidulin_encode(spec, message)


def test_binary_2x2_k1_report():
    spec = gabidulin_make(2, 2, 2, 1)
    rep = verify_mrd(spec)
    assert rep["size"] == 4
    assert rep["size_ok"]
    assert rep["min_rank_distance"] == 2
    assert rep["mrd_ok"]


def test_binary_2x2_k2_is_all_matrices():
    spec = gabidulin_make(2, 2, 2, 2)
    mats = {cw.entries for cw in enumerate_code(spec)}
    assert len(mats) == 16
    rep = verify_mrd(spec)
    assert rep["size_ok"] and rep["min_rank_distance"] == 1 and rep["mrd_ok"]


def test_nesting_k1_inside_k2():
    small = {cw.entries for cw in enumerate_code(gabidulin_make(2, 2, 2, 1))}
    big = {cw.entries for cw in enumerate_code(gabidulin_make(2, 2, 2, 2))}
    assert small <= big


@pytest.mark.parametrize(
    "q,n,m,k",
    [(2, 2, 2, 1), (2, 3, 2, 1), (2, 3, 2, 2), (2, 3, 3, 2), (3, 2, 2, 1), (2, 4, 2, 1)],
)
def test_mrd_property_grid(q, n, m, k):
    rep = verify_mrd(gabidulin_make(q, n, m, k))
    assert rep["size_ok"]
    assert rep["mrd_ok"]


def test_transposed_case_matches_transpose():
    tall = gabidulin_make(2, 2, 3, 1)
    wide = gabidulin_make(2, 3, 2, 1)
    tall_mats = {cw.entries for cw in enumerate_code(tall)}
    wide_mats = {tuple(zip(*cw.entries)) for cw in enumerate_code(wide)}
    assert tall_mats == wide_mats
    rep = verify_mrd(tall)
    assert rep["size_ok"] and rep["mrd_ok"]


def test_linear_shortcut_agrees_with_pairwise():
    spec = gabidulin_make(2, 3, 2, 1)
    code = enumerate_code(spec)
    assert min_rank_distance(code) == min_rank_distance(
        code, linear=False, field=spec.base
    )


def test_sample_code_reproducible():
    spec = gabidulin_make(2, 3, 3, 2)
    assert sample_code(spec, 42) == sample_code(spec, 42)
    mats = {cw.entries for cw in enumerate_code(spec)}
    assert sample_code(spec, 7).entries in mats


def test_scc_good_k1():
    E = gabidulin_ensemble(gabidulin_make(2, 2, 2, 1))
    rep = verify_scc(E)
    assert rep["scc_good"]
    assert rep["column_uniform"]


def test_scc_good_survives_offset():
    spec = gabidulin_make(2, 2, 2, 1)
    offset = ((1, 0), (1, 1))
    E = gabidulin_ensemble(spec, offset=offset)
    assert verify_scc(E)["scc_good"]


def test_scc_good_all_matrices():
    assert verify_scc(all_matrices_ensemble(gabidulin_make(2, 2, 2, 1).base, 2, 2))[
        "scc_good"
    ]


def test_scc_fail_witness():
    from codespectra.spectra import LinearCode, single_code_ensemble

    spec = gabidulin_make(2, 2, 2, 1)
    E = single_code_ensemble(LinearCode(spec.base, ((1, 0), (0, 1))))
    with pytest.raises(NotSCCGood) as exc:
        verify_scc(E)
    x, y, prob = exc.value.witness
    assert any(x) and prob != Fraction(1, 4)


def test_kernel_stats_k2_binary():
    # the k = n = m = 2 binary code is all sixteen 2x2 matrices, zero included
    E = gabidulin_ensemble(gabidulin_make(2, 2, 2, 2))
    stats = kernel_stats(E)
    assert stats["mean"] == Fraction(7, 4)
    assert stats["mean"] == stats["expected_mean"]
    # six invertible matrices out of sixteen
    assert stats["p_trivial_kernel"] == Fraction(3, 8)
    assert stats["trivial_kernel_bound"] == Fraction(1, 4)
    assert stats["p_trivial_kernel"] >= stats["trivial_kernel_bound"]
    assert stats["distribution"] == {
        1: Fraction(3, 8),
        2: Fraction(9, 16),
        4: Fraction(1, 16),
    }


def test_kernel_stats_k2_nonzero_ranks():
    # every nonzero codeword of the square k = n code has rank n or n - 1
    code = enumerate_code(gabidulin_make(2, 2, 2, 2))
    for cw in code:
        if any(any(r) for r in cw.entries):
            assert cw.rank in (1, 2)


@pytest.mark.parametrize("q,n,m,k", [(2, 2, 2, 2), (2, 3, 3, 3), (3, 2, 2, 2)])
def test_kernel_mean_identity(q, n, m, k):
    stats = kernel_stats(gabidulin_ensemble(gabidulin_make(q, n, m, k)))
    assert stats["mean"] == 1 + Fraction(q**n - 1, q**m)
    assert stats["p_trivial_kernel"] >= stats["trivial_kernel_bound"]


def test_kernel_stats_all_matrices():
    spec = gabidulin_make(2, 2, 2, 1)
    stats = kernel_stats(all_matrices_ensemble(spec.base, 2, 2))
    assert stats["mean"] == Fraction(7, 4)


def test_custom_points_still_mrd():
    spec = gabidulin_make(2, 3, 2, 1, points=(2, 6))
    rep = verify_mrd(spec)
    assert rep["size_ok"] and rep["mrd_ok"]


def test_dependent_points_rejected():
    with pytest.raises(ValueError):
        gabidulin_make(2, 3, 2, 1, points=(2, 2))
    with pytest.raises(DomainError):
        gabidulin_make(2, 2, 2, 3)


@pytest.mark.parametrize(
    "q,n,m,k,basis",
    [(2, 4, 4, 2, (1, 2, 4, 9)), (2, 3, 4, 2, (3, 2, 12, 8)), (3, 2, 2, 1, (2, 5))],
)
def test_custom_basis_is_a_change_of_coordinates(q, n, m, k, basis):
    n_prime, m_prime = max(n, m), min(n, m)
    points = tuple(q**i for i in range(m_prime))
    plain = enumerate_code(gabidulin_make(q, n, m, k, points=points))
    spec = gabidulin_make(q, n, m, k, points=points, basis=basis)
    custom = enumerate_code(spec)
    # the base-q digits of each basis element, lowest first
    rows = [[b // q**j % q for j in range(n_prime)] for b in basis]

    def columns(cw):
        # one coordinate vector per evaluation point
        mat = cw.entries if m > n else tuple(zip(*cw.entries))
        return [tuple(col) for col in mat]

    assert len(plain) == len(custom) == q ** (k * n_prime)
    for a, b in zip(plain, custom):
        for digits, coords in zip(columns(a), columns(b)):
            expanded = tuple(
                sum(c * row[j] for c, row in zip(coords, rows)) % q for j in range(n_prime)
            )
            assert expanded == digits
        assert a.rank == b.rank
    rep = verify_mrd(spec)
    assert rep["size_ok"] and rep["mrd_ok"]


@pytest.mark.parametrize("basis", [(1, 2, 4, 8, 3), (1, 2, 4), (1, 2, 4, 8, 3, 5)])
def test_basis_of_the_wrong_length_is_rejected(basis):
    # n' = 4 elements are needed; five with four independent ones used to be
    # accepted and then fail inside enumerate_code
    with pytest.raises(ValueError, match="basis"):
        gabidulin_make(2, 4, 4, 2, basis=basis)
