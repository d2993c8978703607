import random
from collections import Counter
from fractions import Fraction

import pytest

from codespectra import mrd, spectra
from codespectra.errors import DimensionMismatch, DomainError, NotSCCGood
from codespectra.gf import field_make
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
from codespectra.spectra import (
    CodeEnsemble,
    LinearCode,
    all_matrices_ensemble,
    all_vectors,
    randomize,
    single_code_ensemble,
)


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


# ---------------------------------------------------------------------------
# SCC by rank on span ensembles, against the enumeration of the same support


def _scc_outcome(E):
    """verify_scc's report, or its NotSCCGood witness."""
    try:
        return verify_scc(E)
    except NotSCCGood as exc:
        return ("NotSCCGood", exc.witness)


def _brute_outcome(E):
    # the same support without a span takes the point_distribution path
    plain = CodeEnsemble(E.support, E.description)
    assert plain.span is None
    return _scc_outcome(plain)


def _assert_certificate_matches_enumeration(E):
    got, want = _scc_outcome(E), _brute_outcome(E)
    assert repr(got) == repr(want)
    return got


def _span_coset(field, span, offset):
    return spectra._span_ensemble(field, offset, span, "span coset")


def _random_matrix(rng, q, n, m):
    return tuple(tuple(rng.randrange(q) for _ in range(m)) for _ in range(n))


# every shape with q^(k·n') <= 4096 and n, m <= 4: the enumeration oracle
# applies each of up to 4,096 members to every x != 0
_SPAN_SHAPES = [
    (q, n, m, k)
    for q in (2, 3)
    for n in range(1, 5)
    for m in range(1, 5)
    for k in range(1, min(n, m) + 1)
    if q ** (k * max(n, m)) <= 4096
]


def _encoded_messages(spec):
    # every codeword encoded from its own message, in all_vectors order
    return [gabidulin_encode(spec, msg) for msg in all_vectors(spec.ext, spec.k)]


def _enumerated_gabidulin(spec, offset=None):
    # the reference: one encoded codeword per message, the offset added entrywise
    code = _encoded_messages(spec)
    support = []
    for cw in code:
        mat = cw.entries
        if offset is not None:
            mat = tuple(
                tuple(spec.base.add(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(mat, offset)
            )
        support.append((LinearCode(spec.base, mat), Fraction(1, len(code))))
    return CodeEnsemble(tuple(support), "gabidulin ensemble")


@pytest.mark.parametrize("q,n,m,k", _SPAN_SHAPES)
def test_gabidulin_certificate_matches_enumeration(q, n, m, k):
    spec = gabidulin_make(q, n, m, k)
    offset = _random_matrix(random.Random(f"{q}{n}{m}{k}"), q, n, m)
    for off in (None, offset):
        E = gabidulin_ensemble(spec, offset=off)
        assert len(E.span) == k * max(n, m)
        assert E.support == _enumerated_gabidulin(spec, off).support
        assert E.description == "gabidulin ensemble"
        report = _assert_certificate_matches_enumeration(E)
        assert report["scc_good"]
    # the span walk lists the codewords, ranks included, as encoding each message does
    assert enumerate_code(spec) == _encoded_messages(spec)


def test_span_order_at_random_points():
    # points other than the polynomial basis, and the transposed (m > n) case
    for q, n, m, k, points in [(2, 4, 3, 2, (3, 6, 13)), (2, 3, 4, 1, (5, 6, 7)), (3, 3, 2, 1, (4, 11))]:
        spec = gabidulin_make(q, n, m, k, points=points)
        assert gabidulin_ensemble(spec).support == _enumerated_gabidulin(spec).support
        assert enumerate_code(spec) == _encoded_messages(spec)


@pytest.mark.parametrize("q,shape", [(q, s) for q in (2, 3) for s in ((1, 2), (2, 2), (2, 3), (3, 2))])
def test_rank_deficient_sub_spans_give_the_enumerated_witness(q, shape):
    # random sub-spans (dependent ones too) of random matrices, linear and
    # coset: the witness (x, 0, q^-r or 0) must be the enumeration's
    field = field_make(q)
    n, m = shape
    rng = random.Random(f"{q}{shape}")
    seen = set()
    for trial in range(12):
        size = rng.randrange(0, n * m + 1)
        span = [_random_matrix(rng, q, n, m) for _ in range(size)]
        if trial % 3 == 0 and span:
            span.append(span[0])  # a dependent member
        offset = ((0,) * m,) * n if trial % 2 else _random_matrix(rng, q, n, m)
        if q ** len(span) > 729:
            span = span[:6]
        got = _assert_certificate_matches_enumeration(_span_coset(field, span, offset))
        seen.add("pass" if isinstance(got, dict) else "zero" if got[1][2] == 0 else "mass")
    assert seen >= {"zero", "mass"}


def test_coset_witness_with_zero_probability():
    # span{e_11}: the first x, (0, 1), has x·B_1 = 0 (rank 0 < 2), and x·O =
    # (0, 1) lies outside {0}, so P{F(x) = 0} = 0; without O it is q^0 = 1
    f2 = field_make(2)
    E = _span_coset(f2, [((1, 0), (0, 0))], ((0, 0), (0, 1)))
    assert _assert_certificate_matches_enumeration(E) == ("NotSCCGood", ((0, 1), (0, 0), Fraction(0)))
    linear = _span_coset(f2, [((1, 0), (0, 0))], ((0, 0), (0, 0)))
    assert _assert_certificate_matches_enumeration(linear) == (
        "NotSCCGood",
        ((0, 1), (0, 0), Fraction(1)),
    )


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2)])
@pytest.mark.parametrize("n,m", [(2, 2), (2, 3)])
def test_all_matrices_certificate_matches_enumeration(p, r, n, m):
    E = all_matrices_ensemble(field_make(p, r), n, m)
    # every matrix in all_vectors order of its row-major entries
    flats = [tuple(v[i : i + m] for i in range(0, n * m, m)) for v in all_vectors(E.field, n * m)]
    assert [code.generator for code, _ in E.support] == flats
    assert _assert_certificate_matches_enumeration(E) == {"scc_good": True, "column_uniform": True}


def test_span_ensembles_never_enumerate(monkeypatch):
    def refuse(E, x):
        raise AssertionError("point_distribution called on a span ensemble")

    monkeypatch.setattr(mrd, "point_distribution", refuse)
    assert verify_scc(gabidulin_ensemble(gabidulin_make(2, 4, 4, 2)))["scc_good"]
    assert verify_scc(all_matrices_ensemble(field_make(3), 2, 3))["column_uniform"]
    # 65,536 members: enumerating would apply each to all 15 nonzero inputs
    assert verify_scc(all_matrices_ensemble(field_make(2), 4, 4)) == {"scc_good": True, "column_uniform": True}
    with pytest.raises(NotSCCGood):
        verify_scc(_span_coset(field_make(2), [((1, 0), (0, 1))], ((0, 0), (0, 0))))
    # explicit supports still enumerate
    with pytest.raises(AssertionError, match="point_distribution"):
        verify_scc(CodeEnsemble(all_matrices_ensemble(field_make(2), 1, 1).support))


def test_randomize_and_compose_drop_the_span():
    from codespectra.designer import compose
    from codespectra.spectra import randomize

    E = gabidulin_ensemble(gabidulin_make(2, 2, 2, 1))
    assert randomize(E, "in").span is None
    assert compose(E, all_matrices_ensemble(E.field, 2, 1), uniform=True).span is None
    assert CodeEnsemble(E.support).span is None
    assert E == CodeEnsemble(E.support, E.description) and "span" not in repr(E)


@pytest.mark.parametrize("q,n,m,k", [(2, 4, 4, 2), (3, 3, 3, 1), (2, 3, 4, 2), (2, 4, 3, 1)])
def test_gabidulin_ensemble_ranks_no_basis_codeword(q, n, m, k, monkeypatch):
    # the K = k·n' basis codewords are evaluated without the rank that
    # gabidulin_encode attaches to each codeword
    spec = gabidulin_make(q, n, m, k)
    want = _enumerated_gabidulin(spec).support
    calls = []
    rank = mrd.rank
    monkeypatch.setattr(mrd, "rank", lambda *args: calls.append(args) or rank(*args))
    E = gabidulin_ensemble(spec)
    assert calls == []
    assert E.support == want
    assert gabidulin_encode(spec, (1,) + (0,) * (k - 1)).rank == min(n, m)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# column uniformity, from the row check, against a brute-force column count


_SMALL_FIELDS = [field_make(2), field_make(3), field_make(2, 2), field_make(5)]


def _columns_uniform(E):
    """For every y != 0, A·y^T over the members' generators (offsets dropped),
    counted one member at a time through apply, is uniform on GF(q)^n."""
    field = E.field
    target = Fraction(1, field.q**E.n)
    for y in all_vectors(field, E.m):
        if any(y):
            dist = Counter()
            for code, p in E.support:
                dist[LinearCode(field, tuple(zip(*code.generator))).apply(y)] += p
            if len(dist) != field.q**E.n or set(dist.values()) != {target}:
                return False
    return True


def _column_cases(field):
    """(kind, ensemble) pairs over field: span, explicit linear and affine."""
    q = field.q
    rng = random.Random(q)
    shapes = [(1, 1), (1, 2), (2, 1)] + ([(2, 2)] if q <= 3 else [])
    spans = [all_matrices_ensemble(field, n, m) for n, m in shapes]
    if field.r == 1 and q <= 3:
        spans += [gabidulin_ensemble(gabidulin_make(q, 2, 3, 1)), gabidulin_ensemble(gabidulin_make(q, 2, 2, 1))]
    for _ in range(6):
        # random span cosets: most fail rows, the rest must report columns
        spans.append(_span_coset(field, [_random_matrix(rng, q, 2, 1) for _ in range(2)], _random_matrix(rng, q, 2, 1)))
    for E in spans:
        yield "span", E
        yield "linear", CodeEnsemble(E.support)
        # zero offsets leave every member linear
        yield "linear", CodeEnsemble(tuple((LinearCode(field, c.generator, (0,) * c.m), p) for c, p in E.support))
    for n, m in ((1, 2), (2, 1)):
        yield "affine", randomize(CodeEnsemble(all_matrices_ensemble(field, n, m).support), "affine")
    for _ in range(8):
        members = [LinearCode(field, _random_matrix(rng, q, 2, 1), (rng.randrange(q),)) for _ in range(2)]
        yield "affine", randomize(CodeEnsemble(tuple((c, Fraction(1, 2)) for c in members)), "affine")


@pytest.mark.parametrize("field", _SMALL_FIELDS, ids=lambda f: f"GF{f.q}")
def test_column_uniform_matches_brute_force_columns(field):
    seen = Counter()
    for kind, E in _column_cases(field):
        try:
            report = verify_scc(E)
        except NotSCCGood:
            continue
        assert report["column_uniform"] == _columns_uniform(E), (kind, E)
        seen[kind, report["column_uniform"]] += 1
    # every kind passed rows at least once, and affine supports report both answers
    assert {kind for kind, _ in seen} == {"span", "linear", "affine"}
    assert seen["affine", True] and seen["affine", False]
    # x -> x + b, b uniform: every row map is uniform, the column maps y -> y are not
    identity = randomize(single_code_ensemble(LinearCode(field, ((1, 0), (0, 1)))), "affine")
    assert verify_scc(identity) == {"scc_good": True, "column_uniform": False}
    assert not _columns_uniform(identity)


def test_span_ensembles_check_rows_once(monkeypatch):
    # one rank search per verify_scc call: no second, transposed walk
    calls = []
    deficient = mrd._first_deficient
    monkeypatch.setattr(mrd, "_first_deficient", lambda *args: calls.append(args) or deficient(*args))
    spec = gabidulin_make(2, 3, 4, 2)
    passing = [
        gabidulin_ensemble(spec),
        gabidulin_ensemble(spec, offset=_random_matrix(random.Random(3), 2, 3, 4)),
        all_matrices_ensemble(field_make(2, 2), 2, 3),
    ]
    for E in passing:
        before = len(calls)
        assert verify_scc(E) == {"scc_good": True, "column_uniform": True}
        assert len(calls) == before + 1
    with pytest.raises(NotSCCGood):
        verify_scc(_span_coset(field_make(2), [((1, 0), (0, 1))], ((0, 0), (0, 0))))
    assert len(calls) == len(passing) + 1
