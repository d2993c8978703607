import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from codespectra.cli import main
from codespectra.designer import equivalence_G1
from codespectra.errors import DimensionMismatch, DomainError
from codespectra.genfun import genfun_from_joint, genfun_from_uspectrum, genfun_of_set
from codespectra.gf import field_make
from codespectra.serialize import (
    genpoly_from_json,
    genpoly_to_json,
    matrix_from_text,
    matrix_to_text,
)
from codespectra.spectra import LinearCode, code_joint_spectrum, u_set_spectrum

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def _run(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def _write_matrix(tmp_path, name, q, rows):
    path = tmp_path / name
    path.write_text(matrix_to_text(q, rows))
    return str(path)


def test_dual_repetition(tmp_path, capsys):
    mat = _write_matrix(tmp_path, "rep.txt", 2, ((1, 1),))
    out = json.loads(_run(capsys, ["dual", mat]))
    assert out["q"] == 2 and out["n"] == 2
    entries = {
        tuple(e["type"]): Fraction(int(e["num"]), int(e["den"])) for e in out["entries"]
    }
    assert entries == {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}


def test_macwilliams_roundtrip(tmp_path, capsys):
    from codespectra.genfun import genfun_of_set
    from codespectra.gf import field_make
    from codespectra.macwilliams import (
        enumerate_subspace,
        orthogonal,
        subspace_from_rows,
    )
    from codespectra.serialize import genpoly_from_json

    rows = ((1, 0, 1), (0, 1, 1))
    mat = _write_matrix(tmp_path, "code.txt", 2, rows)
    obj = json.loads(_run(capsys, ["macwilliams", mat]))
    field = field_make(2)
    dual = orthogonal(subspace_from_rows(field, rows))
    assert genpoly_from_json(obj) == genfun_of_set(enumerate_subspace(dual), field)


def test_gabidulin_verify_mrd(capsys):
    out = json.loads(
        _run(capsys, ["gabidulin", "--q", "2", "--n", "2", "--m", "2", "--k", "1", "--verify", "mrd"])
    )
    assert out["size_ok"] and out["mrd_ok"]
    assert out["min_rank_distance"] == 2


def test_gabidulin_verify_kernel(capsys):
    out = json.loads(
        _run(capsys, ["gabidulin", "--q", "2", "--n", "2", "--m", "2", "--k", "2", "--verify", "kernel"])
    )
    assert out["mean"] == "7/4"
    assert out["p_trivial_kernel"] == "3/8"


@pytest.mark.parametrize("q,k", [(2, 1), (3, 2)])
def test_gabidulin_verify_scc(capsys, q, k):
    from codespectra.mrd import gabidulin_ensemble, gabidulin_make, verify_scc
    from codespectra.spectra import CodeEnsemble

    argv = ["gabidulin", "--q", str(q), "--n", "2", "--m", "2", "--k", str(k), "--verify", "scc"]
    out = json.loads(_run(capsys, argv))
    # the same support without its span is checked by enumeration
    E = gabidulin_ensemble(gabidulin_make(q, 2, 2, k))
    assert out == verify_scc(CodeEnsemble(E.support, E.description))
    assert out == {"scc_good": True, "column_uniform": True}


@pytest.mark.parametrize("verify", ["scc", "kernel"])
def test_gabidulin_ensemble_of_2_to_the_32_is_refused(capsys, verify):
    argv = ["gabidulin", "--q", "2", "--n", "8", "--m", "8", "--k", "4", "--verify", verify]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    report = json.loads(err)
    assert out == "" and report["error"] == "TooLarge"
    assert (report["needed"], report["limit"]) == (2**32, 2**20)


def test_gabidulin_emit(capsys):
    out = _run(capsys, ["gabidulin", "--q", "2", "--n", "2", "--m", "2", "--k", "1", "--emit"])
    blocks = [b for b in out.strip().split("\n\n")]
    # four codewords, each a parseable 2x2 matrix
    mats = set()
    for b in blocks:
        q, rows = matrix_from_text(b)
        assert q == 2
        mats.add(rows)
    assert len(mats) == 4


def test_ldgm_bound(capsys):
    out = json.loads(
        _run(
            capsys,
            ["ldgm-bound", "--q", "2", "--c", "2", "--d", "4", "--n", "8",
             "--p0", "0.5", "--q0", "0.5"],
        )
    )
    assert out["p0"] == 0.5 and out["q0"] == 0.5
    assert out["delta_qd"] <= out["J"] + 1e-9


def test_ldgm_sample_files(tmp_path, capsys):
    dest = tmp_path / "gen.txt"
    _run(
        capsys,
        ["ldgm-sample", "--q", "2", "--c", "2", "--d", "4", "--n", "4",
         "--seed", "5", "--out", str(dest)],
    )
    q, rows = matrix_from_text(dest.read_text())
    assert q == 2
    assert len(rows) == 8 and len(rows[0]) == 4  # d'n inputs, c'n outputs
    edges = json.loads((tmp_path / "gen.txt.edges.json").read_text())["edges"]
    assert len(edges) == 16


def test_design(capsys):
    out = json.loads(
        _run(
            capsys,
            ["design", "--q", "2", "--outer-rate", "1/5", "--p0-min", "0.05",
             "--p0-max", "0.95", "--delta", "0.05"],
        )
    )
    assert out["d"] == 35 and out["c"] == 14
    assert out["ok"]


def test_compose(tmp_path, capsys):
    outer = _write_matrix(tmp_path, "outer.txt", 2, ((1, 1),))
    inner = _write_matrix(tmp_path, "inner.txt", 2, ((1,), (1,)))
    perm = tmp_path / "perm.txt"
    perm.write_text("0 1\n")
    out = _run(capsys, ["compose", "--outer", outer, "--inner", inner, "--perm", str(perm)])
    q, rows = matrix_from_text(out)
    assert rows == ((0,),)


def test_verify_equivalence_exact(capsys):
    out = json.loads(
        _run(capsys, ["verify-equivalence", "--mode", "g1", "--q", "2", "--n", "2"])
    )
    assert out["probability"] == "3/8"
    assert out["exceeds_kq"]
    out = json.loads(
        _run(capsys, ["verify-equivalence", "--mode", "g2", "--q", "2", "--n", "2"])
    )
    assert out["probability"] == "3/8"


def test_verify_equivalence_sampled(capsys):
    out = json.loads(
        _run(
            capsys,
            ["verify-equivalence", "--mode", "g1", "--q", "2", "--n", "2",
             "--samples", "500", "--seed", "3"],
        )
    )
    assert not out["exact"]
    lo, hi = out["interval95"]
    assert lo <= 3 / 8 <= hi


def test_verify_equivalence_reads_the_field_from_the_matrix_file(tmp_path, capsys):
    path = tmp_path / "g5.txt"
    path.write_text("5 1 2\n4 3\n")
    want = equivalence_G1(LinearCode(field_make(5), ((4, 3),)), exact=True)["probability"]
    for q in ([], ["--q", "5"]):
        argv = ["verify-equivalence", "--mode", "g1", "--matrix", str(path)] + q
        assert json.loads(_run(capsys, argv))["probability"] == str(want)
    argv = ["verify-equivalence", "--mode", "g1", "--matrix", str(path), "--q", "2"]
    assert _json_error(capsys, argv) == "DimensionMismatch"


def test_lower_bound(capsys):
    out = json.loads(_run(capsys, ["lower-bound", "--alphabet-size", "2", "--m", "4"]))
    assert out["bound_num"] == "8" and out["bound_den"] == "3"


def test_out_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "res.json"
    _run(
        capsys,
        ["gabidulin", "--q", "2", "--n", "2", "--m", "2", "--k", "1",
         "--verify", "mrd", "--out", str(dest)],
    )
    assert json.loads(dest.read_text())["mrd_ok"]


def test_bad_q_rejected(capsys):
    argv = ["ldgm-bound", "--q", "6", "--c", "1", "--d", "2", "--n", "2", "--p0", "0.5", "--q0", "0.5"]
    assert _json_error(capsys, argv) == "DomainError"
    assert _rejected_by_argparse(capsys, ["lower-bound", "--alphabet-size", "0", "--m", "2"])


def _json_error(capsys, argv):
    """Run a bad command line; return the error class named on stderr."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    return json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv,error",
    [
        (["gabidulin", "--q", "2", "--n", "2", "--m", "2", "--k", "3"], "DomainError"),
        (["gabidulin", "--q", "2", "--n", "3", "--m", "2", "--k", "0"], "DomainError"),
        (["verify-equivalence", "--mode", "g1", "--q", "6"], "DomainError"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_bad_values_are_json_errors(capsys, argv, error):
    assert _json_error(capsys, argv) == error


def test_too_large_reports_needed_and_limit(capsys):
    # |C| = (2^8)^4 = 2^32 codewords, refused before any is built
    argv = ["gabidulin", "--q", "2", "--n", "8", "--m", "8", "--k", "4", "--verify", "mrd"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    report = json.loads(err)
    assert out == "" and err.count("\n") == 1
    assert report["error"] == "TooLarge"
    assert (report["needed"], report["limit"]) == (2**32, 2**20)
    assert str(2**32) in report["message"]


def test_verify_equivalence_exact_at_side_5(capsys):
    # 2^25 matrices M, so the exact value must come from the closed form
    out = json.loads(_run(capsys, ["verify-equivalence", "--mode", "g1", "--n", "5"]))
    assert out["probability"] == str(Fraction(9765, 32768))


def test_ldgm_bound_writes_infinities_as_strings(capsys):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    argv = ["ldgm-bound", "--q", "2", "--c", "2", "--d", "1", "--n", "2", "--p0", "0", "--q0", "1"]
    out = json.loads(_run(capsys, argv), parse_constant=reject)
    assert out["delta_qd"] == out["J"] == out["alpha_bound"] == "-inf"


@pytest.mark.parametrize(
    "text,error",
    [
        ("2 2 2\n1 0\n", DimensionMismatch),  # fewer rows than the header
        ("2 1 2\n1 0 1\n", DimensionMismatch),  # row longer than the header
        ("2 1 2\n1 5\n", DomainError),  # entry outside GF(2)
        ("2 1 2\n1 x\n", DomainError),  # entry not an integer
        ("2 one 2\n1 0\n", DomainError),  # header field not an integer
    ],
)
def test_macwilliams_rejects_malformed_matrix(tmp_path, capsys, text, error):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["macwilliams", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == error.__name__


def _vectors(q, n, min_size=1, max_size=6):
    return st.lists(st.tuples(*[st.integers(0, q - 1)] * n), min_size=min_size, max_size=max_size)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_matrix_text_roundtrip(data):
    q = field_make(*data.draw(st.sampled_from(SMALL_FIELDS))).q
    m = data.draw(st.integers(1, 5))
    rows = tuple(data.draw(_vectors(q, m)))
    assert matrix_from_text(matrix_to_text(q, rows)) == (q, rows)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_genpoly_json_roundtrip(data):
    # plain, partitioned (tuple block names) and joint generating functions
    field = field_make(*data.draw(st.sampled_from(SMALL_FIELDS)))
    members = data.draw(_vectors(field.q, 3))
    rows = tuple(data.draw(_vectors(field.q, 2, min_size=1, max_size=2)))
    for p in (
        genfun_of_set(members, field),
        genfun_from_uspectrum(u_set_spectrum(members, field, [[0, 2], [1]])),
        genfun_from_joint(code_joint_spectrum(LinearCode(field, rows))),
    ):
        back = genpoly_from_json(json.loads(json.dumps(genpoly_to_json(p))))
        assert back == p and back.vars == p.vars


def test_short_header_is_a_one_line_json_error(tmp_path, capsys):
    path = tmp_path / "short.txt"
    path.write_text("2 2\n1 0\n")
    assert main(["dual", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "DimensionMismatch"
    assert "q n m" in report["message"]


def _rejected_by_argparse(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    return exc.value.code == 2 and out == "" and "error" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_ldgm_sample_rejects_nonpositive_n(capsys, n):
    argv = ["ldgm-sample", "--q", "2", "--c", "1", "--d", "2", "--n", n]
    assert _rejected_by_argparse(capsys, argv)


@pytest.mark.parametrize("flag,value", [("--p0", "1.5"), ("--p0", "-0.1"), ("--q0", "2")])
def test_ldgm_bound_rejects_fraction_outside_unit_interval(capsys, flag, value):
    argv = ["ldgm-bound", "--q", "2", "--c", "2", "--d", "4", "--n", "8", "--p0", "0.5", "--q0", "0.5"]
    argv[argv.index(flag) + 1] = value
    assert _rejected_by_argparse(capsys, argv)


_LDGM = ["--q", "2", "--c", "2", "--d", "4", "--n", "8"]
_BOUND = ["ldgm-bound", *_LDGM, "--p0", "0.5", "--q0", "0.5"]
_DESIGN = ["design", "--q", "2", "--outer-rate", "1/5", "--p0-min", "0.05",
           "--p0-max", "0.95", "--delta", "0.05"]


def _with(argv, flag, value):
    argv = list(argv)
    argv[argv.index(flag) + 1] = value
    return argv


@pytest.mark.parametrize(
    "argv",
    [
        ["lower-bound", "--alphabet-size", "1", "--m", "2"],
        ["lower-bound", "--alphabet-size", "2", "--m", "0"],
        ["lower-bound", "--alphabet-size", "two", "--m", "2"],
        _with(_BOUND, "--c", "0"),
        _with(_BOUND, "--d", "0"),
        _with(["ldgm-sample", *_LDGM], "--c", "-1"),
        _with(["ldgm-sample", *_LDGM], "--d", "0"),
        _with(_DESIGN, "--outer-rate", "x"),
        _with(_DESIGN, "--outer-rate", "0"),
        _with(_DESIGN, "--outer-rate", "-1/5"),
        _with(_DESIGN, "--outer-rate", "1/0"),
        ["gabidulin", "--q", "2", "--n", "2", "--m", "0", "--k", "1"],
        ["verify-equivalence", "--mode", "g1", "--q", "2", "--n", "2", "--samples", "-5"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_out_of_range_options_rejected_by_argparse(capsys, argv):
    assert _rejected_by_argparse(capsys, argv)


def test_compose_rejects_a_perm_that_is_not_a_permutation(tmp_path, capsys):
    outer = _write_matrix(tmp_path, "outer.txt", 2, ((1, 1),))
    inner = _write_matrix(tmp_path, "inner.txt", 2, ((1,), (1,)))
    perm = tmp_path / "perm.txt"
    for text in ("0\n", "0 x\n"):
        perm.write_text(text)
        argv = ["compose", "--outer", outer, "--inner", inner, "--perm", str(perm)]
        assert _json_error(capsys, argv) == "DomainError"


def test_compose_rejects_matrices_over_different_fields(tmp_path, capsys):
    outer = _write_matrix(tmp_path, "outer.txt", 2, ((1, 1),))
    inner = _write_matrix(tmp_path, "inner.txt", 3, ((1,), (1,)))
    assert _json_error(capsys, ["compose", "--outer", outer, "--inner", inner]) == "DimensionMismatch"
