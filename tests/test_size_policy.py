"""One size policy: every exhaustive enumeration is refused past
spectra.ENUM_LIMIT (or a permutation expansion past spectra.PERM_LIMIT)
with a TooLarge carrying what, needed and limit, and no public function
takes a limit of its own."""

import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import codespectra
from codespectra import designer, ldgm, macwilliams, mrd, spectra
from codespectra.errors import TooLarge
from codespectra.gf import field_make
from codespectra.spectra import PERM_LIMIT, CodeEnsemble, LinearCode, single_code_ensemble

f2 = field_make(2)


def _code(n, m, one=1):
    """n x m over GF(2): ones on the diagonal when one, else all zero."""
    return LinearCode(f2, tuple(tuple(one * (i == j) for j in range(m)) for i in range(n)))


def _lines(k):
    """A 1 -> k repetition code and a k -> 1 sum code, composable through k."""
    return LinearCode(f2, ((1,) * k,)), LinearCode(f2, ((1,),) * k)


_WIDE = 21  # 2^21 > ENUM_LIMIT = 2^20
_GABIDULIN = dict(q=2, n=8, m=8, k=4)  # |C| = (2^8)^4 = 2^32

# (call that runs past the default bound, True when the bound is PERM_LIMIT)
_REFUSALS = {
    "enumerate_types": (lambda: spectra.enumerate_types(70, field_make(5)), False),
    "all_matrices_ensemble": (lambda: spectra.all_matrices_ensemble(f2, 5, 5), False),
    "code_joint_spectrum": (lambda: spectra.code_joint_spectrum(_code(_WIDE, 1)), False),
    "kernel_spectrum": (lambda: spectra.kernel_spectrum(_code(_WIDE, 1, one=0)), False),
    "image_spectrum": (lambda: spectra.image_spectrum(_code(_WIDE, _WIDE)), False),
    "ensemble_avg_joint_spectrum": (
        lambda: spectra.ensemble_avg_joint_spectrum(single_code_ensemble(_code(_WIDE, 1))),
        False,
    ),
    "compose_avg_conditional": (
        lambda: spectra.compose_avg_conditional(
            single_code_ensemble(_code(_WIDE, 1)), single_code_ensemble(_code(1, 1))
        ),
        False,
    ),
    "outer_weight_window": (lambda: designer.outer_weight_window(_code(_WIDE, 1)), False),
    "enumerate_subspace": (
        lambda: macwilliams.enumerate_subspace(
            macwilliams.subspace_from_rows(f2, _code(_WIDE, _WIDE).generator)
        ),
        False,
    ),
    "mw_transform": (
        lambda: macwilliams.mw_transform(
            macwilliams.subspace_from_rows(f2, _code(_WIDE, _WIDE).generator)
        ),
        False,
    ),
    "mw_joint_transpose": (
        lambda: macwilliams.mw_joint_transpose(f2, _code(_WIDE, 1).generator),
        False,
    ),
    "joint_transpose_reference": (
        lambda: macwilliams.joint_transpose_reference(f2, _code(1, _WIDE).generator),
        False,
    ),
    "enumerate_code": (lambda: mrd.enumerate_code(mrd.gabidulin_make(**_GABIDULIN)), False),
    "verify_mrd": (lambda: mrd.verify_mrd(mrd.gabidulin_make(**_GABIDULIN)), False),
    "gabidulin_ensemble": (
        lambda: mrd.gabidulin_ensemble(mrd.gabidulin_make(**_GABIDULIN)),
        False,
    ),
    "verify_scc": (lambda: mrd.verify_scc(single_code_ensemble(_code(11, 10))), False),
    # 6 x 3 passes q^(n+m) = 2^9, but 2^15 members x (2^6 - 1) nonzero inputs do not
    "verify_scc work": (
        lambda: mrd.verify_scc(CodeEnsemble(((_code(6, 3), Fraction(1, 2**15)),) * 2**15)),
        False,
    ),
    "randomize": (
        lambda: spectra.randomize(single_code_ensemble(_code(PERM_LIMIT + 1, 1)), "in"),
        True,
    ),
    "compose_uniform": (lambda: designer.compose(*_lines(PERM_LIMIT + 1), uniform=True), True),
    "ldgm_ensemble_exact": (
        lambda: ldgm.ldgm_ensemble_exact(ldgm.LdgmParams(f2, 3, 3, 3)),
        True,
    ),
}


@pytest.mark.parametrize("name", sorted(_REFUSALS))
def test_every_refusal_is_one_structured_too_large(name):
    run, perm = _REFUSALS[name]
    with pytest.raises(TooLarge) as exc:
        run()
    err = exc.value
    assert isinstance(err.needed, int) and isinstance(err.what, str) and err.what
    assert err.limit == (spectra.PERM_LIMIT if perm else spectra.ENUM_LIMIT)
    assert err.needed > err.limit
    assert str(err) == f"{err.what}: {err.needed} exceeds limit {err.limit}"


def test_perm_limit_is_read_at_call_time(monkeypatch):
    # ENUM_LIMIT's exact bound is pinned in test_spectra's enumeration test
    monkeypatch.setattr(spectra, "PERM_LIMIT", 2)
    with pytest.raises(TooLarge) as exc:
        designer.compose(*_lines(3), uniform=True)
    assert (exc.value.needed, exc.value.limit) == (3, 2)
    assert designer.compose(*_lines(2), uniform=True).generator == ((0,),)


def _package_modules():
    for info in pkgutil.iter_modules(codespectra.__path__):
        yield importlib.import_module(f"codespectra.{info.name}")


def test_no_public_function_takes_a_limit():
    seen = 0
    for mod in _package_modules():
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                seen += 1
                assert "limit" not in inspect.signature(obj).parameters, f"{mod.__name__}.{name}"
    assert seen > 50


def test_only_spectra_holds_the_limits():
    holders = [
        mod.__name__
        for mod in _package_modules()
        if hasattr(mod, "ENUM_LIMIT") or hasattr(mod, "PERM_LIMIT")
    ]
    assert holders == ["codespectra.spectra"]
