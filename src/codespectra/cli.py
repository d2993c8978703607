"""Command line front end.

Every subcommand prints JSON to stdout (or --out); matrices travel in the
plain text format of serialize.matrix_to_text.  A CodeSpectraError becomes
one JSON line {"error": <class>, "message": ...} on stderr, with the
"needed" and "limit" of a TooLarge, and exit code 2; argparse rejects bad
option values with exit code 2 as well.
"""

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from . import designer, ldgm, macwilliams, mrd, serialize
from .errors import CodeSpectraError, DimensionMismatch, DomainError, FieldTooLarge, TooLarge
from .gf import FIELD_SIZE_LIMIT, field_make
from .spectra import LinearCode, TypeVector, set_spectrum


def _finite(obj):
    """JSON has no infinities: a non-finite float becomes its str, "inf" or "-inf"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _emit(args, obj):
    text = obj if isinstance(obj, str) else json.dumps(_finite(obj), indent=2, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _field(q):
    """GF(q) for a prime power q; a q above the field size limit is refused
    before it is factored."""
    if q > FIELD_SIZE_LIMIT:
        raise FieldTooLarge(f"q = {q} exceeds limit {FIELD_SIZE_LIMIT}")
    for p in range(2, q + 1):
        if q % p == 0:
            r = 1
            while p**r < q:
                r += 1
            if p**r == q:
                return field_make(p, r)
            break
    raise DomainError(f"q = {q} is not a prime power")


def _read_matrix(path):
    """(q, GF(q), rows) of a matrix file."""
    with open(path) as fh:
        q, rows = serialize.matrix_from_text(fh.read())
    return q, _field(q), rows


def cmd_dual(args):
    q, field, rows = _read_matrix(args.matrix)
    A = macwilliams.subspace_from_rows(field, rows)
    dual = macwilliams.orthogonal(A)
    members = macwilliams.enumerate_subspace(dual)
    spec = set_spectrum(members, field)
    _emit(args, serialize.spectrum_to_json(spec, q, A.n))


def cmd_macwilliams(args):
    _, field, rows = _read_matrix(args.matrix)
    A = macwilliams.subspace_from_rows(field, rows)
    _emit(args, serialize.genpoly_to_json(macwilliams.mw_transform(A)))


def cmd_gabidulin(args):
    spec = mrd.gabidulin_make(args.q, args.n, args.m, args.k)
    if args.emit:
        out = "\n".join(serialize.matrix_to_text(args.q, cw.entries) for cw in mrd.enumerate_code(spec))
    elif args.verify == "mrd":
        out = mrd.verify_mrd(spec)
    elif args.verify == "scc":
        out = mrd.verify_scc(mrd.gabidulin_ensemble(spec))
    elif args.verify == "kernel":
        out = mrd.kernel_stats(mrd.gabidulin_ensemble(spec))
    else:
        cw = mrd.sample_code(spec, args.seed)
        out = {"codeword": [list(r) for r in cw.entries], "rank": cw.rank}
    _emit(args, out)


def _type_near(p0, n, q):
    """A length-n type with zero-fraction as close to p0 as possible and the
    rest spread evenly."""
    c0 = round(p0 * n)
    rest = n - c0
    base, extra = divmod(rest, q - 1)
    counts = [c0] + [base + (1 if i < extra else 0) for i in range(q - 1)]
    return TypeVector(tuple(counts))


def cmd_ldgm_bound(args):
    params = ldgm.LdgmParams(_field(args.q), args.c, args.d, args.n)
    P = _type_near(args.p0, params.in_len, args.q)
    Q = _type_near(args.q0, params.out_len, args.q)
    p0, q0 = P.counts[0] / P.n, Q.counts[0] / Q.n
    out = {
        "p0": p0,
        "q0": q0,
        "delta_qd": ldgm.delta_qd(args.q, args.d, p0, q0),
        "J": ldgm.J(args.q, args.d, p0, q0),
        "alpha_bound": ldgm.ldgm_alpha_bound(params, P, Q),
    }
    _emit(args, out)


def cmd_ldgm_sample(args):
    params = ldgm.LdgmParams(_field(args.q), args.c, args.d, args.n)
    code, edges = ldgm.ldgm_sample(params, args.seed)
    _emit(args, serialize.matrix_to_text(args.q, code.generator))
    if args.out:
        with open(args.out + ".edges.json", "w") as fh:
            json.dump({"edges": edges}, fh)
    else:
        print(json.dumps({"edges": edges}))


def cmd_design(args):
    out = designer.design_concat(args.q, args.outer_rate, args.p0_min, args.p0_max, args.delta)
    _emit(args, out)


def cmd_compose(args):
    q, field, outer_rows = _read_matrix(args.outer)
    q2, _, inner_rows = _read_matrix(args.inner)
    if q != q2:
        raise DimensionMismatch(f"outer matrix is over GF({q}), inner over GF({q2})")
    outer = LinearCode(field, outer_rows)
    inner = LinearCode(field, inner_rows)
    if args.perm:
        with open(args.perm) as fh:
            perm = serialize._integers(fh.read().split())
    else:
        rng = random.Random(args.seed)
        perm = list(range(outer.m))
        rng.shuffle(perm)
        perm = tuple(perm)
    code = designer.compose(outer, inner, perm=perm)
    _emit(args, serialize.matrix_to_text(q, code.generator))


def cmd_verify_equivalence(args):
    if args.matrix:
        q, field, rows = _read_matrix(args.matrix)
        if args.q not in (None, q):
            raise DimensionMismatch(f"matrix is over GF({q}), --q is {args.q}")
    else:
        field = _field(2 if args.q is None else args.q)
        rows = tuple(tuple(1 if i == j else 0 for j in range(args.n)) for i in range(args.n))
    code = LinearCode(field, rows)
    fn = designer.equivalence_G1 if args.mode == "g1" else designer.equivalence_G2
    out = fn(code, exact=args.samples == 0, samples=args.samples or 10**5, seed=args.seed)
    out["kq"] = float(out["kq"])
    out["exceeds_kq"] = float(out["probability"]) > out["kq"]
    _emit(args, out)


def cmd_lower_bound(args):
    bound = designer.single_code_lower_bound(args.alphabet_size, args.m)
    _emit(args, {"bound_num": str(bound.numerator), "bound_den": str(bound.denominator), "bound": float(bound)})


def _int_at_least(low):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


_positive_int = _int_at_least(1)


def _positive_fraction(text):
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a fraction") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{value} is not positive")
    return value


def _unit_float(text):
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"{value} lies outside [0, 1]")
    return value


def build_parser():
    top = argparse.ArgumentParser(prog="codespectra")
    sub = top.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    ldgm_params = argparse.ArgumentParser(add_help=False)
    ldgm_params.add_argument("--q", type=int, required=True)
    ldgm_params.add_argument("--c", type=_positive_int, required=True)
    ldgm_params.add_argument("--d", type=_positive_int, required=True)
    ldgm_params.add_argument("--n", type=_positive_int, required=True)

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=[*parents, out])
        p.set_defaults(func=func)
        return p

    p = command("dual", cmd_dual, "spectrum of the orthogonal complement")
    p.add_argument("matrix")

    p = command("macwilliams", cmd_macwilliams, "dual generating function by character substitution")
    p.add_argument("matrix")

    p = command("gabidulin", cmd_gabidulin, "build or verify a Gabidulin code")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit", action="store_true")
    p.add_argument("--verify", choices=["mrd", "scc", "kernel"])

    p = command("ldgm-bound", cmd_ldgm_bound, "evaluate the LDGM spectrum bound", ldgm_params)
    p.add_argument("--p0", type=_unit_float, required=True)
    p.add_argument("--q0", type=_unit_float, required=True)

    p = command("ldgm-sample", cmd_ldgm_sample, "draw a sparse LDGM generator", ldgm_params)
    p.add_argument("--seed", type=int, default=0)

    p = command("design", cmd_design, "choose inner LDGM parameters")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--outer-rate", type=_positive_fraction, required=True)
    p.add_argument("--p0-min", type=float, required=True)
    p.add_argument("--p0-max", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)

    p = command("compose", cmd_compose, "concatenate two codes through an interleaver")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--perm")
    p.add_argument("--seed", type=int, default=0)

    p = command("verify-equivalence", cmd_verify_equivalence, "kernel/image preservation probability")
    p.add_argument("--mode", choices=["g1", "g2"], required=True)
    p.add_argument("--q", type=int, help="default: the matrix file's q, else 2")
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--matrix")
    p.add_argument("--samples", type=_int_at_least(0), default=0, help="0 means the exact value")
    p.add_argument("--seed", type=int, default=0)

    p = command("lower-bound", cmd_lower_bound, "single-code max-alpha lower bound")
    p.add_argument("--alphabet-size", type=_int_at_least(2), required=True)
    p.add_argument("--m", type=_positive_int, required=True)

    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except CodeSpectraError as exc:
        report = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, TooLarge):
            report.update(needed=exc.needed, limit=exc.limit)
        print(json.dumps(report), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
