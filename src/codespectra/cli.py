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
import sys
from fractions import Fraction

from . import designer, ldgm, macwilliams, mrd, serialize
from .errors import CodeSpectraError, DimensionMismatch, DomainError, TooLarge
from .gf import field_make
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
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _read_matrix(path):
    with open(path) as fh:
        return serialize.matrix_from_text(fh.read())


def cmd_dual(args):
    q, rows = _read_matrix(args.matrix)
    field = field_make(*_split_q(q))
    A = macwilliams.subspace_from_rows(field, rows)
    dual = macwilliams.orthogonal(A)
    members = macwilliams.enumerate_subspace(dual)
    spec = set_spectrum(members, field)
    _emit(args, serialize.spectrum_to_json(spec, q, A.n))


def cmd_macwilliams(args):
    q, rows = _read_matrix(args.matrix)
    field = field_make(*_split_q(q))
    A = macwilliams.subspace_from_rows(field, rows)
    _emit(args, serialize.genpoly_to_json(macwilliams.mw_transform(A)))


def _split_q(q):
    """Factor q = p^r for field construction."""
    for p in range(2, q + 1):
        r = 0
        t = q
        while t % p == 0:
            t //= p
            r += 1
        if t == 1 and r >= 1:
            return p, r
        if q % p == 0:
            break
    raise DomainError(f"q = {q} is not a prime power")


def cmd_gabidulin(args):
    spec = mrd.gabidulin_make(args.q, args.n, args.m, args.k)
    out = {}
    if args.emit:
        blocks = []
        for cw in mrd.enumerate_code(spec):
            blocks.append(serialize.matrix_to_text(args.q, cw.entries))
        _emit(args, "\n".join(blocks))
        return
    if args.verify == "mrd":
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
    field = field_make(*_split_q(args.q))
    params = ldgm.LdgmParams(field, args.c, args.d, args.n)
    P = _type_near(args.p0, params.in_len, args.q)
    Q = _type_near(args.q0, params.out_len, args.q)
    out = {
        "p0": float(P.counts[0] / P.n),
        "q0": float(Q.counts[0] / Q.n),
        "delta_qd": ldgm.delta_qd(args.q, args.d, P.counts[0] / P.n, Q.counts[0] / Q.n),
        "J": ldgm.J(args.q, args.d, P.counts[0] / P.n, Q.counts[0] / Q.n),
        "alpha_bound": ldgm.ldgm_alpha_bound(params, P, Q),
    }
    _emit(args, out)


def cmd_ldgm_sample(args):
    field = field_make(*_split_q(args.q))
    params = ldgm.LdgmParams(field, args.c, args.d, args.n)
    code, edges = ldgm.ldgm_sample(params, args.seed)
    text = serialize.matrix_to_text(args.q, code.generator)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        with open(args.out + ".edges.json", "w") as fh:
            json.dump({"edges": edges}, fh)
    else:
        print(text)
        print(json.dumps({"edges": edges}))


def cmd_design(args):
    out = designer.design_concat(args.q, args.outer_rate, args.p0_min, args.p0_max, args.delta)
    _emit(args, out)


def cmd_compose(args):
    q, outer_rows = _read_matrix(args.outer)
    q2, inner_rows = _read_matrix(args.inner)
    if q != q2:
        raise DimensionMismatch(f"outer matrix is over GF({q}), inner over GF({q2})")
    field = field_make(*_split_q(q))
    outer = LinearCode(field, outer_rows)
    inner = LinearCode(field, inner_rows)
    if args.perm:
        with open(args.perm) as fh:
            perm = serialize._integers(fh.read().split())
    else:
        import random

        rng = random.Random(args.seed)
        perm = list(range(outer.m))
        rng.shuffle(perm)
        perm = tuple(perm)
    code = designer.compose(outer, inner, perm=perm)
    _emit(args, serialize.matrix_to_text(q, code.generator))


def cmd_verify_equivalence(args):
    if args.matrix:
        q, rows = _read_matrix(args.matrix)
        if args.q not in (None, q):
            raise DimensionMismatch(f"matrix is over GF({q}), --q is {args.q}")
    else:
        q = 2 if args.q is None else args.q
        rows = tuple(tuple(1 if i == j else 0 for j in range(args.n)) for i in range(args.n))
    code = LinearCode(field_make(*_split_q(q)), rows)
    fn = designer.equivalence_G1 if args.mode == "g1" else designer.equivalence_G2
    exact = args.samples == 0
    out = fn(code, exact=exact, samples=args.samples or 10**5, seed=args.seed)
    out["probability"] = str(out["probability"]) if exact else out["probability"]
    out["kq"] = float(out["kq"])
    out["exceeds_kq"] = float(Fraction(out["probability"]) if exact else out["probability"]) > out["kq"]
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

    p = sub.add_parser("dual", help="spectrum of the orthogonal complement")
    p.add_argument("matrix")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("macwilliams", help="dual generating function by character substitution")
    p.add_argument("matrix")
    p.add_argument("--out")
    p.set_defaults(func=cmd_macwilliams)

    p = sub.add_parser("gabidulin", help="build or verify a Gabidulin code")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit", action="store_true")
    p.add_argument("--verify", choices=["mrd", "scc", "kernel"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_gabidulin)

    p = sub.add_parser("ldgm-bound", help="evaluate the LDGM spectrum bound")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--c", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--p0", type=_unit_float, required=True)
    p.add_argument("--q0", type=_unit_float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ldgm_bound)

    p = sub.add_parser("ldgm-sample", help="draw a sparse LDGM generator")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--c", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ldgm_sample)

    p = sub.add_parser("design", help="choose inner LDGM parameters")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--outer-rate", type=_positive_fraction, required=True)
    p.add_argument("--p0-min", type=float, required=True)
    p.add_argument("--p0-max", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("compose", help="concatenate two codes through an interleaver")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--perm")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("verify-equivalence", help="kernel/image preservation probability")
    p.add_argument("--mode", choices=["g1", "g2"], required=True)
    p.add_argument("--q", type=int, help="default: the matrix file's q, else 2")
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--matrix")
    p.add_argument("--samples", type=_int_at_least(0), default=0, help="0 means the exact value")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_equivalence)

    p = sub.add_parser("lower-bound", help="single-code max-alpha lower bound")
    p.add_argument("--alphabet-size", type=_int_at_least(2), required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lower_bound)

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
