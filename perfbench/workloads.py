"""The three benchmark workloads: fixed job mixes, their inputs and oracles.

A workload is a list of slots, each a job kind at a fixed size.  One round
runs every slot once.  The seed and the round number only choose the random
contents (subspaces, generators, partitions, evaluation points, types, bound
arguments), so every round costs about the same and the mix is identical
across seeds.  Each job returns the package's result; its check is an oracle
that runs outside the job's timed span and raises ``CheckFailed``.

- ``mw_dual``: the transform layers (``genfun`` substitution, ``CycInt``
  arithmetic, ``enumerate_subspace``) do most of the work.
- ``enum_spectra``: the exhaustive ``q^n`` loops of ``spectra`` and ``mrd`` do
  most of the work; ``genfun`` does none.
- ``ensemble_design``: the same layers used differently -- thousands of tiny
  ``code_joint_spectrum`` calls, ``genfun`` products and coefficient
  extraction, the float bound chain, ``designer`` and the CLI.
"""

import itertools
import json
import math
import random
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable

# Package functions are looked up on their modules at call time, so that a
# traced run sees the calls that set-up and the jobs make.
from codespectra import cli, designer, genfun, gf, ldgm, linalg, mrd, serialize
from codespectra import macwilliams as mw
from codespectra import spectra as sp

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


class CheckFailed(Exception):
    """An oracle found a job result that differs from the reference."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Context:
    """What set-up leaves for the rounds: fields and a scratch directory."""

    workload: str
    seed: int
    tiny: bool
    fields: dict
    tmpdir: Path

    def close(self):
        shutil.rmtree(self.tmpdir, ignore_errors=True)


def setup(workload, seed, root, tiny=False):
    """Build the field tables of the workload and its scratch directory."""
    qs = WORKLOADS[workload].fields
    fields = {q: gf.field_make(*FIELDS[q]) for q in qs}
    tmpdir = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=root))
    return Context(workload, seed, tiny, fields, tmpdir)


def make_round(ctx, index):
    """The jobs of round ``index``: the workload's full mix, fresh contents."""
    rng = random.Random(f"{ctx.workload}:{ctx.seed}:{index}")
    spec = WORKLOADS[ctx.workload]
    return spec.build(ctx, rng, spec.tiny_slots if ctx.tiny else spec.slots, index)


# ---------------------------------------------------------------------------
# shared input generators and oracles


def random_matrix(rng, field, n, m):
    return tuple(tuple(rng.randrange(field.q) for _ in range(m)) for _ in range(n))


def random_full_rank(rng, field, n, m):
    while True:
        A = random_matrix(rng, field, n, m)
        if linalg.rank(field, A) == min(n, m):
            return A


def random_subspace(rng, field, n, dim):
    while True:
        A = mw.subspace_from_rows(field, random_matrix(rng, field, dim, n), n)
        if A.dim == dim:
            return A


def random_partition(rng, n, blocks):
    """Random coordinates in blocks of balanced sizes: the transform's cost
    depends on the sizes, so they are fixed by (n, blocks)."""
    coords = list(range(n))
    rng.shuffle(coords)
    return tuple(tuple(sorted(coords[b::blocks])) for b in range(blocks))


def span_members(field, rows, n):
    """Every vector of the span of ``rows`` (length n), by enumeration."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return [(0,) * n]
    return mw.enumerate_subspace(mw.subspace_from_rows(field, rows, n))


def check_json_roundtrip(g):
    text = json.dumps(serialize.genpoly_to_json(g))
    expect(serialize.genpoly_from_json(json.loads(text)) == g, "genpoly JSON round trip differs")


# ---------------------------------------------------------------------------
# mw_dual


def _check_transform(A, partition):
    def check(g):
        field = A.field
        members = mw.enumerate_subspace(mw.orthogonal(A))
        expect(A.size * len(members) == field.q**A.n, "|A| * |A dual| != q^n")
        if partition is None:
            want = genfun.genfun_of_set(members, field)
        else:
            want = genfun.genfun_from_uspectrum(sp.u_set_spectrum(members, field, partition))
        expect(g == want, "transform differs from the enumerated dual")
        check_json_roundtrip(g)

    return check


def _check_joint_transpose(field, A):
    def check(g):
        expect(g == mw.joint_transpose_reference(field, A), "joint transpose differs")
        check_json_roundtrip(g)

    return check


def mw_dual_round(ctx, rng, slots, index):
    jobs = []
    for slot in slots["transform"]:
        q, n, dim, blocks = slot
        field = ctx.fields[q]
        A = random_subspace(rng, field, n, dim)
        part = random_partition(rng, n, blocks) if blocks else None
        jobs.append(
            Job(
                f"mw_transform q={q} n={n} dim={dim} blocks={blocks}",
                lambda A=A, part=part: mw.mw_transform(A, partition=part),
                _check_transform(A, part),
            )
        )
    for q, n, m in slots["joint_transpose"]:
        field = ctx.fields[q]
        A = random_full_rank(rng, field, n, m)
        jobs.append(
            Job(
                f"mw_joint_transpose q={q} {n}x{m}",
                lambda field=field, A=A: mw.mw_joint_transpose(field, A),
                _check_joint_transpose(field, A),
            )
        )
    return jobs


MW_SLOTS = {
    # (q, n, dim, partition blocks; 0 = plain).  Dimensions are high enough
    # that most types occur in the subspace, so a slot's cost depends little
    # on the random draw.
    "transform": [
        (2, 14, 12, 0),
        (2, 13, 11, 0),
        (2, 12, 10, 0),
        (2, 12, 9, 1),
        (2, 11, 8, 0),
        (2, 11, 8, 2),
        (2, 10, 7, 0),
        (2, 10, 7, 3),
        (2, 10, 5, 0),
        (2, 10, 5, 2),
        (2, 8, 5, 3),
        (2, 8, 4, 0),
        (2, 8, 4, 1),
        (2, 6, 3, 0),
        (2, 6, 3, 3),
        (3, 6, 4, 0),
        (3, 6, 4, 2),
        (3, 6, 3, 0),
        (3, 6, 3, 2),
        (3, 6, 2, 0),
        (3, 5, 3, 2),
        (3, 5, 2, 1),
        (3, 4, 3, 2),
        (3, 4, 2, 0),
        (4, 4, 3, 0),
        (4, 4, 3, 2),
        (4, 4, 2, 0),
        (4, 4, 1, 3),
        (4, 3, 1, 1),
        (5, 3, 1, 0),
        (5, 3, 1, 2),
        (5, 3, 2, 0),
        (5, 2, 1, 2),
        (7, 3, 1, 0),
        (7, 2, 1, 0),
        (7, 2, 1, 2),
        (8, 3, 1, 0),
        (8, 2, 1, 0),
        (8, 2, 1, 2),
        (9, 3, 1, 0),
        (9, 2, 1, 0),
        (9, 2, 1, 2),
    ],
    # (q, n, m): full-rank matrices
    "joint_transpose": [
        (2, 4, 4),
        (2, 4, 3),
        (2, 3, 4),
        (2, 3, 3),
        (2, 2, 3),
        (3, 3, 3),
        (3, 3, 2),
        (3, 2, 3),
        (3, 2, 2),
    ],
}

MW_TINY = {
    "transform": [(2, 6, 3, 0), (2, 6, 3, 2), (3, 3, 1, 2), (4, 2, 1, 0), (9, 2, 1, 2)],
    "joint_transpose": [(2, 2, 2), (3, 2, 1)],
}


# ---------------------------------------------------------------------------
# enum_spectra


class CodeReference:
    """Reference spectra of one generator from linear algebra, not q^n loops:
    the image is the row space, the kernel the left null space."""

    def __init__(self, code):
        self.field = code.field
        self.gen = code.generator
        self.n, self.m = code.n, code.m
        # Zero-type mass of the kernel_spectrum job's result, kept for the
        # image_spectrum job's check, which runs after it.
        self.kernel_zero = None

    @cached_property
    def rank(self):
        return linalg.rank(self.field, self.gen)

    @cached_property
    def image_members(self):
        return span_members(self.field, self.gen, self.m)

    @cached_property
    def kernel_members(self):
        left_kernel = linalg.null_space(self.field, linalg.transpose(self.gen), self.n)
        return span_members(self.field, left_kernel, self.n)

    @cached_property
    def image(self):
        return sp.set_spectrum(self.image_members, self.field)

    @cached_property
    def kernel(self):
        return sp.set_spectrum(self.kernel_members, self.field)


def _check_joint(code, ref):
    def check(J):
        field, q, n = code.field, code.field.q, code.n
        expect(sum(J.values()) == 1, "joint spectrum does not sum to 1")
        expect(sp.joint_marginal(J, 0) == sp.space_spectrum(n, field), "x-marginal != space")
        expect(sp.joint_marginal(J, 1) == ref.image, "y-marginal != image spectrum")
        zero_out = sum(v for (_, Q), v in J.items() if Q.is_zero_type())
        expect(zero_out == Fraction(1, q**ref.rank), "P{f(x) = 0} != 1/q^rank")

    return check


def _check_kernel(code, ref):
    def check(K):
        q, n = code.field.q, code.n
        expect(sum(K.values()) == 1, "kernel spectrum does not sum to 1")
        zero = K.get(sp.zero_type(n, q), 0)
        expect(zero == Fraction(1, q ** (n - ref.rank)), "zero-type kernel mass != 1/q^(n-rank)")
        ref.kernel_zero = zero
        expect(K == ref.kernel, "kernel spectrum != enumerated left null space")

    return check


def _check_image(code, ref):
    def check(I):
        q, n, m = code.field.q, code.n, code.m
        expect(sum(I.values()) == 1, "image spectrum does not sum to 1")
        zero = I.get(sp.zero_type(m, q), 0)
        # |ker| * |im| = q^n, both read off the jobs' results; |ker| was
        # checked against linalg.rank, so this pins |im| = q^rank.
        expect(ref.kernel_zero is not None, "no kernel_spectrum result to pair with")
        expect(ref.kernel_zero * zero == Fraction(1, q**n), "|ker| * |im| != q^n")
        expect(I == ref.image, "image spectrum != enumerated row space")

    return check


def _check_rho(code):
    def check(r):
        bound = designer.single_code_lower_bound(code.field.q, code.m)
        expect(math.isfinite(r), "rho is not finite")
        expect(r * code.n >= math.log(bound) - 1e-9, "max alpha below the single-code floor")

    return check


def _gabidulin_spec(rng, q, n, m, k):
    """Gabidulin code at random GF(q)-independent evaluation points.

    An element of GF(q^r), q prime, is the integer whose base-q digits are its
    coordinates, so independence is the rank of the digit vectors.
    """
    r = max(n, m)
    base = gf.field_make(q)
    while True:
        points = tuple(rng.sample(range(1, q**r), min(n, m)))
        digits = [tuple(x // q**i % q for i in range(r)) for x in points]
        if linalg.rank(base, digits) == len(points):
            return mrd.gabidulin_make(q, n, m, k, points=points)


def _check_mrd(report):
    expect(report["size_ok"] and report["mrd_ok"], f"not an MRD code: {report}")


def _check_scc(x):
    def check(result):
        E, report = result
        expect(report["scc_good"], "ensemble reported not SCC-good")
        dist = sp.point_distribution(E, x)
        target = Fraction(1, E.field.q**E.m)
        expect(len(dist) == E.field.q**E.m, "F(x) misses some output")
        expect(all(p == target for p in dist.values()), "F(x) is not uniform")

    return check


def _check_kernel_stats(stats):
    expect(sum(stats["distribution"].values()) == 1, "kernel-size distribution does not sum to 1")
    expect(stats["mean"] == stats["expected_mean"], "E|ker| != 1 + (q^n - 1)/q^m")


def _spectrum_jobs(label, code):
    ref = CodeReference(code)
    return [
        Job(
            f"code_joint_spectrum {label}",
            lambda: sp.code_joint_spectrum(code),
            _check_joint(code, ref),
        ),
        Job(f"kernel_spectrum {label}", lambda: sp.kernel_spectrum(code), _check_kernel(code, ref)),
        Job(f"image_spectrum {label}", lambda: sp.image_spectrum(code), _check_image(code, ref)),
    ]


def enum_spectra_round(ctx, rng, slots, index):
    jobs = []
    for q, n, m in slots["dense"]:
        field = ctx.fields[q]
        code = sp.LinearCode(field, random_matrix(rng, field, n, m))
        jobs += _spectrum_jobs(f"dense q={q} {n}x{m}", code)
    for q, c, d, size in slots["ldgm"]:
        params = ldgm.LdgmParams(ctx.fields[q], c, d, size)
        code, _ = ldgm.ldgm_sample(params, rng.randrange(1 << 30))
        jobs += _spectrum_jobs(f"ldgm q={q} c={c} d={d} n={size}", code)
    for q, n, m in slots["rho"]:
        field = ctx.fields[q]
        code = sp.LinearCode(field, random_matrix(rng, field, n, m))
        E = sp.single_code_ensemble(code)
        jobs.append(Job(f"rho q={q} {n}x{m}", lambda E=E: sp.rho(E), _check_rho(code)))
    for q, n, m, k in slots["gabidulin"]:
        spec = _gabidulin_spec(rng, q, n, m, k)
        x = tuple(rng.randrange(q) for _ in range(n - 1)) + (1 + rng.randrange(q - 1),)
        label = f"q={q} n={n} m={m} k={k}"
        jobs += [
            Job(f"verify_mrd {label}", lambda spec=spec: mrd.verify_mrd(spec), _check_mrd),
            Job(f"verify_scc {label}", lambda spec=spec: _verify_scc(spec), _check_scc(x)),
            Job(
                f"kernel_stats {label}",
                lambda spec=spec: mrd.kernel_stats(mrd.gabidulin_ensemble(spec)),
                _check_kernel_stats,
            ),
        ]
    return jobs


def _verify_scc(spec):
    E = mrd.gabidulin_ensemble(spec)
    return E, mrd.verify_scc(E)


ENUM_SLOTS = {
    # (q, n, m): dense uniform random generators, m between n and 2n
    "dense": [
        (2, 8, 8),
        (2, 8, 12),
        (2, 8, 16),
        (2, 9, 13),
        (2, 10, 10),
        (2, 12, 12),
        (3, 5, 5),
        (3, 5, 8),
        (3, 6, 9),
        (3, 7, 10),
        (4, 4, 4),
        (4, 4, 8),
        (4, 5, 7),
        (5, 4, 4),
        (5, 4, 8),
        (8, 3, 5),
        (8, 4, 4),
        (9, 3, 3),
        (9, 3, 6),
    ],
    # (q, c, d, n): sparse LDGM generators of d'n inputs and c'n outputs
    "ldgm": [(2, 4, 2, 10), (2, 3, 2, 4), (3, 3, 2, 3), (4, 3, 2, 2)],
    # (q, n, m): rho of a single-code ensemble
    "rho": [(2, 6, 12), (2, 8, 12), (3, 4, 6)],
    # (q, n, m, k): Gabidulin ensembles
    "gabidulin": [(2, 4, 4, 2), (3, 3, 3, 1), (2, 3, 3, 2), (2, 4, 3, 1)],
}

ENUM_TINY = {
    "dense": [(2, 4, 6), (3, 3, 3), (9, 2, 2)],
    "ldgm": [(2, 4, 2, 3)],
    "rho": [(2, 3, 4)],
    "gabidulin": [(2, 2, 2, 1), (3, 2, 2, 2)],
}


# ---------------------------------------------------------------------------
# ensemble_design


def _check_ldgm_exact(params):
    def check(result):
        E, avg = result
        field = params.field
        expect(sum(p for _, p in E.support) == 1, "ensemble probabilities do not sum to 1")
        outs = sp.enumerate_types(params.out_len, field)
        for P in sp.enumerate_types(params.in_len, field):
            cond = sp.conditional_at(avg, P)
            for Q in outs:
                want = ldgm.ldgm_conditional_spectrum(params, P, Q)
                expect(cond.get(Q, 0) == want, f"ensemble conditional != formula at {P}, {Q}")

    return check


def _check_conditional_row(params, P):
    def check(row):
        expect(all(v >= 0 for v in row.values()), "negative conditional mass")
        expect(sum(row.values()) == 1, "conditional row does not sum to 1")
        if P.is_zero_type():
            zero = sp.zero_type(params.out_len, params.field.q)
            expect(row[zero] == 1, "zero input does not map to zero")

    return check


def _check_delta(q, d, x, y):
    def check(v):
        jv = ldgm.J(q, d, x, y)
        expect(v <= jv + 1e-9, "delta_qd > J")
        expect(jv <= ldgm.lemma2_bound(q, d, x, y) + 1e-9, "J > closed-form cap")

    return check


def _check_alpha_bound(params, P, Q):
    def check(v):
        q, c, d = params.field.q, params.c, params.d
        x, y = P.counts[0] / P.n, Q.counts[0] / Q.n
        cap = (c / d) * ldgm.J(q, d, x, y) + c * ldgm.Delta(ldgm.stretch_type(P, c))
        expect(math.isfinite(v), "alpha bound is not finite")
        expect(v <= cap + 1e-9, "alpha bound above its two-point cap")

    return check


def _check_design(q, outer_rate, delta, want=None):
    def check(cert):
        r0 = Fraction(cert["inner_rate"])
        d, c = cert["d"], cert["c"]
        expect(cert["ok"] and cert["bound"] <= delta + 1e-12, "design misses its target")
        expect(Fraction(d, c) == r0, "d/c != inner rate")
        if d > r0.numerator:
            looser = ldgm.rho0_of(q, float(r0), cert["gamma"], d - r0.numerator)
            expect(looser > delta * float(outer_rate), "a smaller check degree meets the target")
        if want is not None:
            expect((d, c) == want, f"design gives d={d} c={c}, want {want}")

    return check


def _check_uniform_alpha(result):
    expect(sum(p for _, p in result.support) == 1, "probabilities do not sum to 1")
    for (P, _), a in sp.alpha_table(result).items():
        expect(P.is_zero_type() or a == 1, f"alpha != 1 at nonzero input type {P}")


def _check_compose(outer, inner):
    """Expected interleaved ensemble, built by direct index permutation."""

    def check(result):
        field = outer.field
        mid = outer.m
        want = {}
        perms = list(itertools.permutations(range(mid)))
        for sigma in perms:
            left = [[row[sigma.index(j)] for j in range(mid)] for row in outer.generator]
            gen = tuple(
                tuple(
                    _dot(field, row, [inner.generator[t][j] for t in range(mid)])
                    for j in range(inner.m)
                )
                for row in left
            )
            want[gen] = want.get(gen, 0) + Fraction(1, len(perms))
        if isinstance(result, sp.LinearCode):
            got = {result.generator: Fraction(1)}
        else:
            got = {code.generator: p for code, p in result.support}
        expect(got == want, "concatenation ensemble differs from direct products")

    return check


def _dot(field, a, b):
    acc = 0
    for x, y in zip(a, b):
        acc = field.add(acc, field.mul(x, y))
    return acc


def _check_equivalence(code, side):
    """P{survives} = prod_{i<r} (1 - q^(i-s)): r = rank, s the side length."""

    def check(res):
        q, r = code.field.q, linalg.rank(code.field, code.generator)
        s = code.m if side == 1 else code.n
        want = math.prod((1 - Fraction(1, q ** (s - i)) for i in range(r)), start=Fraction(1))
        expect(res["probability"] == want, f"probability {res['probability']} != {want}")

    return check


def _check_lower_bound(code):
    def check(res):
        q, m = code.field.q, code.m
        base, extra = divmod(m, q)
        counts = [base + 1] * extra + [base] * (q - extra)
        largest = math.factorial(m) // math.prod(math.factorial(c) for c in counts)
        expect(res["bound"] == Fraction(q**m, largest), "wrong single-code floor")
        expect(res["ok"] and res["max_alpha"] >= res["bound"], "max alpha below the floor")

    return check


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _cli_jobs(ctx, rng, index, slots):
    """The README subcommands, in process, writing into the scratch directory."""
    f2 = ctx.fields[2]
    d = ctx.tmpdir
    code = random_matrix(rng, f2, 3, 6)
    outer = random_matrix(rng, f2, 3, 5)
    inner = random_matrix(rng, f2, 5, 8)
    paths = {name: d / f"r{index}-{name}.txt" for name in ("code", "outer", "inner")}
    for name, rows in (("code", code), ("outer", outer), ("inner", inner)):
        paths[name].write_text(serialize.matrix_to_text(2, rows))
    dual_members = span_members(f2, linalg.null_space(f2, code, 6), 6)
    p0, q0 = rng.randrange(1, 16) / 16, rng.randrange(1, 8) / 8
    lb_m = rng.randrange(4, 17)
    seed = rng.randrange(1 << 16)

    def out(i):
        return d / f"r{index}-out{i}.json"

    def json_check(i, test):
        def check(code_):
            expect(code_ == 0, f"exit code {code_}")
            test(_read_json(out(i)))

        return check

    def check_dual(obj):
        want = sp.set_spectrum(dual_members, f2)
        expect(serialize.spectrum_from_json(obj) == want, "dual spectrum")

    def check_mw(obj):
        want = genfun.genfun_of_set(dual_members, f2)
        expect(serialize.genpoly_from_json(obj) == want, "macwilliams output")

    def check_emit(i):
        def check(code_):
            expect(code_ == 0, f"exit code {code_}")
            blocks = [b for b in out(i).read_text().split("\n\n") if b.strip()]
            expect(len(blocks) == 4, "gabidulin --emit: wrong codeword count")
            for b in blocks:
                serialize.matrix_from_text(b)

        return check

    def check_sample(i):
        def check(code_):
            expect(code_ == 0, f"exit code {code_}")
            _, rows = serialize.matrix_from_text(out(i).read_text())
            edges = _read_json(str(out(i)) + ".edges.json")["edges"]
            params = ldgm.LdgmParams(f2, 2, 4, 16)
            shape = (len(rows), len(rows[0]), len(edges))
            want = (params.in_len, params.out_len, params.mid_len)
            expect(shape == want, f"ldgm-sample: shape {shape}, want {want}")

        return check

    def check_compose(i):
        def check(code_):
            expect(code_ == 0, f"exit code {code_}")
            q, rows = serialize.matrix_from_text(out(i).read_text())
            expect(q == 2 and len(rows) == 3 and len(rows[0]) == 8, "compose: wrong shape")

        return check

    def check_bound(obj):
        expect(obj["delta_qd"] <= obj["J"] + 1e-9, "ldgm-bound: delta_qd > J")

    def check_lb(obj):
        want = designer.single_code_lower_bound(2, lb_m)
        expect(Fraction(int(obj["bound_num"]), int(obj["bound_den"])) == want, "lower-bound")

    commands = [
        (["dual", str(paths["code"])], lambda i: json_check(i, check_dual)),
        (["macwilliams", str(paths["code"])], lambda i: json_check(i, check_mw)),
        (
            ["gabidulin", "--q", "2", "--n", "2", "--m", "2", "--k", "1", "--verify", "mrd"],
            lambda i: json_check(i, lambda o: expect(o["mrd_ok"], "gabidulin mrd")),
        ),
        (
            ["gabidulin", "--q", "2", "--n", "2", "--m", "2", "--k", "2", "--verify", "kernel"],
            lambda i: json_check(i, lambda o: expect(o["mean"] == o["expected_mean"], "kernel")),
        ),
        (["gabidulin", "--q", "2", "--n", "2", "--m", "2", "--k", "1", "--emit"], check_emit),
        (
            ["ldgm-bound", "--q", "2", "--c", "2", "--d", "4", "--n", "8"]
            + ["--p0", str(p0), "--q0", str(q0)],
            lambda i: json_check(i, check_bound),
        ),
        (
            ["ldgm-sample", "--q", "2", "--c", "2", "--d", "4", "--n", "16", "--seed", str(seed)],
            check_sample,
        ),
        (
            ["design", "--q", "2", "--outer-rate", "1/5", "--p0-min", "0.05"]
            + ["--p0-max", "0.95", "--delta", "0.05"],
            lambda i: json_check(i, lambda o: expect((o["d"], o["c"]) == (35, 14), "design")),
        ),
        (
            ["compose", "--outer", str(paths["outer"]), "--inner", str(paths["inner"])]
            + ["--seed", str(seed)],
            check_compose,
        ),
        (
            ["verify-equivalence", "--mode", "g1", "--q", "2", "--n", "2"],
            lambda i: json_check(i, lambda o: expect(o["probability"] == "3/8", "g1")),
        ),
        (
            ["lower-bound", "--alphabet-size", "2", "--m", str(lb_m)],
            lambda i: json_check(i, check_lb),
        ),
    ]
    if slots["cli"] < len(commands):
        commands = commands[: slots["cli"]]
    return [
        Job(
            f"cli {argv[0]}",
            lambda argv=argv, i=i: cli.main(argv + ["--out", str(out(i))]),
            make_check(i),
        )
        for i, (argv, make_check) in enumerate(commands)
    ]


def _random_type(rng, n, field, interior=False):
    types = sp.enumerate_types(n, field)
    if interior:
        types = [T for T in types if 0 < T.counts[0] < n]
    return rng.choice(types)


def ensemble_design_round(ctx, rng, slots, index):
    jobs = []
    for q, c, d, n in slots["ldgm_exact"]:
        params = ldgm.LdgmParams(ctx.fields[q], c, d, n)
        jobs.append(
            Job(
                f"ldgm_ensemble_exact q={q} c={c} d={d} n={n}",
                lambda params=params: _exact_and_average(params),
                _check_ldgm_exact(params),
            )
        )
    for q, c, d, n in slots["conditional"]:
        params = ldgm.LdgmParams(ctx.fields[q], c, d, n)
        P = _random_type(rng, params.in_len, params.field)
        outs = sp.enumerate_types(params.out_len, params.field)
        jobs.append(
            Job(
                f"ldgm_conditional_spectrum q={q} c={c} d={d} n={n}",
                lambda params=params, P=P, outs=outs: {
                    Q: ldgm.ldgm_conditional_spectrum(params, P, Q) for Q in outs
                },
                _check_conditional_row(params, P),
            )
        )
    for q, d in slots["delta_qd"]:
        x, y = rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)
        jobs.append(
            Job(
                f"delta_qd q={q} d={d}",
                lambda q=q, d=d, x=x, y=y: ldgm.delta_qd(q, d, x, y),
                _check_delta(q, d, x, y),
            )
        )
    for q, c, d, n in slots["alpha_bound"]:
        params = ldgm.LdgmParams(ctx.fields[q], c, d, n)
        P = _random_type(rng, params.in_len, params.field, interior=True)
        Q = _random_type(rng, params.out_len, params.field, interior=True)
        jobs.append(
            Job(
                f"ldgm_alpha_bound q={q} c={c} d={d} n={n}",
                lambda params=params, P=P, Q=Q: ldgm.ldgm_alpha_bound(params, P, Q),
                _check_alpha_bound(params, P, Q),
            )
        )
    jobs.append(
        Job(
            "design_concat reference",
            lambda: designer.design_concat(2, Fraction(1, 5), 0.05, 0.95, 0.05),
            _check_design(2, Fraction(1, 5), 0.05, want=(35, 14)),
        )
    )
    for q in slots["design"]:
        rate = rng.choice((Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)))
        lo = rng.uniform(0.01, 1 / q - 0.01)
        hi = rng.uniform(1 / q + 0.01, 1 - 0.01)
        delta = rng.uniform(0.03, 0.1)
        jobs.append(
            Job(
                f"design_concat q={q}",
                lambda q=q, rate=rate, lo=lo, hi=hi, delta=delta: designer.design_concat(
                    q, rate, lo, hi, delta
                ),
                _check_design(q, rate, delta),
            )
        )
    for q, n, m in slots["randomize"]:
        E = sp.all_matrices_ensemble(ctx.fields[q], n, m)
        jobs.append(
            Job(
                f"randomize both q={q} {n}x{m}",
                lambda E=E: sp.randomize(E, "both"),
                _check_uniform_alpha,
            )
        )
    f2 = ctx.fields[2]
    for n, mid, m in slots["compose"]:
        outer = sp.LinearCode(f2, random_matrix(rng, f2, n, mid))
        inner = sp.LinearCode(f2, random_matrix(rng, f2, mid, m))
        jobs.append(
            Job(
                f"compose uniform {n}x{mid}x{m}",
                lambda outer=outer, inner=inner: designer.compose(outer, inner, uniform=True),
                _check_compose(outer, inner),
            )
        )
    for side in slots["equivalence"]:
        code = sp.LinearCode(f2, random_matrix(rng, f2, 3, 3))
        jobs.append(
            Job(
                f"equivalence_G{side} 3x3",
                lambda side=side, code=code: getattr(designer, f"equivalence_G{side}")(
                    code, exact=True
                ),
                _check_equivalence(code, side),
            )
        )
    for n, m in slots["lower_bound"]:
        code = sp.LinearCode(f2, random_matrix(rng, f2, n, m))
        jobs.append(
            Job(
                f"check_lower_bound {n}x{m}",
                lambda code=code: designer.check_lower_bound(code),
                _check_lower_bound(code),
            )
        )
    return jobs + _cli_jobs(ctx, rng, index, slots)


def _exact_and_average(params):
    E = ldgm.ldgm_ensemble_exact(params)
    return E, sp.ensemble_avg_joint_spectrum(E)


# The mix puts the delta_qd/alpha-bound evaluations (about 37 ms each,
# whatever the arguments) across the median and the heavier exact expansions
# across the 90th percentile, so each of those layers sets one of the two.
DESIGN_SLOTS = {
    # (q, c, d, n) with intermediate length c d' n <= 8
    "ldgm_exact": [(2, 2, 4, 2), (2, 1, 3, 2), (2, 2, 2, 3), (2, 3, 2, 1)]
    + [(2, 1, 2, 3), (3, 1, 2, 2)] * 5,
    "conditional": [
        (2, 2, 4, 8),
        (2, 4, 8, 4),
        (3, 2, 4, 3),
        (3, 1, 2, 3),
        (3, 2, 2, 3),
        (2, 14, 35, 1),
    ],
    # (q, d)
    "delta_qd": [(2, 3), (2, 4), (2, 6), (2, 35), (3, 4), (3, 2)] * 5,
    "alpha_bound": [(2, 2, 4, 4), (2, 4, 8, 2), (3, 2, 4, 2)] * 2,
    "design": [2, 3],
    # (q, n, m) with n m <= 6
    "randomize": [(2, 2, 3), (2, 3, 2), (2, 2, 2), (3, 2, 2)],
    # (n, mid, m) binary, mid <= 5
    "compose": [(2, 5, 3), (3, 5, 4), (3, 4, 5), (2, 5, 5)],
    "equivalence": [1, 2],
    "lower_bound": [(5, 10), (6, 12), (8, 12)],
    "cli": 11,
}

DESIGN_TINY = {
    "ldgm_exact": [(2, 1, 2, 2), (3, 1, 2, 1)],
    "conditional": [(2, 2, 4, 2), (3, 1, 2, 1)],
    "delta_qd": [(2, 3)],
    "alpha_bound": [(2, 2, 4, 2)],
    "design": [3],
    "randomize": [(2, 1, 2)],
    "compose": [(1, 3, 2)],
    "equivalence": [1, 2],
    "lower_bound": [(2, 4)],
    "cli": 11,
}


@dataclass(frozen=True)
class Workload:
    build: Callable
    slots: dict
    tiny_slots: dict
    fields: tuple


WORKLOADS = {
    "mw_dual": Workload(mw_dual_round, MW_SLOTS, MW_TINY, (2, 3, 4, 5, 7, 8, 9)),
    "enum_spectra": Workload(enum_spectra_round, ENUM_SLOTS, ENUM_TINY, (2, 3, 4, 5, 8, 9)),
    "ensemble_design": Workload(ensemble_design_round, DESIGN_SLOTS, DESIGN_TINY, (2, 3)),
}
