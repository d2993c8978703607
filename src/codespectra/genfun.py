"""Sparse exact multivariate polynomials for spectrum generating functions.

A variable is a pair (block, symbol): block tags which vector of
indeterminates it belongs to (e.g. "u", "v", or ("u", block_index) for
partitioned spectra) and symbol is the field element in [0, q).  Coefficients
are Fractions or ints.
"""

from fractions import Fraction

from .errors import DomainError, NotARefinement
from .spectra import set_spectrum


def _var_key(v):
    return (str(v[0]), v[1])


class GenPoly:
    """Immutable sparse polynomial: vars tuple + {exponent tuple: coefficient}."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        order = sorted(range(len(vars)), key=lambda i: _var_key(vars[i]))
        self.vars = tuple(vars[i] for i in order)
        clean = {}
        for exp, c in terms.items():
            if c == 0:
                continue
            key = tuple(exp[i] for i in order)
            if key in clean:
                c = clean[key] + c
                if c == 0:
                    del clean[key]
                    continue
            clean[key] = c
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value):
        return cls((), {(): value} if value != 0 else {})

    @classmethod
    def variable(cls, var):
        return cls((var,), {(1,): 1})

    def _align(self, other):
        merged = sorted(set(self.vars) | set(other.vars), key=_var_key)
        idx = {v: i for i, v in enumerate(merged)}

        def remap(poly):
            pos = [idx[v] for v in poly.vars]
            out = {}
            for exp, c in poly.terms.items():
                new = [0] * len(merged)
                for p, e in zip(pos, exp):
                    new[p] = e
                out[tuple(new)] = c
            return out

        return tuple(merged), remap(self), remap(other)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GenPoly):
            other = GenPoly.constant(other)
        vars, t1, t2 = self._align(other)
        for exp, c in t2.items():
            t1[exp] = t1.get(exp, 0) + c
        return GenPoly(vars, t1)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, GenPoly):
            other = GenPoly.constant(other)
        return self + other.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, GenPoly):
            return self.scale(other)
        vars, t1, t2 = self._align(other)
        out = {}
        for e1, c1 in t1.items():
            for e2, c2 in t2.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, 0) + c1 * c2
        return GenPoly(vars, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, factor):
        return GenPoly(self.vars, {e: factor * c for e, c in self.terms.items()})

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise DomainError(f"exponent must be a non-negative int, got {k!r}")
        result = GenPoly.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, GenPoly):
            other = GenPoly.constant(other)
        _, t1, t2 = self._align(other)
        keys = set(t1) | set(t2)
        for k in keys:
            if t1.get(k, 0) != t2.get(k, 0):
                return False
        return True

    def __hash__(self):
        raise TypeError("GenPoly is not hashable")

    def __repr__(self):
        parts = []
        for exp, c in sorted(self.terms.items()):
            mono = "*".join(
                f"{b}[{a}]^{e}" if e != 1 else f"{b}[{a}]"
                for (b, a), e in zip(self.vars, exp)
                if e
            )
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts) or "0"

    # -- substitution --------------------------------------------------------

    def substitute(self, mapping):
        """Replace each variable in the mapping by a GenPoly and expand."""
        result = GenPoly.constant(0)
        for exp, c in self.terms.items():
            term = GenPoly.constant(c)
            for v, e in zip(self.vars, exp):
                if e == 0:
                    continue
                repl = mapping.get(v)
                if repl is None:
                    repl = GenPoly.variable(v)
                elif not isinstance(repl, GenPoly):
                    repl = GenPoly.constant(repl)
                term = term * repl**e
            result = result + term
        return result

    def coef(self, exponent):
        """Exact coefficient of a monomial given as a {var: exp} mapping."""
        want = tuple(exponent.get(v, 0) for v in self.vars)
        for v, e in exponent.items():
            if e != 0 and v not in self.vars:
                return Fraction(0)
        return self.terms.get(want, Fraction(0))


# ---------------------------------------------------------------------------
# spectrum generating functions


def genfun_from_spectrum(spec, block="u"):
    """G(u) = sum over types P of S(P) * u^{nP}."""
    q = next(iter(spec)).q
    vars = tuple((block, a) for a in range(q))
    terms = {}
    for P, mass in spec.items():
        terms[P.counts] = terms.get(P.counts, 0) + mass
    return GenPoly(vars, terms)


def genfun_of_set(A, field, block="u"):
    return genfun_from_spectrum(set_spectrum(A, field), block)


def genfun_from_joint(J, block_x="u", block_y="v"):
    q = next(iter(J))[0].q
    vars = tuple((block_x, a) for a in range(q)) + tuple((block_y, a) for a in range(q))
    terms = {}
    for (P, Q), mass in J.items():
        terms[P.counts + Q.counts] = terms.get(P.counts + Q.counts, 0) + mass
    return GenPoly(vars, terms)


def genfun_from_uspectrum(uspec, prefix="u"):
    """Partitioned generating function: one variable vector per block."""
    key0 = next(iter(uspec))
    q = key0[0].q
    nblocks = len(key0)
    vars = tuple(((prefix, b), a) for b in range(nblocks) for a in range(q))
    terms = {}
    for key, mass in uspec.items():
        exp = tuple(c for P in key for c in P.counts)
        terms[exp] = terms.get(exp, 0) + mass
    return GenPoly(vars, terms)


def merge_refinement(p, coarse, fine, prefix="u"):
    """Identify fine-partition variable blocks lying in the same coarse block.

    p must be a partitioned generating function with variables
    ((prefix, fine_block_index), symbol).  Raises NotARefinement when some
    fine block straddles two coarse blocks.
    """
    coarse = [frozenset(b) for b in coarse]
    fine = [frozenset(b) for b in fine]
    target = {}
    for fi, fb in enumerate(fine):
        homes = [ci for ci, cb in enumerate(coarse) if fb <= cb]
        if len(homes) != 1:
            raise NotARefinement(f"fine block {sorted(fb)} is not inside one coarse block")
        target[fi] = homes[0]
    mapping = {}
    for v in p.vars:
        (pfx, fi), a = v
        if pfx != prefix:
            continue
        mapping[v] = GenPoly.variable(((prefix, target[fi]), a))
    return p.substitute(mapping)
