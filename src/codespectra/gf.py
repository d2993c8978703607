"""Exact finite-field arithmetic GF(p^r) and cyclotomic integers.

Field elements are plain integers in [0, q) encoding the coefficients of the
polynomial-basis representation in base p (the constant term is the lowest
digit).  CycInt holds Z[zeta_p] exactly; a character value zeta^Tr(x) is
CycInt.zeta_power(p, field.trace(x)), so character sums compare with equality.
"""

from fractions import Fraction
from functools import lru_cache

from .errors import FieldTooLarge, NonPrimeP, ReducibleModulus

FIELD_SIZE_LIMIT = 1 << 16


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# cyclotomic integers


class CycInt:
    """Element of Q(zeta_p) written in the spanning set 1, zeta, ..., zeta^{p-1}.

    Canonical form subtracts the last coordinate times the all-ones vector
    (which is zero by 1 + zeta + ... + zeta^{p-1} = 0), so equality is exact.
    Coefficients may be Fractions; purely integral values stay integral.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        if len(coeffs) != p:
            raise ValueError("coefficient vector must have length p")
        last = coeffs[-1]
        self.p = p
        self.coeffs = tuple(c - last for c in coeffs)

    @classmethod
    def zeta_power(cls, p, k):
        coeffs = [0] * p
        coeffs[k % p] = 1
        return cls(p, coeffs)

    @classmethod
    def from_rational(cls, p, value):
        coeffs = [0] * p
        coeffs[0] = value
        return cls(p, coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycInt(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycInt(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CycInt(self.p, [-a for a in self.coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        out = [0] * p
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                out[(i + j) % p] += a * b
        return CycInt(p, out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, CycInt):
            if other.p != self.p:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return CycInt.from_rational(self.p, other)
        return NotImplemented

    def conjugate(self):
        p = self.p
        out = [0] * p
        for i, a in enumerate(self.coeffs):
            out[(-i) % p] = a
        return CycInt(p, out)

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError(f"not a rational cyclotomic value: {self.coeffs}")
        return self.coeffs[0]

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"CycInt(p={self.p}, {self.coeffs})"


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), coefficients as integer tuples (low first)


def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    lead_inv = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and any(a):
        a = list(_poly_trim(a))
        if len(a) - 1 < dm:
            break
        shift = len(a) - 1 - dm
        factor = (a[-1] * lead_inv) % p
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
    return _poly_trim(a)


def _poly_mulmod(a, b, m, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, m, p)


def _monic_polys(p, degree):
    def rec(d):
        if d == 0:
            yield ()
            return
        for low in rec(d - 1):
            for c in range(p):
                yield low + (c,)

    for lower in rec(degree):
        yield lower + (1,)


def is_irreducible(modulus, p):
    """Trial division by every lower-degree monic polynomial."""
    modulus = _poly_trim(modulus)
    r = len(modulus) - 1
    if r < 1:
        return False
    if r == 1:
        return True
    for d in range(1, r // 2 + 1):
        for g in _monic_polys(p, d):
            if not _poly_mod(modulus, g, p):
                return False
    return True


@lru_cache(maxsize=None)
def default_modulus(p, r):
    """Smallest monic irreducible polynomial of degree r over GF(p)."""
    if r == 1:
        return (0, 1)
    for g in _monic_polys(p, r):
        if is_irreducible(g, p):
            return g
    raise AssertionError("no irreducible polynomial found")


# ---------------------------------------------------------------------------
# the field itself


class FieldSpec:
    """Immutable GF(p^r) with log/exp, Zech-logarithm, negation and trace tables.

    Every operation is a table lookup.  With g = self.generator, a nonzero a
    is g^log[a]; addition uses Zech's logarithm, 1 + g^k = g^zech[k], so
    a + b = g^(log a + zech[log b - log a]) (Lidl & Niederreiter, Finite
    Fields, 10.3).
    """

    def __init__(self, p, r, modulus):
        self.p = p
        self.r = r
        self.q = p**r
        self.modulus = modulus
        self._build_tables()

    def _build_tables(self):
        p, r, q = self.p, self.r, self.q
        # base-p digits of every element, lowest first: v = low + d * p^i
        digits = [()]
        for _ in range(r):
            digits = [low + (d,) for d in range(p) for low in digits]
        self._digits = digits
        # the smallest element of order q - 1; 0 if there is none, which
        # fails the check on the walk below
        factors = _prime_factors(q - 1)
        self.generator = g = next(
            (g for g in range(1, q) if all(self._pow_poly(g, (q - 1) // f) != 1 for f in factors)),
            0,
        )
        # v -> g v is GF(p)-linear: build it from the images of the basis powers
        times_g = [(0,) * r]
        for i in range(r):
            row = digits[self._mul_poly(g, p**i)]
            times_g = [
                tuple([(a + d * b) % p for a, b in zip(low, row)]) for d in range(p) for low in times_g
            ]
        times_g = [self._from_digits(v) for v in times_g]
        exp = [1]
        for _ in range(q - 2):
            exp.append(times_g[exp[-1]])
        if times_g[exp[-1]] != 1 or len(set(exp)) != q - 1:
            raise ReducibleModulus(f"{self.modulus} does not define a field")
        self._log = log = [0] * q
        for k, v in enumerate(exp):
            log[v] = k
        # Exponents up to 2(q - 2) index the doubled table; the zero tail
        # holds the sums that vanish, which zech marks as 2(q - 1).
        self._exp = exp + exp + [0] * (q - 1)
        # adding 1 changes only the lowest base-p digit
        one_plus = (v + 1 if v % p != p - 1 else v - (p - 1) for v in exp)
        self._zech = [log[s] if s else 2 * (q - 1) for s in one_plus]
        minus_one = log[p - 1]
        self._neg = [0] + [self._exp[log[a] + minus_one] for a in range(1, q)]
        # the trace is GF(p)-linear, so it follows from Tr(x^i), i < r
        trace = [0]
        for i in range(r):
            acc, x = 0, p**i
            for _ in range(r):
                acc = self.add(acc, x)
                x = self.pow(x, p)
            trace = [(t + d * acc) % p for d in range(p) for t in trace]
        self._trace = trace

    def _from_digits(self, digits):
        value = 0
        for d in reversed(digits):
            value = value * self.p + d
        return value

    def _mul_poly(self, a, b):
        prod = _poly_mulmod(
            _poly_trim(self._digits[a]), _poly_trim(self._digits[b]), self.modulus, self.p
        )
        return self._from_digits(prod + (0,) * (self.r - len(prod)))

    def _pow_poly(self, a, e):
        acc = 1
        while e:
            if e & 1:
                acc = self._mul_poly(acc, a)
            a = self._mul_poly(a, a)
            e >>= 1
        return acc

    # -- public arithmetic ---------------------------------------------------

    @property
    def elements(self):
        return range(self.q)

    def add(self, a, b):
        if a and b:
            la = self._log[a]
            # a + b = g^la (1 + g^(lb - la)); a negative index wraps mod q - 1
            return self._exp[la + self._zech[self._log[b] - la]]
        return a or b

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self.add(a, self._neg[b])

    def mul(self, a, b):
        if a and b:
            return self._exp[self._log[a] + self._log[b]]
        return 0

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a, e):
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def trace(self, a):
        """Tr(a) = a + a^p + ... + a^{p^{r-1}}, an element of GF(p)."""
        return self._trace[a]

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.r, self.modulus) == (other.p, other.r, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))

    def __repr__(self):
        return f"FieldSpec(GF({self.p}^{self.r}), modulus={self.modulus})"


@lru_cache(maxsize=None)
def field_make(p, r=1, modulus=None):
    """GF(p^r).  The size is decided before p's primality, so an oversized p is
    never trial-divided, and p^r is never formed once 2^r alone is too large."""
    if p < 2:
        raise NonPrimeP(f"{p} is not prime")
    if r < 1:
        raise ValueError("extension degree must be >= 1")
    if r >= FIELD_SIZE_LIMIT.bit_length() or p**r > FIELD_SIZE_LIMIT:
        raise FieldTooLarge(f"GF(p^r) with p = {p}, r = {r} exceeds limit {FIELD_SIZE_LIMIT}")
    if not is_prime(p):
        raise NonPrimeP(f"{p} is not prime")
    if modulus is None:
        modulus = default_modulus(p, r)
    else:
        modulus = _poly_trim(tuple(c % p for c in modulus))
        if len(modulus) - 1 != r:
            raise ReducibleModulus("modulus degree must equal r")
        if not is_irreducible(modulus, p):
            raise ReducibleModulus(f"{modulus} is reducible over GF({p})")
    return FieldSpec(p, r, modulus)
