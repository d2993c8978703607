"""Wire formats: spectrum JSON, generating-function JSON, matrix text.

Probabilities are serialized as decimal numerator/denominator strings so no
precision is lost; matrices use a plain text block whose first line is
"q n m" followed by n rows of m integers.
"""

from fractions import Fraction
from math import lcm

from .genfun import GenPoly
from .gf import CycInt
from .spectra import TypeVector


def spectrum_to_json(spec, q, n):
    entries = []
    for P in sorted(spec, key=lambda t: t.counts):
        mass = Fraction(spec[P])
        entries.append(
            {"type": list(P.counts), "num": str(mass.numerator), "den": str(mass.denominator)}
        )
    return {"q": q, "n": n, "entries": entries}


def spectrum_from_json(obj):
    out = {}
    for e in obj["entries"]:
        out[TypeVector(tuple(e["type"]))] = Fraction(int(e["num"]), int(e["den"]))
    return out


def _var_to_json(v):
    block, sym = v
    return [list(block) if isinstance(block, tuple) else block, sym]


def _var_from_json(v):
    block, sym = v
    return (tuple(block) if isinstance(block, list) else block, sym)


def genpoly_to_json(p):
    terms = []
    for exp, c in sorted(p.terms.items()):
        entry = {"exp": list(exp)}
        if isinstance(c, CycInt):
            den = lcm(*(Fraction(x).denominator for x in c.coeffs)) if c.coeffs else 1
            entry["cyc"] = [int(Fraction(x) * den) for x in c.coeffs]
            entry["den"] = str(den)
        else:
            c = Fraction(c)
            entry["num"] = str(c.numerator)
            entry["den"] = str(c.denominator)
        terms.append(entry)
    return {"vars": [_var_to_json(v) for v in p.vars], "terms": terms}


def genpoly_from_json(obj):
    vars = tuple(_var_from_json(v) for v in obj["vars"])
    terms = {}
    for t in obj["terms"]:
        if "cyc" in t:
            den = int(t["den"])
            coeff = CycInt(len(t["cyc"]), [Fraction(x, den) for x in t["cyc"]])
        else:
            coeff = Fraction(int(t["num"]), int(t["den"]))
        terms[tuple(t["exp"])] = coeff
    return GenPoly(vars, terms)


def matrix_to_text(q, rows):
    n = len(rows)
    m = len(rows[0]) if n else 0
    lines = [f"{q} {n} {m}"]
    for r in rows:
        lines.append(" ".join(str(v) for v in r))
    return "\n".join(lines) + "\n"


def matrix_from_text(text):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    q, n, m = (int(v) for v in lines[0].split())
    rows = []
    for ln in lines[1 : n + 1]:
        row = tuple(int(v) for v in ln.split())
        assert len(row) == m, "row length does not match header"
        assert all(0 <= v < q for v in row), "entry out of range"
        rows.append(row)
    assert len(rows) == n, "row count does not match header"
    return q, tuple(rows)
