"""Wire formats: spectrum JSON, generating-function JSON, matrix text.

Probabilities are serialized as decimal numerator/denominator strings so no
precision is lost; matrices use a plain text block whose first line is
"q n m" followed by n rows of m integers.
"""

from fractions import Fraction

from .errors import DimensionMismatch, DomainError
from .genfun import GenPoly
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
        c = Fraction(c)
        terms.append({"exp": list(exp), "num": str(c.numerator), "den": str(c.denominator)})
    return {"vars": [_var_to_json(v) for v in p.vars], "terms": terms}


def genpoly_from_json(obj):
    vars = tuple(_var_from_json(v) for v in obj["vars"])
    terms = {}
    for t in obj["terms"]:
        terms[tuple(t["exp"])] = Fraction(int(t["num"]), int(t["den"]))
    return GenPoly(vars, terms)


def matrix_to_text(q, rows):
    n = len(rows)
    m = len(rows[0]) if n else 0
    lines = [f"{q} {n} {m}"]
    for r in rows:
        lines.append(" ".join(str(v) for v in r))
    return "\n".join(lines) + "\n"


def _integers(fields):
    try:
        return tuple(int(v) for v in fields)
    except ValueError:
        raise DomainError(f"{' '.join(fields)!r} has a field that is not an integer") from None


def matrix_from_text(text):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 3:
        raise DimensionMismatch(f"header {header} is not 'q n m'")
    q, n, m = _integers(header)
    rows = []
    for ln in lines[1 : n + 1]:
        row = _integers(ln.split())
        if len(row) != m:
            raise DimensionMismatch(f"row {row} has {len(row)} entries, header says {m}")
        if not all(0 <= v < q for v in row):
            raise DomainError(f"row {row} has an entry outside 0..{q - 1}")
        rows.append(row)
    if len(rows) != n:
        raise DimensionMismatch(f"{len(rows)} rows, header says {n}")
    return q, tuple(rows)
