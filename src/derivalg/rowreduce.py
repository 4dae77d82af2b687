"""Exact sparse row reduction over the rationals.

Rows are sparse mappings ``column -> coefficient``.  Internally every row
is scaled to a primitive integer vector and eliminated fraction-free, so
no precision is ever lost.  The pivot of a row is its smallest column;
the resulting reduced row echelon form (and hence the pivot column set,
the rank and the rewrite rules) depends only on the row space, not on
insertion order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _primitive(ints: dict[int, int]) -> dict[int, int]:
    """Divide by the content and make the leading coefficient positive."""
    if not ints:
        return ints
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if ints[min(ints)] < 0:
        g = -g
    if g != 1:
        ints = {j: v // g for j, v in ints.items()}
    return ints


class RowReducer:
    """Incremental Gaussian elimination with smallest-column pivoting."""

    def __init__(self) -> None:
        self._pivots: dict[int, dict[int, int]] = {}
        self._rules: dict[int, dict[int, Fraction]] | None = None

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def pivot_columns(self) -> list[int]:
        return sorted(self._pivots)

    def add(self, row: dict) -> bool:
        """Insert a row; returns whether it enlarged the row space."""
        residual = self._eliminate(row)
        if not residual:
            return False
        self._pivots[min(residual)] = residual
        self._rules = None
        return True

    def _eliminate(self, row: dict) -> dict[int, int]:
        frac = {j: Fraction(v) for j, v in row.items() if v}
        if not frac:
            return {}
        den = 1
        for c in frac.values():
            den = den * c.denominator // gcd(den, c.denominator)
        work = _primitive({j: int(c * den) for j, c in frac.items()})
        while work:
            lead = min(work)
            piv = self._pivots.get(lead)
            if piv is None:
                return work
            a = work[lead]
            b = piv[lead]
            new: dict[int, int] = {}
            for j, v in work.items():
                nv = b * v - a * piv.get(j, 0)
                if nv:
                    new[j] = nv
            for j, v in piv.items():
                if j not in work:
                    new[j] = -a * v
            work = _primitive(new)
        return {}

    def rules(self) -> dict[int, dict[int, Fraction]]:
        """Rewrite rules of the reduced echelon form.

        Maps each pivot column to its negated tail, expressed over
        non-pivot columns only, so a single substitution pass fully
        reduces any vector.  The back-substitution runs fraction-free:
        a rule is an integer vector over one positive denominator until
        it is finished, and only then converted to ``Fraction``.
        """
        if self._rules is None:
            # pivot column -> (numerators, denominator) of its rule
            exact: dict[int, tuple[dict[int, int], int]] = {}
            rules: dict[int, dict[int, Fraction]] = {}
            for lead in sorted(self._pivots, reverse=True):
                piv = self._pivots[lead]
                den = 1
                for j in piv:
                    sub = exact.get(j)
                    if sub is not None:
                        den = den * sub[1] // gcd(den, sub[1])
                num: dict[int, int] = {}
                for j, v in piv.items():
                    if j == lead:
                        continue
                    sub = exact.get(j)
                    if sub is None:
                        num[j] = num.get(j, 0) - v * den
                    else:
                        f = -v * (den // sub[1])
                        for j2, v2 in sub[0].items():
                            num[j2] = num.get(j2, 0) + f * v2
                num = {j: v for j, v in num.items() if v}
                den *= piv[lead]
                g = den
                for v in num.values():
                    g = gcd(g, v)
                if g != 1:
                    num = {j: v // g for j, v in num.items()}
                    den //= g
                exact[lead] = (num, den)
                rules[lead] = {j: Fraction(v, den) for j, v in num.items()}
            self._rules = rules
        return self._rules

    def reduce(self, row: dict) -> dict[int, Fraction]:
        """Normal form of a vector modulo the row space (non-pivot support)."""
        rules = self.rules()
        out: dict[int, Fraction] = {}
        for j, v in row.items():
            v = Fraction(v)
            if not v:
                continue
            sub = rules.get(j)
            if sub is None:
                out[j] = out.get(j, 0) + v
            else:
                for j2, v2 in sub.items():
                    out[j2] = out.get(j2, 0) + v * v2
        return {j: v for j, v in out.items() if v}
