from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from derivalg.rowreduce import RowReducer

COLUMNS = 12

integers = st.integers(-6, 6)
fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
rows = st.lists(
    st.dictionaries(st.integers(0, COLUMNS - 1), integers | fractions, max_size=6),
    max_size=9,
)


def gauss_jordan_rules(vectors):
    """Reference: plain ``Fraction`` Gauss-Jordan elimination with the
    smallest column as pivot; returns pivot column -> negated tail."""
    work = [[Fraction(v.get(j, 0)) for j in range(COLUMNS)] for v in vectors]
    pivots = []
    top = 0
    for col in range(COLUMNS):
        found = next((i for i in range(top, len(work)) if work[i][col]), None)
        if found is None:
            continue
        work[top], work[found] = work[found], work[top]
        lead = work[top][col]
        work[top] = [v / lead for v in work[top]]
        for i, other in enumerate(work):
            if i != top and other[col]:
                f = other[col]
                work[i] = [a - f * b for a, b in zip(other, work[top])]
        pivots.append((col, top))
        top += 1
    return {
        col: {j: -v for j, v in enumerate(work[i]) if v and j != col}
        for col, i in pivots
    }


@settings(max_examples=200, deadline=None)
@given(rows)
def test_integer_rules_equal_fraction_gauss_jordan(vectors):
    reducer = RowReducer()
    for v in vectors:
        reducer.add(v)
    want = gauss_jordan_rules(vectors)
    assert reducer.pivot_columns() == sorted(want)
    assert reducer.rules() == want
    for rule in reducer.rules().values():
        assert all(type(c) is Fraction for c in rule.values())
