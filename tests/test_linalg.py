import random
from fractions import Fraction

import pytest
import sympy

from looptl.linalg import Echelon, nullspace, rank, rref, same_span
from looptl.scalars import SpecialField


def _reference(a, b):
    """Equal spans by the definition: rank a = rank b = rank of both."""
    return rank(a) == rank(b) == rank(a + b)


def _random_rows(rng, field, count, ncols):
    return [[field.element([rng.randint(-3, 3), rng.randint(-3, 3)])
             for _ in range(ncols)] for _ in range(count)]


def _combinations(rng, field, rows, count):
    """count random combinations of rows."""
    ncols = len(rows[0])
    out = []
    for _ in range(count):
        vec = [field.zero] * ncols
        for row in rows:
            f = field.element([rng.randint(-2, 2), rng.randint(-2, 2)])
            vec = [x + f * y for x, y in zip(vec, row)]
        out.append(vec)
    return out


@pytest.mark.parametrize("seed", range(6))
def test_same_span_matches_the_rank_definition(seed):
    rng = random.Random(seed)
    field = SpecialField(2)
    ncols = 7
    a = _random_rows(rng, field, 4, ncols)
    zero_row = [field.zero] * ncols
    cases = {
        "equal spans": (a, _combinations(rng, field, a, 5)),
        "equal spans, zero row": (a + [zero_row], a[::-1]),
        "smaller rank": (a, _combinations(rng, field, a[:3], 3)),
        "larger rank": (a[:2], a),
        "equal rank, other span": (a, a[:3] + _random_rows(rng, field, 1,
                                                           ncols)),
        "both empty": ([], []),
        "empty a": ([], a[:1]),
        "empty b": (a, []),
        "zero rows against empty": ([zero_row], []),
    }
    expected = {"equal spans": True, "equal spans, zero row": True,
                "smaller rank": False, "larger rank": False,
                "equal rank, other span": False, "both empty": True,
                "empty a": False, "empty b": False,
                "zero rows against empty": True}
    for name, (x, y) in cases.items():
        want = _reference(x, y)
        assert want == expected[name], name
        assert same_span(x, y) == want, name
        assert same_span(y, x) == want, name


# ---------------------------------------------------------------------------
# the echelon reducer against sympy
# ---------------------------------------------------------------------------


def _fraction_matrix(rng, nrows, ncols, rank_cap):
    """Seeded Fraction matrix of rank at most rank_cap: random combinations
    of rank_cap random rows, some rows zero and, below full column rank,
    one column zero."""
    def entry():
        return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
    gens = [[entry() for _ in range(ncols)] for _ in range(rank_cap)]
    dead = rng.randrange(ncols) if rank_cap < ncols else None
    out = []
    for _ in range(nrows):
        if rng.random() < 0.2:
            out.append([Fraction(0)] * ncols)
            continue
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in gens]
        row = [sum((c * g[j] for c, g in zip(coeffs, gens)), Fraction(0))
               for j in range(ncols)]
        if dead is not None:
            row[dead] = Fraction(0)
        out.append(row)
    return out


def _sympy(mat):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in mat])


def _as_fractions(rows):
    return [[Fraction(int(x.p), int(x.q)) for x in row] for row in rows]


SHAPES = {"tall": (9, 4, 4), "wide": (3, 8, 3), "square": (6, 6, 6),
          "tall-deficient": (8, 5, 2), "wide-deficient": (4, 9, 2),
          "square-deficient": (7, 7, 4)}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_reducer_matches_sympy(shape, seed):
    nrows, ncols, rank_cap = SHAPES[shape]
    rng = random.Random(1000 * seed + nrows * ncols)
    mat = _fraction_matrix(rng, nrows, ncols, rank_cap)
    ref = _sympy(mat)
    ref_rref, ref_pivots = ref.rref()
    rows, pivots = rref(mat)
    assert pivots == list(ref_pivots)
    assert rows == _as_fractions(ref_rref.tolist()[:len(pivots)])
    assert rank(mat) == ref.rank()
    ref_null = [list(v) for v in ref.nullspace()]
    assert nullspace(mat) == _as_fractions(ref_null)


@pytest.mark.parametrize("seed", range(6))
def test_echelon_add_is_false_exactly_on_dependent_rows(seed):
    rng = random.Random(seed)
    mat = _fraction_matrix(rng, 10, 6, 4)
    ech = Echelon()
    for i, row in enumerate(mat):
        grows = _sympy(mat[:i + 1]).rank() > _sympy(mat[:i]).rank()
        assert ech.add(row) == grows
        assert not any(ech.reduce(row))
    assert len(ech.rows) == _sympy(mat).rank()
