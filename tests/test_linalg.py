import random

import pytest

from looptl.linalg import rank, same_span
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
