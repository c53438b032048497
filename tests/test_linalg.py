import random
from bisect import bisect
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from looptl.errors import IndexOutOfRange
from looptl.linalg import Echelon, nullspace, rank, rref, same_span
from looptl.scalars import D_GENERIC, RationalFunc, SpecialField


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
    ech = Echelon(6)
    for i, row in enumerate(mat):
        grows = _sympy(mat[:i + 1]).rank() > _sympy(mat[:i]).rank()
        assert ech.add(enumerate(row)) == grows
        assert not ech.add(enumerate(row))
    assert len(ech.rows) == _sympy(mat).rank()


# ---------------------------------------------------------------------------
# the echelon reducer over Q(delta) against sympy over Q
# ---------------------------------------------------------------------------


def _regular_blocks(ell, degree):
    """Element -> its degree x degree matrix of multiplication on the power
    basis, from sympy's own minimal polynomial of 2cos(pi/(ell+2))."""
    x = sympy.Symbol("x")
    mp = sympy.Poly(sympy.minimal_polynomial(
        2 * sympy.cos(sympy.pi / (ell + 2)), x), x)
    assert mp.degree() == degree and mp.LC() == 1
    low = mp.all_coeffs()[::-1]
    # column i is delta * delta^i on the basis 1, delta, ..., delta^(n-1)
    comp = sympy.zeros(degree, degree)
    for i in range(degree - 1):
        comp[i + 1, i] = 1
    for i in range(degree):
        comp[i, degree - 1] = -low[i]
    powers = [sympy.eye(degree)]
    for _ in range(degree - 1):
        powers.append(comp * powers[-1])

    def block(a):
        out = sympy.zeros(degree, degree)
        for c, pw in zip(a.coeffs, powers):
            out += sympy.Rational(c.numerator, c.denominator) * pw
        return out
    return block


def _over_q(mat, block, degree, ncols):
    """The Q-matrix of the Q(delta)-linear map mat, block by block."""
    out = sympy.zeros(len(mat) * degree, ncols * degree)
    for i, row in enumerate(mat):
        for j, a in enumerate(row):
            out[i * degree:(i + 1) * degree,
                j * degree:(j + 1) * degree] = block(a)
    return out


def _field_matrix(rng, field, nrows, ncols, rank_cap, density):
    """Seeded Q(delta) matrix of rank at most rank_cap: rank_cap random
    rows with about a `density` share of nonzero entries, then each
    further row a combination of at most two of them, or zero."""
    def entry():
        if rng.random() >= density:
            return field.zero
        return field.element([Fraction(rng.randint(-3, 3),
                                       rng.choice([1, 1, 2]))
                              for _ in range(field.degree)])
    gens = [[entry() for _ in range(ncols)] for _ in range(rank_cap)]
    out = [list(g) for g in gens]
    while len(out) < nrows:
        row = [field.zero] * ncols
        for g in rng.sample(gens, min(2, len(gens))):
            f = field.element([rng.randint(-2, 2), rng.randint(-2, 2)])
            row = [x + f * y for x, y in zip(row, g)]
        out.append(row)
    rng.shuffle(out)
    return out


FIELD_SHAPES = {"sparse-tall": (8, 5, 3, 0.3), "sparse-wide": (4, 9, 4, 0.3),
                "dense-tall": (7, 4, 3, 1.0), "dense-wide": (3, 7, 3, 1.0),
                "dense-square": (5, 5, 5, 1.0)}


@pytest.mark.parametrize("shape", FIELD_SHAPES)
@pytest.mark.parametrize("ell", [2, 3, 5])
@pytest.mark.parametrize("seed", range(2))
def test_echelon_over_the_field_matches_sympy_over_q(shape, ell, seed):
    """A rank-r matrix over Q(delta) of degree n is, entry by entry
    through the regular representation, a rational matrix of rank n*r."""
    nrows, ncols, rank_cap, density = FIELD_SHAPES[shape]
    rng = random.Random(100 * seed + 10 * ell + nrows)
    field = SpecialField(ell)
    degree = field.degree
    block = _regular_blocks(ell, degree)
    mat = _field_matrix(rng, field, nrows, ncols, rank_cap, density)
    big = _over_q(mat, block, degree, ncols)
    r = rank(mat)
    assert degree * r == big.rank()
    null = nullspace(mat)
    assert len(null) == ncols - r
    for vec in null:
        assert any(vec)
        for row in mat:
            acc = field.zero
            for a, x in zip(row, vec):
                acc = acc + a * x
            assert not acc
        # and through the rational image: big * coords(vec) == 0
        coords = sympy.Matrix([sympy.Rational(c.numerator, c.denominator)
                               for x in vec for c in x.coeffs])
        assert big * coords == sympy.zeros(nrows * degree, 1)
    rows, pivots = rref(mat)
    assert len(rows) == len(pivots) == r
    assert same_span(rows, mat)


# ---------------------------------------------------------------------------
# the row form against the per-entry reducer it replaced
# ---------------------------------------------------------------------------


class _PerEntryEchelon:
    """The reducer as it stood before rows were kept as integer
    numerators: each row a dense list of scalars, each row operation
    vec[j] - f * row[j] entry by entry, in the scalars' own arithmetic."""

    def __init__(self, rows=()):
        self.pivots, self.rows, self.supports = [], [], []
        for row in rows:
            self.add(row)

    @staticmethod
    def _minus(vec, f, row, support):
        for j in support:
            vec[j] = vec[j] - f * row[j]

    def reduce(self, vec):
        vec = list(vec)
        for c, row, support in zip(self.pivots, self.rows, self.supports):
            if vec[c]:
                self._minus(vec, vec[c], row, support)
        return vec

    def add(self, vec):
        vec = self.reduce(vec)
        for c, x in enumerate(vec):
            if x:
                inv = 1 / x
                support = [j for j in range(c, len(vec)) if vec[j]]
                for j in support:
                    vec[j] = vec[j] * inv
                k = bisect(self.pivots, c)
                self.pivots.insert(k, c)
                self.rows.insert(k, vec)
                self.supports.insert(k, support)
                return True
        return False

    def reduced(self):
        rows = [list(row) for row in self.rows]
        supports = list(self.supports)
        for i in reversed(range(len(rows))):
            for j in range(i + 1, len(rows)):
                f = rows[i][self.pivots[j]]
                if f:
                    self._minus(rows[i], f, rows[j], supports[j])
            supports[i] = [k for k in range(self.pivots[i], len(rows[i]))
                           if rows[i][k]]
        return rows


def _per_entry_nullspace(mat):
    ncols = len(mat[0]) if mat else 0
    if not ncols:
        return []
    zero = mat[0][0] - mat[0][0]
    ech = _PerEntryEchelon(mat)
    rows, pivots = ech.reduced(), ech.pivots
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[fc] = zero + 1
        for row, pc in zip(rows, pivots):
            vec[pc] = zero - row[fc]
        out.append(vec)
    return out


# RationalFunc denominators that never vanish identically
_POLY_DENS = [(1,), (2,), (1, 1), (0, 1), (-1, 0, 1), (3, -1)]


def _scalar(kind):
    """Strategy for one nonzero-or-zero scalar of a backend.  "mixed" is
    Q(delta) at level 2 with its zeros as the int 0, as joint_kernel
    feeds its exact rows."""
    small = st.integers(-3, 3)
    frac = st.builds(Fraction, small, st.sampled_from([1, 1, 2, 3]))
    if kind == "fraction":
        return frac
    if kind == "ratfunc":
        return st.builds(RationalFunc, st.lists(small, max_size=3),
                         st.sampled_from(_POLY_DENS))
    field = SpecialField(2 if kind == "mixed" else int(kind[1:]))
    return st.builds(field.element, st.lists(frac, min_size=field.degree,
                                             max_size=field.degree))


_KINDS = ["l1", "l2", "l3", "l5", "fraction", "mixed", "ratfunc"]


@st.composite
def _matrix(draw, kind, ncols):
    """Rows of one backend: a few generators with zeros sprinkled in,
    then combinations of them and zero rows, shuffled."""
    scalar = _scalar(kind)
    zero = scalar.map(lambda x: x - x)
    entry = st.one_of(zero, zero, scalar)
    gens = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=4))
    rows = list(gens)
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(scalar, min_size=len(gens),
                               max_size=len(gens)))
        row = [x - x for x in draw(st.lists(scalar, min_size=ncols,
                                            max_size=ncols))]
        for c, g in zip(coeffs, gens):
            row = [x + c * y for x, y in zip(row, g)]
        rows.append(row)
    rows = draw(st.permutations(rows))
    if kind == "mixed":
        rows = [[x if x else 0 for x in row] for row in rows]
    return rows


@st.composite
def _sparse_batch(draw, kind):
    """(ncols, rows): two to four generators with at most three nonzero
    columns each among up to ten, then more combinations of one or two
    of them than there are generators, shuffled, so that most rows are
    dependent."""
    scalar = _scalar(kind)
    zero = draw(scalar)
    zero = zero - zero
    nonzero = scalar.filter(bool)
    ncols = draw(st.integers(4, 10))
    gens = []
    for _ in range(draw(st.integers(2, 4))):
        cols = sorted(draw(st.sets(st.integers(0, ncols - 1), min_size=1,
                                   max_size=3)))
        row = [zero] * ncols
        for j in cols:
            row[j] = draw(nonzero)
        gens.append(row)
    rows = list(gens)
    for _ in range(draw(st.integers(len(gens), 2 * len(gens) + 2))):
        row = [zero] * ncols
        for g in draw(st.lists(st.sampled_from(gens), min_size=1,
                               max_size=2)):
            c = draw(nonzero)
            row = [x + c * y for x, y in zip(row, g)]
        rows.append(row)
    rows = draw(st.permutations(rows))
    if kind == "mixed":
        rows = [[x if x else 0 for x in row] for row in rows]
    return ncols, rows


@st.composite
def _pairs(draw, row):
    """row as shuffled (column, value) pairs, some zero entries left out."""
    return draw(st.permutations([(j, x) for j, x in enumerate(row)
                                 if x or draw(st.booleans())]))


def _same(got, want, kind):
    """Equal in value, and in type too unless int zeros were mixed in."""
    assert got == want
    if kind != "mixed":
        assert [[type(x) for x in row] for row in got] == \
            [[type(x) for x in row] for row in want]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_row_form_matches_the_per_entry_reducer(data):
    kind = data.draw(st.sampled_from(_KINDS), label="kind")
    ncols = data.draw(st.integers(1, 6), label="ncols")
    mat = data.draw(_matrix(kind, ncols), label="mat")
    other = data.draw(_matrix(kind, ncols), label="other")
    batch = data.draw(_sparse_batch(kind), label="sparse batch")
    # mat last: the checks after the loop read its ref
    for width, rows in (batch, (ncols, mat)):
        sparse = [data.draw(_pairs(row), label="pairs") for row in rows]
        ech, pairs, ref = Echelon(width), Echelon(width), _PerEntryEchelon()
        for row, terms in zip(rows, sparse):
            grows = ech.add(enumerate(row))
            assert grows == ref.add(row)
            assert pairs.add(terms) == grows
            assert not ech.add(enumerate(row))
        for got in (ech, pairs):
            assert got.pivots == ref.pivots
            _same(got.rows, ref.rows, kind)
            _same(got.reduced(), ref.reduced(), kind)
    assert rank(mat) == len(ref.pivots)
    assert rref(mat) == (ref.reduced(), ref.pivots)
    _same(nullspace(mat), _per_entry_nullspace(mat), kind)
    want = (_PerEntryEchelon(mat).reduced()
            == _PerEntryEchelon(other).reduced())
    assert same_span(mat, other) == want
    assert same_span(mat, mat + other[:1]) == (
        _PerEntryEchelon(mat).reduced()
        == _PerEntryEchelon(mat + other[:1]).reduced())


def test_empty_and_zero_inputs():
    field = SpecialField(2)
    assert rref([]) == ([], []) and rank([]) == 0 and nullspace([]) == []
    assert same_span([], []) and Echelon(0).rows == []
    zeros = [[field.zero] * 3, [0, 0, 0]]
    ech = Echelon(3, map(enumerate, zeros))
    assert (ech.pivots, ech.rows, ech.reduced()) == ([], [], [])
    assert nullspace(zeros) == [[field.zero if i != j else field.one
                                 for i in range(3)] for j in range(3)]
    assert same_span(zeros, []) and not same_span(zeros, [[0, field.one, 0]])
    with pytest.raises(ValueError, match="different fields"):
        Echelon(2, [enumerate([field.one, SpecialField(3).one])])


@pytest.mark.parametrize("column", [-1, 3])
def test_echelon_rejects_a_column_outside_the_row(column):
    """A column left of 0 or past ncols - 1 raises, also when elimination
    clears every column of the row inside the range."""
    ech = Echelon(3, [[(0, Fraction(1))]])
    for row in ([(1, Fraction(2)), (column, Fraction(1))],
                [(column, Fraction(1)), (0, Fraction(5))]):
        with pytest.raises(IndexOutOfRange, match=r"outside 0\.\.2"):
            ech.add(row)
    assert ech.pivots == [0]
    assert ech.rows == [[Fraction(1), Fraction(0), Fraction(0)]]


def test_generic_rows_lose_their_integer_content():
    """Rows of RationalFunc whose numerators share an integer factor with
    the pivot's, and a denominator in d, against the per-entry reducer."""
    d = D_GENERIC
    mat = [[2 * d, 2 * d * d, RationalFunc(4)],
           [d + 1, RationalFunc(0), 2 / (d + 1)],
           [3 * d + 1, 2 * d * d, 4 + 2 / (d + 1)]]
    ech, ref = Echelon(3, map(enumerate, mat)), _PerEntryEchelon(mat)
    assert ech.pivots == ref.pivots == [0, 1]
    _same(ech.rows, ref.rows, "ratfunc")
    _same(ech.reduced(), ref.reduced(), "ratfunc")
    _same(nullspace(mat), _per_entry_nullspace(mat), "ratfunc")
