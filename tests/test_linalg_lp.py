import fractions
import random
import sys
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given, strategies as st

from delpezzo import lp
from delpezzo.catalog import get_model
from delpezzo.exactnum import over_one_denominator
from delpezzo.linalg import (SingularMatrixError, bareiss, is_negative_definite, solve,
                             sylvester_negative_definite, symmetric_signature)
from delpezzo.lp import eq_feasibility

import simplex_oracle
import solve_oracle


def mat(rows):
    return tuple(tuple(F(x) for x in row) for row in rows)


def test_solve_and_det():
    m = [[F(2), F(1)], [F(1), F(3)]]
    x = solve(m, [F(5), F(10)])
    assert x == [F(1), F(3)]
    with pytest.raises(SingularMatrixError):
        solve([[F(1), F(2)], [F(2), F(4)]], [F(0), F(0)])


def test_negative_definite():
    assert is_negative_definite([[F(-2), F(1)], [F(1), F(-2)]])
    assert not is_negative_definite([[F(0)]])
    assert not is_negative_definite([[F(-1), F(2)], [F(2), F(-1)]])
    assert is_negative_definite([])  # empty support


def test_signature():
    assert symmetric_signature(mat([[1, 0, 0], [0, -1, 0], [0, 0, -1]])) == (1, 2, 0)
    assert symmetric_signature(mat([[F(1, 2)]])) == (1, 0, 0)
    assert symmetric_signature(mat([[0, 1], [1, 0]])) == (1, 1, 0)
    assert symmetric_signature(mat([[1, 1], [1, 1]])) == (1, 0, 1)



def _sympy_matrix(m):
    return sympy.Matrix(len(m), len(m),
                        [sympy.Rational(x.numerator, x.denominator) for row in m for x in row])


def _sympy_signature(sm):
    """Inertia from the characteristic polynomial: all roots are real, so the
    sign changes of its coefficients count the positive eigenvalues and the
    lowest nonzero coefficient's index counts the zero ones."""
    n = sm.rows
    coeffs = list(reversed(sm.charpoly().all_coeffs()))  # lowest degree first
    n_zero = next(k for k, c in enumerate(coeffs) if c != 0)
    signs = [c > 0 for c in coeffs if c != 0]
    n_plus = sum(a != b for a, b in zip(signs, signs[1:]))
    return n_plus, n - n_plus - n_zero, n_zero


_entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices with n <= 6: plain, zero-diagonal, and
    low-rank sums of signed squares V D V^T (singular whenever rank < n)."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["plain", "zero-diagonal", "low-rank"]))
    if kind == "low-rank":
        k = draw(st.integers(0, n))
        v = [[draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(n)]
        d = [draw(st.sampled_from([-1, 1])) for _ in range(k)]
        return [[F(sum(v[i][t] * d[t] * v[j][t] for t in range(k))) for j in range(n)]
                for i in range(n)]
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or kind == "plain":
                m[i][j] = m[j][i] = draw(_entries)
    return m


@given(symmetric_matrices())
@example([[F(0), F(1)], [F(1), F(0)]])
@example([[F(0), F(0)], [F(0), F(0)]])
@example([[F(0), F(1), F(1)], [F(1), F(0), F(1)], [F(1), F(1), F(0)]])
@example([[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(-2)]])
@example([[F(1), F(2)], [F(2), F(4)]])
def test_signature_and_definiteness_against_sympy(m):
    sm = _sympy_matrix(m)
    assert symmetric_signature(m) == _sympy_signature(sm)
    assert is_negative_definite(m) is sm.is_negative_definite


@given(symmetric_matrices(), st.lists(_entries, min_size=6, max_size=6))
def test_det_and_solve_against_sympy(m, b):
    sm = _sympy_matrix(m)
    expected_det = sm.det()
    b = b[:len(m)]
    if expected_det == 0:
        with pytest.raises(SingularMatrixError):
            solve(m, b)
        return
    x = sm.LUsolve(sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in b]))
    assert solve(m, b) == [F(int(v.p), int(v.q)) for v in x]


@st.composite
def integer_symmetric_matrices(draw):
    """Symmetric integer matrices with n <= 6: plain (often indefinite),
    zero-diagonal (D_1 = 0), low-rank sums of signed squares (singular when
    the rank is below n, zero leading minors among them) and -(B B^T + I),
    negative definite."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["plain", "zero-diagonal", "low-rank", "negative-definite"]))
    if kind in ("low-rank", "negative-definite"):
        k = draw(st.integers(0, n)) if kind == "low-rank" else n
        v = [[draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(n)]
        d = ([draw(st.sampled_from([-1, 1])) for _ in range(k)] if kind == "low-rank"
             else [-1] * k)
        return [[sum(v[i][t] * d[t] * v[j][t] for t in range(k)) - (kind != "low-rank"
                                                                     and i == j)
                 for j in range(n)] for i in range(n)]
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or kind == "plain":
                m[i][j] = m[j][i] = draw(st.integers(-4, 4))
    return m


@st.composite
def integer_matrices(draw):
    """Non-symmetric integer matrices with n <= 6, half of them with a zero
    (1, 1) entry, so D_1 = 0 and the elimination must exchange rows."""
    n = draw(st.integers(0, 6))
    a = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        a[0][0] = 0
    return a


@given(integer_symmetric_matrices() | integer_matrices(),
       st.lists(st.integers(-5, 5), min_size=12, max_size=12))
@example([[0, 1], [1, 0]], [1] * 12)                           # D_1 = 0, indefinite
@example([[-1, 1, 0], [1, -1, 0], [0, 0, -1]], [1] * 12)       # D_2 = 0, singular
@example([[1, 1], [1, 1]], [1] * 12)                           # singular
@example([[-1, 2], [2, -1]], [2, -3] * 6)                      # indefinite, D_2 < 0
@example([[-2, 1, 0], [1, -2, 1], [0, 1, -2]], [1] * 12)       # A_3, negative definite
@example([[0, 2, 1], [1, 0, 0], [3, 1, 0]], [1, -2, 3] * 4)    # D_1 = 0, non-symmetric
@example([[1, 2, 0], [2, 4, 1], [0, 1, 5]], [1] * 12)          # D_2 = 0, nonsingular
@example([[0, 0], [1, 2]], [1] * 12)                           # zero row, singular
@example([], [0] * 12)
def test_bareiss_minors_and_solutions_against_sympy(a, values):
    n = len(a)
    rhs = [values[:n], values[6:6 + n]]
    minors, d, xs = bareiss(a, rhs)
    sm = sympy.Matrix(n, n, [x for row in a for x in row])
    want = [sm[:k, :k].det() for k in range(1, n + 1)]
    first_zero = next((k for k, x in enumerate(want) if x == 0), None)
    det = sm.det() if n else 1
    if first_zero is None:
        assert minors == want and d == det
    else:
        assert minors == want[:first_zero + 1]
    if det == 0:
        assert d == 0 and xs == []
    else:
        assert abs(d) == abs(det) and len(xs) == len(rhs)
        for b, x in zip(rhs, xs):
            assert sm * sympy.Matrix(n, 1, x) == d * sympy.Matrix(n, 1, b)
    negdef = sylvester_negative_definite(minors, n)
    if first_zero is not None:
        assert not negdef
    if sm.is_symmetric():
        assert negdef is is_negative_definite(mat(a))
        assert negdef is (symmetric_signature(mat(a)) == (0, n, 0))
        assert negdef is (sm.is_negative_definite if n else True)


@st.composite
def rational_matrices(draw):
    """Non-symmetric rational matrices with n <= 6: plain, with a zero
    leading entry, or singular, with the last row a multiple of the first
    or a zero column."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["plain", "zero-leading", "repeated-row", "zero-column"]))
    m = [[draw(_entries) for _ in range(n)] for _ in range(n)]
    if n and kind == "zero-leading":
        m[0][0] = F(0)
    elif n and kind == "repeated-row":
        f = draw(_entries)
        m[-1] = [f * x for x in m[0]]
    elif n and kind == "zero-column":
        j = draw(st.integers(0, n - 1))
        for row in m:
            row[j] = F(0)
    return m


@given(rational_matrices(), st.lists(_entries, min_size=6, max_size=6))
@example([[F(0), F(1, 2)], [F(3), F(1)]], [F(1)] * 6)
@example([[F(1), F(2)], [F(-1, 2), F(-1)]], [F(1)] * 6)
def test_solve_matches_the_fraction_oracle(m, b):
    b = b[:len(m)]
    try:
        want = solve_oracle.solve(m, b)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            solve(m, b)
        return
    assert solve(m, b) == want


def _check_farkas(a, b, res):
    y = res.farkas
    assert y is not None
    ncols = len(a[0])
    for j in range(ncols):
        assert sum(y[i] * a[i][j] for i in range(len(a))) <= 0
    assert sum(yi * bi for yi, bi in zip(y, b)) > 0


def test_feasible_solution_is_exact():
    a = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    b = [F(3), F(2)]
    res = eq_feasibility(a, b)
    assert res.feasible and res.farkas is None
    assert res == simplex_oracle.eq_feasibility(a, b)  # the oracle checks its x


def test_infeasible_has_farkas_certificate():
    a = [[F(1), F(1)]]
    b = [F(-1)]
    res = eq_feasibility(a, b)
    assert not res.feasible
    _check_farkas(a, b, res)


def test_random_lps_solution_or_certificate():
    rng = random.Random(42)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        a = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        b = [F(rng.randint(-4, 4)) for _ in range(m)]
        res = eq_feasibility(a, b)
        if res.feasible:
            assert res == simplex_oracle.eq_feasibility(a, b)  # the oracle checks its x
        else:
            _check_farkas(a, b, res)


def test_cone_membership():
    """Cone membership is the LP whose columns are the generators:
    (3, -2) = 1 (0, 1) + 3 (1, -1)."""
    gens = [[F(0), F(1)], [F(1), F(-1)]]
    a = [[g[i] for g in gens] for i in range(2)]
    inside = eq_feasibility(a, [F(3), F(-2)])
    assert inside.feasible and inside == simplex_oracle.eq_feasibility(a, [F(3), F(-2)])
    outside = eq_feasibility(a, [F(3), F(-7, 2)])
    assert not outside.feasible
    y = outside.farkas
    for g in gens:
        assert sum(a * b for a, b in zip(y, g)) <= 0
    assert y[0] * 3 + y[1] * F(-7, 2) > 0


def test_empty_cone():
    """No columns: only b = 0 is feasible, and the Farkas vector of b != 0
    is the artificial one, the sign of each row."""
    assert eq_feasibility([[], []], [F(0), F(0)]).feasible
    outside = eq_feasibility([[], []], [F(1), F(0)])
    assert not outside.feasible and outside.farkas == (1, 1)


def _cleared_columns(a):
    """The integer rows of a with each column over its least denominator."""
    columns = [over_one_denominator(col)[1] for col in zip(*a)]
    return [list(row) for row in zip(*columns)] if columns else [[] for _ in a]


_lp_entries = st.one_of(st.just(F(0)), st.integers(-2, 2).map(F),
                        st.fractions(min_value=-3, max_value=3, max_denominator=6))


@st.composite
def lp_systems(draw):
    """Small rational systems a x = b: zero entries, rows and columns are
    common, small integers make ratio-test ties likely, and half of the
    right-hand sides are a x for a drawn x >= 0, so feasible."""
    m = draw(st.integers(0, 4))
    n = draw(st.integers(0, 6)) if m else 0
    a = [[draw(_lp_entries) for _ in range(n)] for _ in range(m)]
    if n and draw(st.booleans()):
        x = [draw(st.fractions(min_value=0, max_value=3, max_denominator=4)) for _ in range(n)]
        b = [sum((r * v for r, v in zip(row, x)), F(0)) for row in a]
    else:
        b = [draw(_lp_entries) for _ in range(m)]
    return a, b


@given(lp_systems())
@example(([[F(1), F(1)]], [F(-1)]))                               # negative b, infeasible
@example(([[F(-1, 2), F(0)], [F(0), F(0)]], [F(-3), F(0)]))        # negative b, zero row
@example(([[F(0), F(0)], [F(0), F(0)]], [F(0), F(1)]))             # zero row, b != 0
@example(([[F(1), F(0), F(1)], [F(1), F(0), F(1)]], [F(1), F(1)]))  # zero column, tie
@example(([[F(1), F(1), F(0)], [F(1), F(0), F(1)], [F(0), F(1), F(1)]],
          [F(0), F(0), F(0)]))                                     # fully degenerate
@example(([[F(2, 3), F(-1, 5)], [F(1, 7), F(3, 2)]], [F(1, 3), F(5, 4)]))
@example(([], []))
def test_fraction_free_simplex_matches_fraction_oracle(system):
    """The engine reads each column cleared to integers over its own least
    denominator, the oracle the Fraction column: a positive column scale
    leaves the verdict, the Farkas vector and the pivot count unchanged."""
    a, b = system
    assert eq_feasibility(_cleared_columns(a), b) == simplex_oracle.eq_feasibility(a, b)


def test_pivot_loop_does_no_fraction_arithmetic():
    """The dP1 refusal of -K - E1 takes 188 pivots on a 9 x 250 tableau; the
    only Fraction arithmetic is mapping y back through the row signs.  The
    engine reads the integer columns the model caches."""
    m = get_model("dP1")
    gens = [c.cls.coeffs for c in m.neg_curves]
    a = _cleared_columns([[g[i] for g in gens] for i in range(m.rank)])
    assert a == [list(row) for row in m._generator_rows]
    b = list((m.minus_k() - m.curve("E1")).coeffs)
    ops = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == fractions.__file__ \
                and code.co_name in ("_add", "_sub", "_mul", "_div"):
            ops.append(code.co_name)

    sys.setprofile(profile)
    try:
        res = eq_feasibility(a, b)
    finally:
        sys.setprofile(None)
    assert not res.feasible and res.pivots == 188
    assert len(ops) <= len(a)


def _bump_basic_rhs(rows, obj, basis, d, by):
    """Add ``by`` to the right-hand side of the first row whose basic
    column is a structural one."""
    n = len(rows[0]) - len(rows) - 1
    i = next(i for i, j in enumerate(basis) if j < n)
    rows[i][-1] += by


@pytest.mark.parametrize("a, b, corrupt, message", [
    ([[F(1), F(0), F(1)], [F(0), F(1), F(1)]], [F(3), F(2)],
     lambda rows, obj, basis, d: _bump_basic_rhs(rows, obj, basis, d, d), "a x = b"),
    ([[F(1), F(-1)]], [F(2)],
     lambda rows, obj, basis, d: _bump_basic_rhs(rows, obj, basis, d, -3 * d), "x >= 0"),
    ([[F(1), F(1)]], [F(-1)],
     lambda rows, obj, basis, d: obj.__setitem__(2, 2 * d - obj[2]), "y.A_j <= 0"),
    ([[F(0), F(0)], [F(1), F(-1)]], [F(1), F(0)],
     lambda rows, obj, basis, d: obj.__setitem__(2, d), "y.b > 0"),
], ids=["solution", "sign", "farkas-columns", "farkas-rhs"])
def test_corrupt_lp_results_are_refused(monkeypatch, a, b, corrupt, message):
    """eq_feasibility re-checks the solution or Farkas vector it reads from
    the final tableau against the integer-scaled columns before it returns:
    a corrupted tableau raises ArithmeticError instead of a wrong result."""
    real = lp._phase1

    def corrupted(rows, obj, basis):
        obj, d, pivots = real(rows, obj, basis)
        corrupt(rows, obj, basis, d)
        return obj, d, pivots

    assert eq_feasibility(a, b) == simplex_oracle.eq_feasibility(a, b)
    monkeypatch.setattr(lp, "_phase1", corrupted)
    with pytest.raises(ArithmeticError) as err:
        eq_feasibility(a, b)
    assert str(err.value).endswith(f"fails its check: {message}")
