import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from framepcm import (
    D_closed,
    L_closed,
    binom,
    check_coeff_identity_even,
    check_coeff_identity_odd,
    check_gould,
    check_identity_A,
    check_identity_B,
    gosper_certificate,
    gosper_g,
    identity_suites,
)
from framepcm import combinatorics as comb_module
from framepcm.combinatorics import weighted_sum_A


def pascal_triangle(rows):
    tri = [[1]]
    for _ in range(rows):
        prev = tri[-1]
        tri.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return tri


def test_binom_examples():
    assert binom(4, 2) == 6
    assert binom(3, -1) == 0
    assert binom(3, 4) == 0
    assert binom(30, 15) == 155117520
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_binom_against_pascal():
    tri = pascal_triangle(30)
    for n in range(31):
        for k in range(n + 1):
            assert binom(n, k) == tri[n][k]


def test_identity_A_examples():
    assert check_identity_A(1, 0)
    assert weighted_sum_A(2, 1) == 6 and check_identity_A(2, 1)
    assert check_identity_A(5, 7)


def test_identity_A_recursion():
    # the inductive mechanism behind the closed form, exactly:
    # A(n+1, h) = A(n, h) + A(n+1, h-1) + C(n+h, n)
    for n in range(1, 12):
        for h in range(1, 12):
            assert weighted_sum_A(n + 1, h) == (
                weighted_sum_A(n, h) + weighted_sum_A(n + 1, h - 1) + binom(n + h, n)
            )


def test_identity_B_examples():
    assert check_identity_B(2, 0)
    assert check_identity_B(1, 0)
    assert check_identity_B(12, 5)
    with pytest.raises(ValueError):
        check_identity_B(3, 3)


def test_gosper_certificate_examples():
    # g_l = 0 via the (m - l) factor, so the first telescoped value is the summand
    assert gosper_g(2, 0, 0) == 0
    assert gosper_g(2, 0, 1) == 10
    assert gosper_certificate(2, 0, 0)
    assert gosper_certificate(3, 1, 2)
    with pytest.raises(ValueError):
        gosper_g(3, 3, 3)


def test_gosper_vanishing_at_lower_limit():
    for h in range(1, 15):
        for l in range(0, h):
            assert gosper_g(h, l, l) == 0


def test_telescoping_reproduces_identity_B():
    for h in range(1, 15):
        for l in range(0, h):
            total = sum(
                (-1) ** m * (2 * m + 1) * binom(2 * h + 1, h - m) * binom(m + l, 2 * l)
                for m in range(l, h + 1)
            )
            assert Fraction(total) == gosper_g(h, l, h + 1) - gosper_g(h, l, l)


def test_gould_examples():
    assert check_gould(2, 1)
    assert check_gould(0, 0)
    assert check_gould(4, 6)


def test_exhaustive_small():
    assert all(check_identity_A(n, h) for n in range(1, 13) for h in range(13))
    assert all(check_identity_B(h, l) for h in range(1, 13) for l in range(h))
    assert all(
        gosper_certificate(h, l, m)
        for h in range(1, 13) for l in range(h) for m in range(l, h + 1)
    )
    assert all(check_gould(n, h) for n in range(13) for h in range(13))


def test_L_closed_examples():
    assert L_closed(2, 0) == Fraction(1, 4)
    assert L_closed(2, 1) == Fraction(-1, 4)
    assert L_closed(1, 0) == Fraction(1)
    assert L_closed(3, 5) == 0  # exact zero for m >= n


def test_D_closed_examples():
    assert D_closed(1, 0) == Fraction(2, 3)
    assert D_closed(1, 1) == Fraction(-2, 5)
    assert D_closed(2, 0) == Fraction(4, 15)


@pytest.mark.parametrize("n", range(1, 7))
def test_L_closed_against_quadrature(n):
    for m in range(0, 9):
        exact = float(L_closed(n, m)) * math.pi
        val, err = quad(
            lambda t: math.cos((2 * m + 1) * t) * math.cos(t) * math.sin(t) ** (2 * n - 2),
            -math.pi, math.pi, limit=300,
        )
        if exact == 0.0:
            assert abs(val) < 1e-10
        else:
            assert abs(val - exact) < 1e-10 * abs(exact) + 1e-13


@pytest.mark.parametrize("n", range(1, 7))
def test_D_closed_against_quadrature(n):
    for m in range(0, 9):
        exact = float(D_closed(n, m))
        val, err = quad(
            lambda t: math.cos((2 * m + 1) * t) * math.cos(t) * math.sin(t) ** (2 * n - 1),
            0.0, math.pi, limit=300,
        )
        assert abs(val - exact) < 1e-10 * max(abs(exact), 1.0)


def test_coefficient_identities_moderate():
    assert all(check_coeff_identity_even(n, h) for n in range(1, 11) for h in range(11))
    assert all(check_coeff_identity_odd(n, h) for n in range(1, 7) for h in range(9))


# ---------------------------------------------------------------------------
# the checks compare integers; these Fraction forms of the same identities,
# term by term as the paper states them, are the references
# ---------------------------------------------------------------------------

def ref_identity_A(n, h):
    lhs = sum((-1) ** m * (2 * m + 1) * binom(n + h, h - m) * binom(n + h, h + m + 1)
              for m in range(h + 1))
    return lhs == n * binom(n + h, n)


def ref_summand_B(h, l, m):
    return (-1) ** m * (2 * m + 1) * binom(2 * h + 1, h - m) * binom(m + l, 2 * l)


def ref_identity_B(h, l):
    return sum(ref_summand_B(h, l, m) for m in range(l, h + 1)) == 0


def ref_gosper_g(h, l, m):
    return Fraction(
        (-1) ** (m + 1) * (h + m + 1) * (m - l) * binom(2 * h + 1, h - m) * binom(m + l, 2 * l),
        h - l,
    )


def ref_gosper_certificate(h, l, m):
    return ref_gosper_g(h, l, m + 1) - ref_gosper_g(h, l, m) == ref_summand_B(h, l, m)


def ref_gould(n, h):
    lhs = Fraction(
        sum((-1) ** m * binom(n + h, h - m) * binom(n + h, h + m) for m in range(h + 1))
    )
    c = binom(n + h, h)
    return lhs == Fraction(c, 2) + Fraction(c * c, 2)


def ref_coeff_identity_even(n, h):
    lhs = sum(
        L_closed(n, m) / (math.factorial(h - m) * math.factorial(h + m + 1))
        for m in range(h + 1)
    )
    rhs = L_closed(n, 0) * Fraction(
        math.factorial(n), math.factorial(h) * math.factorial(h + n)
    )
    return lhs == rhs


def ref_coeff_identity_odd(n, h):
    lhs = sum(
        D_closed(n, m) / (math.factorial(h - m) * math.factorial(h + m + 1))
        for m in range(h + 1)
    )
    rhs = Fraction(
        math.factorial(n - 1) * 2 ** (2 * h + 2 * n + 3) * math.factorial(h + n + 1),
        4 * math.factorial(h) * math.factorial(2 * h + 2 * n + 2),
    )
    return lhs == rhs


def ref_D_closed(n, m):
    # the expansion of the integral through half-integer factorials,
    # Gamma(k + 1/2) = (2k)! sqrt(pi) / (4^k k!), summed over k
    total = Fraction(0)
    for k in range(m + 1):
        hp = m + n - k + 1
        total += Fraction(
            (-1) ** k * binom(2 * m + 1 - k, k) * math.factorial(2 * m + 2 - 2 * k)
            * 4 ** hp * math.factorial(hp),
            4 * (2 * m + 1 - k) * math.factorial(m + 1 - k) * math.factorial(2 * hp),
        )
    return math.factorial(n - 1) * (2 * m + 1) * total


def _index_tuples(mx):
    """(check, reference, index tuples) of the six suites of verify --max mx."""
    return [
        (check_identity_A, ref_identity_A,
         [(n, h) for n in range(1, mx + 1) for h in range(mx + 1)]),
        (check_identity_B, ref_identity_B, [(h, l) for h in range(1, mx + 1) for l in range(h)]),
        (gosper_certificate, ref_gosper_certificate,
         [(h, l, m) for h in range(1, mx + 1) for l in range(h) for m in range(l, h + 1)]),
        (check_gould, ref_gould, [(n, h) for n in range(mx + 1) for h in range(mx + 1)]),
        (check_coeff_identity_even, ref_coeff_identity_even,
         [(n, h) for n in range(1, mx + 1) for h in range(mx + 1)]),
        (check_coeff_identity_odd, ref_coeff_identity_odd,
         [(n, h) for n in range(1, mx + 1) for h in range(mx + 1)]),
    ]


@pytest.fixture
def fresh_rows():
    # the coefficient checks keep per-n rows of the closed-form tables; a row
    # built from a perturbed table must not outlive the test
    comb_module._cleared_row.cache_clear()
    yield
    comb_module._cleared_row.cache_clear()


def test_integer_checks_equal_the_fraction_references():
    for check, ref, tuples in _index_tuples(16):
        for args in tuples:
            assert check(*args) is ref(*args), (check.__name__, args)


def test_gosper_g_equals_the_fraction_reference():
    for h in range(1, 17):
        for l in range(h):
            for m in range(l, h + 2):
                assert gosper_g(h, l, m) == ref_gosper_g(h, l, m)


def test_D_closed_equals_the_half_integer_factorial_sum():
    assert all(D_closed(n, m) == ref_D_closed(n, m) for n in range(1, 31) for m in range(31))


def test_all_suites_at_the_benchmark_top():
    for check, _, tuples in _index_tuples(24):
        assert all(check(*args) for args in tuples), check.__name__


@pytest.mark.parametrize("odd, n, m", [(False, 3, 1), (False, 3, 2), (False, 2, 5),
                                       (False, 1, 33), (True, 2, 1), (True, 4, 3),
                                       (True, 1, 33)])
def test_coefficient_checks_see_one_perturbed_table_entry(monkeypatch, fresh_rows, odd, n, m):
    # every h >= m uses X_m with the weight C(2h+1, h-m) on the left and not
    # on the right (m >= 1): a perturbed entry must fail each of them; the
    # zero entries L_m, m >= n, and entries past the first row block count too
    name, check = (("D_closed", check_coeff_identity_odd) if odd else
                   ("L_closed", check_coeff_identity_even))
    exact = getattr(comb_module, name)
    bump = Fraction(1, 10 ** 40)

    def perturbed(nn, mm):
        value = exact(nn, mm)
        if (nn, mm) != (n, m):
            return value
        return value + bump

    monkeypatch.setattr(comb_module, name, perturbed)
    for h in range(m + 3):
        assert check(n, h) is (h < m), h
        assert check(n + 1, h)  # other rows are untouched


def test_identity_checks_fail_on_an_off_by_one_side(monkeypatch):
    # A and Gould: the sum on the left off by one (its closed form on the
    # right reads the same Pascal row)
    for name in ("_weighted_sum_A", "_gould_sum"):
        monkeypatch.setattr(comb_module, name,
                            lambda *a, exact=getattr(comb_module, name): exact(*a) + 1)
    assert not any(check_identity_A(n, h) for n in range(1, 9) for h in range(9))
    assert not any(check_gould(n, h) for n in range(9) for h in range(9))
    monkeypatch.undo()
    # B and the certificate: one summand of B off by one, at m = 3
    exact = comb_module._summands_B

    def bumped(row, col, weights, h, l):
        summands = exact(row, col, weights, h, l)  # m = l..h
        if l <= 3 <= h:
            summands[3 - l] += 1
        return summands

    monkeypatch.setattr(comb_module, "_summands_B", bumped)
    for h in range(1, 9):
        for l in range(h):
            assert check_identity_B(h, l) is not (l <= 3 <= h), (h, l)
            for m in range(l, h + 1):
                assert gosper_certificate(h, l, m) is (m != 3), (h, l, m)


# ---------------------------------------------------------------------------
# the suites of verify: one Pascal triangle, one factorial table and one set
# of sign weights shared by every check of a run
# ---------------------------------------------------------------------------

SUITES = ["weighted-binomial closed form", "vanishing telescoped sum", "telescoping certificate",
          "Gould convolution", "even coefficient identity", "odd coefficient identity"]


@pytest.mark.parametrize("mx", [*range(1, 25), 30, 33])  # 33: past the first row block
def test_identity_suites_equal_the_public_checks(mx):
    expected = [all(check(*args) for args in tuples) for check, _, tuples in _index_tuples(mx)]
    assert identity_suites(mx) == list(zip(SUITES, expected))


def test_identity_suites_reject_an_empty_range():
    with pytest.raises(ValueError):
        identity_suites(0)


def test_one_point_functions_reject_indices_outside_their_sums():
    # a row read at a negative index would wrap round to its end
    with pytest.raises(ValueError):
        weighted_sum_A(3, -1)
    for m in (-1, 1, 5):
        with pytest.raises(ValueError):
            gosper_g(3, 2, m)


def _perturbed(table, entry):
    """A builder of table with one entry raised by 1 (the others exact)."""
    if table == "_cleared_row":
        exact = comb_module._cleared_row
        odd, n, m = entry

        def cleared(o, nn, size):
            den, row = exact(o, nn, size)
            if (o, nn) == (odd, n):
                row = row[:m] + (row[m] + 1,) + row[m + 1:]
            return den, row
        return cleared
    exact = getattr(comb_module, table)

    def built(top):
        values = exact(top)
        if table == "_pascal_rows":
            values[entry[0]][entry[1]] += 1
        else:
            values[entry] += 1
        return values
    return built


MX = 6


@pytest.mark.parametrize("table, entry, failing", [
    # row 2mx is C(n+h, .) of A and Gould at n = h = mx, and no odd row
    # 2h+1 or column C(m+l, 2l) of B reads it
    ("_pascal_rows", (2 * MX, 1), {"weighted-binomial closed form", "Gould convolution"}),
    # row 2mx+1 is C(2h+1, .) at h = mx: B, its certificate and the
    # coefficient identities read it, A and Gould stop at row 2mx
    ("_pascal_rows", (2 * MX + 1, MX), set(SUITES[1:3] + SUITES[4:])),
    # h! and (2h+1)! sit in both coefficient identities, (2h+2n+2)! in the odd one only
    ("_factorials", MX, set(SUITES[4:])),
    ("_factorials", 4 * MX + 2, {"odd coefficient identity"}),
    ("_cleared_row", (False, 3, 1), {"even coefficient identity"}),
    ("_cleared_row", (True, 2, 1), {"odd coefficient identity"}),
])
def test_suites_see_one_perturbed_shared_entry(monkeypatch, table, entry, failing):
    assert all(ok for _, ok in identity_suites(MX))
    monkeypatch.setattr(comb_module, table, _perturbed(table, entry))
    assert {name for name, ok in identity_suites(MX) if not ok} == failing
