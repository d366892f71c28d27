"""The one-loop kernels against the generator-based oracle in ``_util``.

Each kernel of ``poly``, ``forms`` and ``symplectic`` sums the terms it makes
into its output dict inside its own loop, reading its per-basis rule from a
lazily filled table.  ``_util`` keeps the same kernels written as generators
of (key, c) pairs summed by ``poly._sum_into``, with their own per-basis rules
evaluated afresh for every term.  On seeded inputs on R2..R8, with int and
Fraction coefficients and with inputs built so that terms cancel, and on every
basis of R1..R8, both must store the same terms in the same order, with no
zero coefficient, and refuse the same exponent overflows.  The accumulation
kernel ``_Terms._plus`` is held against a sum of oracle products.
"""

import sys
import threading
from fractions import Fraction

import pytest

from koszul import DifferentialForm, MultiVectorField, Polynomial, SymplecticSpace, d, d_poly, parse_form
from koszul.forms import _contract, _d_table, _odd_above
from koszul.poly import EXP_MAX, ExponentOverflow, layout
from koszul.symplectic import _TOGGLES, _delta_table

from _util import (
    generator_contract,
    generator_d,
    generator_delta,
    generator_L,
    generator_Lam,
    generator_mul,
    generator_wedge,
    rand_form,
    rand_frac_form,
    rand_frac_poly,
    rand_poly,
    rng,
    stdlib_random_vector_field,
)

DIMS = range(2, 9)
KINDS = ("int", "fraction")
TRIALS = 3


def same(ours, oracle):
    """``ours`` after checking it stores exactly the oracle's terms, in its order, none of them zero."""
    assert type(ours) is type(oracle) and (ours.dim, ours.degree) == (oracle.dim, oracle.degree)
    assert list(ours.packed.items()) == list(oracle.packed.items())
    assert all(ours.packed.values()), "a zero coefficient is stored"
    return ours


def form(kind, label, t, dim, degree):
    draw = rand_form if kind == "int" else rand_frac_form
    return draw(f"kernels/{label}", t, dim, degree, 2)


def poly(kind, label, t, dim):
    return rand_poly(f"kernels/{label}", t, dim, 2, 3) if kind == "int" else rand_frac_poly(f"kernels/{label}", t, dim, 2)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_products_match_the_oracle(dim, kind):
    cancelled = 0
    for t in range(TRIALS):
        p, q = poly(kind, "mul-p", t, dim), poly(kind, "mul-q", t, dim)
        a = form(kind, "mul-a", t, dim, min(2, dim))
        for x, y in [(p, q), (p + q, p - q), (a, p), (a * (p + q), p - q), (a, Polynomial.zero(dim))]:
            out = same(x * y, generator_mul(x, y))
            cancelled += len(out.packed) < len(x.packed) * len(y.packed)
    assert cancelled  # (p + q)(p - q) loses its cross terms


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_wedge_matches_the_oracle(dim, kind):
    for t in range(TRIALS):
        for p, q in [(1, 1), (1, 2), (0, 2), (2, 2), (2, 3), (3, 3)]:
            if p + q > dim:
                continue
            a, b = form(kind, f"wedge-a{p}", t, dim, p), form(kind, f"wedge-b{q}", t, dim, q)
            same(a.wedge(b), generator_wedge(a, b))
        a, b = form(kind, "wedge-odd", t, dim, 1), form(kind, "wedge-odd2", t, dim, 1)
        assert same(a.wedge(a), generator_wedge(a, a)).is_zero()  # every term cancels
        same((a + b).wedge(a - b), generator_wedge(a + b, a - b))


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_d_matches_the_oracle(dim, kind):
    for t in range(TRIALS):
        for degree in range(min(dim, 3) + 1):
            a = form(kind, f"d{degree}", t, dim, degree)
            assert same(d(d(a)), generator_d(d(a))).is_zero()  # every term cancels
            same(d(a), generator_d(a))
        f, g = poly(kind, "d-f", t, dim), poly(kind, "d-g", t, dim)
        same(d(d_poly(f) * g), generator_d(d_poly(f) * g))


@pytest.mark.parametrize("dim", (2, 4, 6, 8))
@pytest.mark.parametrize("kind", KINDS)
def test_symplectic_operators_match_the_oracle(dim, kind):
    s = SymplecticSpace(dim // 2)
    for t in range(TRIALS):
        for degree in range(dim + 1):
            a = form(kind, f"op{degree}", t, dim, degree)
            same(s.L(a), generator_L(s, a))
            same(s.Lam(a), generator_Lam(s, a))
            same(s.delta(a), generator_delta(s, a))
            assert same(s.delta(s.delta(a)), generator_delta(s, s.delta(a))).is_zero()
        if dim >= 4:  # x = f (dx_P1 - dx_P2) ^ dx_R: the f dx_P1P2R of L(x) cancel, and so do the f dx_R of Lam(x)
            f = poly(kind, "op-f", t, dim)
            rest = (4, 5) if dim >= 6 else ()
            x = DifferentialForm(dim, 2 + len(rest), {(0, 1, *rest): f, (2, 3, *rest): -f})
            same(s.L(x), generator_L(s, x))
            lowered = same(s.Lam(x), generator_Lam(s, x))
            assert len(lowered.packed) < len(x.packed) * (1 + len(rest) // 2)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_contractions_match_the_oracle(dim, kind):
    scale = 1 if kind == "int" else Fraction(-5, 3)
    for t in range(TRIALS):
        X = stdlib_random_vector_field(rng(f"kernels/X/{dim}", t), dim, 2) * scale
        P = MultiVectorField._raw(dim, 2, form(kind, "pi", t, dim, 2).packed)
        for degree in range(1, min(dim, 3) + 1):
            a = form(kind, f"iota{degree}", t, dim, degree)
            once = same(_contract(X, a), generator_contract(X, a))
            assert same(_contract(X, once), generator_contract(X, once)).is_zero()  # iota_X iota_X = 0
            if degree >= 2:
                same(_contract(P, a), generator_contract(P, a))


# -- every basis mask: the table entries against the oracle's rules, and filled only where met


def basis_terms(dim, m):
    """One-term forms c x^e dx_m: e = 0 (no step fires), e = 1_i for each i (one field read), and
    e_i = i + 1 for every i (every step fires, each with its own factor)."""
    ones = [one for _, one in layout(dim)[0]]
    exps = [0, *ones, sum((i + 1) * one for i, one in enumerate(ones))]
    return [DifferentialForm._raw(dim, m.bit_count(), {m | e: 3}) for e in exps]


def every_basis(dim, degree):
    """One form with a term c x^e dx_m, e_i = i + 1, on every basis m of ``degree``."""
    full = sum((i + 1) * one for i, (_, one) in enumerate(layout(dim)[0]))
    return DifferentialForm._raw(dim, degree, {m | full: m + 1 for m in range(1 << dim) if m.bit_count() == degree})


@pytest.mark.parametrize("dim", range(1, 9))
def test_d_matches_the_oracle_on_every_basis(dim):
    for m in range(1 << dim):
        for a in basis_terms(dim, m):
            same(d(a), generator_d(a))
    for degree in range(dim + 1):
        a = every_basis(dim, degree)
        same(d(a), generator_d(a))


@pytest.mark.parametrize("dim", (2, 4, 6, 8))
def test_symplectic_operators_match_the_oracle_on_every_basis(dim):
    s = SymplecticSpace(dim // 2)
    for a in [x for m in range(1 << dim) for x in basis_terms(dim, m)] + [every_basis(dim, k) for k in range(dim + 1)]:
        same(s.delta(a), generator_delta(s, a))
        same(s.L(a), generator_L(s, a))
        same(s.Lam(a), generator_Lam(s, a))


def test_tables_hold_only_the_bases_met_on_R64():
    s = SymplecticSpace(32)
    for tables in (_d_table, _delta_table, *_TOGGLES.values()):
        tables.pop(64, None)  # earlier tests may have filled R64 entries
    for x in (parse_form("v64^2 dx1 + v1 v2 dx1", 64), parse_form("v3 dx2^dx3^dx64", 64)):
        d(x), s.delta(x), s.L(x), s.Lam(x)
    for tables in (_d_table, _delta_table, *_TOGGLES.values()):
        assert set(tables[64]) == {1, 0b110 | 1 << 63}  # dx1 and dx2^dx3^dx64, of 2^64 bases
    before = set(_odd_above)
    parse_form("v5 dx7 - v6 dx64", 64).wedge(parse_form("dx1", 64))
    assert set(_odd_above) - before <= {1 << 6, 1 << 63}


def test_threads_filling_one_table_store_equal_entries():
    s = SymplecticSpace(5)
    forms = [every_basis(10, k) for k in range(11)]
    expected = [(generator_d(a).packed, generator_delta(s, a).packed) for a in forms]
    for tables in (_d_table, _delta_table):
        tables.pop(10, None)
    results, switch = [], sys.getswitchinterval()

    def work(order):
        results.append([(i, d(forms[i]).packed, s.delta(forms[i]).packed) for i in order])

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(range(11)[::step],)) for step in (1, -1) * 3]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads) and len(results) == 6
    for i, dd, dl in (row for rows in results for row in rows):
        assert list(dd.items()) == list(expected[i][0].items()) and list(dl.items()) == list(expected[i][1].items())
    for tables in (_d_table, _delta_table):
        assert len(tables[10]) == 1 << 10 and all(entry == tables[10].build(m) for m, entry in tables[10].items())


# -- exponent overflow: refused when an out-of-range key survives, not when it cancels


def high(text):
    return parse_form(text, 2)


def test_a_surviving_key_past_the_bound_is_refused():
    top, p = high("v1^20000 dx1"), high("v1^20000").as_polynomial()
    for kernel, oracle, args in [
        (DifferentialForm.wedge, generator_wedge, (top, high("v1^20000 dx2"))),
        (Polynomial.__mul__, generator_mul, (p, p)),
        (DifferentialForm.__mul__, generator_mul, (top, p)),
        (_contract, generator_contract, (MultiVectorField._raw(2, 1, top.packed), top)),
    ]:
        for run in (kernel, oracle):
            with pytest.raises(ExponentOverflow):
                run(*args)


def test_an_out_of_range_key_that_cancels_is_not_refused():
    alpha = high("v1^20000 dx1 + v1^20000 dx2")
    assert same(alpha.wedge(alpha), generator_wedge(alpha, alpha)) == DifferentialForm.zero(2, 2)
    X = MultiVectorField._raw(2, 1, high("v1^20000 dx1 - v1^20000 dx2").packed)
    assert same(_contract(X, alpha), generator_contract(X, alpha)) == DifferentialForm.zero(2, 0)


# -- the accumulation kernel: x._plus(y, c, p) = x + c y p and x._plus(y, c) = x + c y, in one pass

FACTORS = (1, -1, 3, Fraction(-2, 5))


def same_sum(ours, oracle):
    """``ours`` after checking it stores the oracle's terms, none of them zero.

    A key that cancels and comes back moves to the end of a dict, and the kernel adds into a
    copy of x where the oracle adds into a fresh product, so the maps are compared unordered."""
    assert type(ours) is type(oracle) and (ours.dim, ours.degree) == (oracle.dim, oracle.degree)
    assert ours.packed == oracle.packed
    assert all(ours.packed.values()), "a zero coefficient is stored"
    return ours


def plus_cases(kind, t, dim):
    """(x, y, p) on R^dim: forms and polynomials, zero operands, and x built to cancel c y p."""
    p, q = poly(kind, "plus-p", t, dim), poly(kind, "plus-q", t, dim)
    a, b = form(kind, "plus-a", t, dim, min(2, dim)), form(kind, "plus-b", t, dim, min(2, dim))
    return [
        (a, b, p), (p, q, p + q),
        (DifferentialForm.zero(dim, a.degree), b, p), (a, DifferentialForm.zero(dim, a.degree), p),
        (a, b, Polynomial.zero(dim)),
        (-generator_mul(b, p), b, p),  # at c = 1 every term cancels
        (a - generator_mul(b, q), b, q + p),  # the b q part of a cancels
    ]


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("kind", KINDS)
def test_plus_matches_the_oracle(dim, kind):
    cancelled = 0
    for t in range(TRIALS):
        for x, y, p in plus_cases(kind, t, dim):
            for c in FACTORS:
                out = same_sum(x._plus(y, c, p), x + generator_mul(y, p) * c)
                cancelled += out.is_zero() and not x.is_zero()
                same_sum(x._plus(y, c), x + y * c)
            assert same_sum(x._plus(x, -1), x - x).is_zero()
    assert cancelled


def test_plus_refuses_a_surviving_product_past_the_bound_but_never_a_sum():
    top, p = high("v1^20000 dx1"), high("v1^20000").as_polynomial()
    for c in FACTORS:
        with pytest.raises(ExponentOverflow):
            DifferentialForm.zero(2, 1)._plus(top, c, p)
    with pytest.raises(ExponentOverflow):
        generator_mul(top, p)
    edge = high(f"v1^{EXP_MAX} dx1 + v1^{EXP_MAX} v2^{EXP_MAX} dx2")
    for c in FACTORS:
        same_sum(edge._plus(edge, c), edge * (1 + c))


def test_a_product_whose_bound_allows_an_overflow_is_scanned_not_refused():
    # 16384 | 16383 = 32767: with a factor v1 the bound (OR of the left keys plus OR of the right)
    # sets the guard bit of v1's field, but no product passes v1^16385, so nothing is refused
    x, y = high("v1^16384 + v1^16383").as_polynomial(), high("v1").as_polynomial()
    a = high("v1^16384 dx1 + v1^16383 dx2")
    same(x * y, generator_mul(x, y))
    same(a * y, generator_mul(a, y))
    same_sum(a._plus(a, -1, y), a + generator_mul(a, y) * -1)


def test_plus_with_factor_1_rebuilds_no_coefficient():
    # Fraction * 1 is a new object: each stored coefficient being the one it was copied from
    # shows that no c * 1 ran
    a = rand_frac_form("plus-same-a", 0, 4, 2)
    far = Polynomial(4, {(9, 0, 0, 0): 1})  # every key of b lies past the degree-3 keys of a
    b = generator_mul(rand_frac_form("plus-same-b", 0, 4, 2), far)
    for x, y in [(a, b), (DifferentialForm.zero(4, 2), b)]:
        out = x._plus(y)
        assert len(out.packed) == len(x.packed) + len(y.packed)
        assert all(out.packed[k] is c for z in (x, y) for k, c in z.packed.items())
