"""The one-loop kernels against the generator-based oracle in ``_util``.

Each kernel of ``poly``, ``forms`` and ``symplectic`` sums the terms it makes
into its output dict inside its own loop.  ``_util`` keeps the same kernels
written as generators of (key, c) pairs summed by ``poly._sum_into``.  On
seeded inputs on R2..R8, with int and Fraction coefficients and with inputs
built so that terms cancel, both must store the same terms in the same order,
with no zero coefficient, and refuse the same exponent overflows.
"""

from fractions import Fraction

import pytest

from koszul import DifferentialForm, MultiVectorField, Polynomial, SymplecticSpace, d, d_poly, parse_form
from koszul.forms import _contract
from koszul.poly import ExponentOverflow
from koszul.randgen import random_vector_field

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
        X = random_vector_field(rng(f"kernels/X/{dim}", t), dim, 2) * scale
        P = MultiVectorField._raw(dim, 2, form(kind, "pi", t, dim, 2).packed)
        for degree in range(1, min(dim, 3) + 1):
            a = form(kind, f"iota{degree}", t, dim, degree)
            once = same(_contract(X, a), generator_contract(X, a))
            assert same(_contract(X, once), generator_contract(X, once)).is_zero()  # iota_X iota_X = 0
            if degree >= 2:
                same(_contract(P, a), generator_contract(P, a))


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
