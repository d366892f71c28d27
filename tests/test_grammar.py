from fractions import Fraction

import pytest

from koszul import (
    DifferentialForm,
    FormSyntaxError,
    MultiVectorField,
    Polynomial,
    parse_form,
    parse_polynomial,
    render_form,
    render_polynomial,
)
from koszul.grammar import render_multivector

from _util import rand_form


def test_single_term_example():
    form = parse_form("3/2 v1^2 dx1^dx2", 2)
    coeff = Polynomial(2, {(2, 0): Fraction(3, 2)})
    assert form == DifferentialForm(2, 2, {(0, 1): coeff})


def test_repeated_basis_index_normalizes_to_zero():
    assert parse_form("dx1^dx1", 2).is_zero()


def test_out_of_order_basis_picks_up_sign():
    assert parse_form("dx2^dx1", 2) == parse_form("-dx1^dx2", 2)


def test_mixed_degrees_rejected():
    with pytest.raises(FormSyntaxError, match="mixes degrees"):
        parse_form("v1 dx2 + dx1^dx2", 2)


def test_unknown_coordinate_rejected():
    with pytest.raises(FormSyntaxError, match="unknown coordinate"):
        parse_form("v5 dx1", 2)
    with pytest.raises(FormSyntaxError, match="unknown basis form"):
        parse_form("dx9", 2)


def test_syntax_error_carries_position():
    with pytest.raises(FormSyntaxError) as err:
        parse_form("v1 + @", 2)
    assert err.value.pos == 5


def test_zero_renders_as_zero():
    assert render_form(DifferentialForm.zero(3, 2)) == "0"
    assert parse_form("0", 3).is_zero()


def test_omitted_coefficient_and_signs():
    got = parse_form("dx1 - v2 dx2 + 4 dx1", 2)
    assert got == parse_form("5 dx1 - v2 dx2", 2)


def test_whitespace_insensitive():
    a = parse_form("3/2v1^2dx1^dx2", 2)
    b = parse_form("  3 / 2  v1^2   dx1 ^ dx2 ", 2)
    assert a == b


def test_parse_render_roundtrip_random():
    for t in range(15):
        for degree in (0, 1, 2, 3):
            a = rand_form("rt", t + 17 * degree, 4, degree)
            assert parse_form(render_form(a), 4) == a


def test_render_parse_idempotent_on_canonical_strings():
    for t in range(10):
        a = rand_form("idem", t, 3, 2)
        text = render_form(a)
        assert render_form(parse_form(text, 3)) == text


def test_render_is_deterministic_ordering():
    a = parse_form("v2 dx3 + dx1 + v1^2 dx1", 3)
    assert render_form(a) == "dx1 + v1^2 dx1 + v2 dx3"
    # bases render in lexicographic order of their index tuples, not in bitmask order
    assert render_form(parse_form("dx2^dx3 + dx1^dx4", 4)) == "dx1^dx4 + dx2^dx3"
    assert render_form(parse_form("v1 dx2^dx3^dx4 - dx1^dx5^dx6", 6)) == "-dx1^dx5^dx6 + v1 dx2^dx3^dx4"
    one = Polynomial.constant(4, 1)
    assert render_multivector(MultiVectorField(4, 2, {(1, 2): one, (0, 3): one})) == "e1^e4 + e2^e3"


def test_parse_polynomial():
    p = parse_polynomial("2 v1 v2 - 1/2", 2)
    assert p == Polynomial(2, {(1, 1): 2, (0, 0): Fraction(-1, 2)})
    assert render_polynomial(p) == "-1/2 + 2 v1 v2"
    with pytest.raises(FormSyntaxError):
        parse_polynomial("v1 dx1", 2)


def test_parsed_whole_coefficients_are_ints():
    # so that sums with a parsed form stay over Z; a whole sum of fractions counts too
    p = parse_polynomial("2 v1 v2 - 1/2 + 1/3 v1 + 2/3 v1", 2)
    assert {e: type(c) for e, c in p.terms.items()} == {(1, 1): int, (0, 0): Fraction, (1, 0): int}
    assert p.terms[(1, 0)] == 1


def test_dangling_operator_rejected():
    with pytest.raises(FormSyntaxError):
        parse_form("v1 +", 2)
    with pytest.raises(FormSyntaxError):
        parse_form("v1 ^", 2)


def test_parse_accepts_space_objects():
    from koszul import SymplecticSpace, VolumeSpace

    assert parse_form("v1 dx2", SymplecticSpace(1)) == parse_form("v1 dx2", 2)
    assert parse_form("dx1^dx2", VolumeSpace(3)) == parse_form("dx1^dx2", 3)


def test_exponent_bound_is_a_parse_error_at_the_token():
    assert parse_polynomial("v1^32767 v2", 2) == Polynomial(2, {(32767, 1): 1})
    with pytest.raises(FormSyntaxError, match="exponent of v1 exceeds 32767") as err:
        parse_form("v1^32768", 2)
    assert err.value.pos == 0
    with pytest.raises(FormSyntaxError, match="exponent of v1 exceeds 32767") as err:
        parse_form("v2 + v1^20000 v1^20000", 2)  # repeated factors add up past the bound
    assert err.value.pos == 14
