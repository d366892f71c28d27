import random
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


@pytest.mark.parametrize("text, same_as", [("1\t/2", "1/2"), ("1 /\n2 v1", "1/2 v1")])
def test_any_whitespace_around_a_number_slash_is_dropped(text, same_as):
    assert parse_form(text, 3) == parse_form(same_as, 3)


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


HUGE = "1" * 5000  # past Python's 4,300-digit limit on int(str)

# Every refusal of the parser, with its exact message and position, at dimension 3.
REFUSALS = [
    ("", "empty expression", 0),
    ("   ", "empty expression", 0),
    ("v1 ? v2", "unexpected character '?'", 3),
    ("dx", "unexpected character 'd'", 0),
    ("v1 -", "dangling sign", 3),
    ("1/0 v1", "zero denominator", 0),
    (HUGE + " v1", "number of 5000 characters is too long", 0),
    ("1/" + HUGE, "number of 5002 characters is too long", 0),
    ("v" + HUGE, "number of 5000 characters is too long", 0),
    ("v1^" + HUGE, "number of 5000 characters is too long", 3),
    ("dx" + HUGE, "number of 5000 characters is too long", 0),
    ("v4", "unknown coordinate v4 (dimension is 3)", 0),
    ("v00", "unknown coordinate v00 (dimension is 3)", 0),
    ("dx9", "unknown basis form dx9 (dimension is 3)", 0),
    ("v\u0663 dx\u0661", "unexpected character 'v'", 0),  # digits are ASCII 0-9, not Arabic-Indic 3 and 1
    ("\u0663/2 v1", "unexpected character '\u0663'", 0),
    ("v1^1/2", "exponent must be an integer", 3),
    ("v1^", "expected integer exponent after '^'", 2),
    ("v1^v2", "expected integer exponent after '^'", 2),
    ("v1^40000", "exponent of v1 exceeds 32767", 0),
    ("v01^40000", "exponent of v1 exceeds 32767", 0),
    ("- + v1", "empty term", 2),
    ("v1^2^3", "expected '+' or '-' between terms", 4),
    ("v1^dx1", "expected '+' or '-' between terms", 2),
    ("dx1 ^ v1", "expected '+' or '-' between terms", 4),
    ("dx1^dx1 ^ v1", "expected '+' or '-' between terms", 8),  # also after a term that is zero
    ("dx1 v1", "unexpected token 'v1'", 4),  # the whole token, not its index digits
    ("v1 dx2 dx1", "unexpected token 'dx1'", 7),
    ("2 3 / 4", "unexpected token '3/4'", 2),
    ("3 dx1 + dx1^dx2", "sum mixes degrees [1, 2]", 0),
    ("dx1^dx1 + v1 + dx1", "sum mixes degrees [0, 1]", 10),  # at the first term without a repeated dxK
]


@pytest.mark.parametrize("text, message, pos", REFUSALS, ids=[repr(t[:12]) for t, _, _ in REFUSALS])
def test_every_refusal_names_its_message_and_position(text, message, pos):
    with pytest.raises(FormSyntaxError) as err:
        parse_form(text, 3)
    assert (str(err.value), err.value.pos) == (f"{message} (at position {pos})", pos)


def test_parse_polynomial_refuses_a_form_at_position_zero():
    with pytest.raises(FormSyntaxError) as err:
        parse_polynomial("v1 dx1", 2)
    assert (str(err.value), err.value.pos) == ("expected a function (degree-0 expression) (at position 0)", 0)


FUZZ_PIECES = ["v1", "v2", "v3", "v4", "dx", "dx1", "dx2", "dx3", "0", "2", "3/2", "1/0", "^", "+", "-", "@", "v1^40000"]


def test_random_strings_parse_and_round_trip_or_raise_a_syntax_error():
    # 4,000 strings, about 0.1 s: nothing but FormSyntaxError may escape the parser
    rng = random.Random(20240718)
    parsed = 0
    for _ in range(4000):
        text = "".join(rng.choice(FUZZ_PIECES) + rng.choice(["", " "]) for _ in range(rng.randint(0, 7)))
        try:
            x = parse_form(text, 3)
        except FormSyntaxError as err:
            assert 0 <= err.pos <= len(text), text
            continue
        assert parse_form(render_form(x), 3) == x, text
        parsed += 1
    assert 200 <= parsed <= 3800  # both outcomes are exercised
