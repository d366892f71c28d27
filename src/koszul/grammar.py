"""Text grammar for forms with polynomial coefficients.

Terms are joined by ``+``/``-``, which only the first term may omit; a term is
an optional rational (``p/q`` or an integer), followed by monomial factors
``vK`` or ``vK^e``, followed by an optional basis form ``dxK^dxK^...``.
Digits are ASCII 0-9; whitespace between tokens and around a number's ``/`` is
ignored.  The exponents of one coordinate in a term add up to at most
``EXP_MAX``.  A ``FormSyntaxError`` quotes the offending token in full and
gives its position.

    3/2 v1^2 dx1^dx2  - v2 dx1^dx3  + 7

Rendering is canonical: basis forms in lexicographic order, monomials in
graded-lex order, unit coefficients suppressed, so rendered strings re-parse
to equal values and re-render byte-identically.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .forms import DifferentialForm, MultiVectorField
from .poly import EXP_MAX, Polynomial, _pack, _sum_into


class FormSyntaxError(ValueError):
    """Raised on malformed input; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:(?P<dx>dx[0-9]+)|(?P<v>v[0-9]+)|(?P<num>[0-9]+(?:\s*/\s*[0-9]+)?)|(?P<op>[+\-^])|(?P<bad>\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, start) of each token, then the sentinel ("end", "", len(text))."""
    tokens = []
    for m in _TOKEN.finditer(text):  # contiguous: every non-space character matches some kind
        kind = m.lastgroup
        if kind == "bad":
            raise FormSyntaxError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append((kind, re.sub(r"\s", "", m.group(kind)), m.start(kind)))  # "3 / 4" reads "3/4"
    tokens.append(("end", "", len(text)))
    return tokens


def _number(convert, digits: str, pos: int):
    """``convert(digits)`` for a number token at ``pos``; every failure is a syntax error there."""
    try:
        return convert(digits)
    except ZeroDivisionError:
        raise FormSyntaxError("zero denominator", pos) from None
    except ValueError:  # the token is digits and at most one "/": only the integer-string limit gets here
        raise FormSyntaxError(f"number of {len(digits)} characters is too long", pos) from None


def _index(token: tuple[str, str, int], dim: int, what: str) -> int:
    """The 0-based index of a ``vK`` or ``dxK`` token (its kind is its prefix), checked against ``dim``."""
    kind, text, pos = token
    i = _number(int, text[len(kind):], pos) - 1
    if not 0 <= i < dim:
        raise FormSyntaxError(f"unknown {what} {text} (dimension is {dim})", pos)
    return i


def _space_dim(space) -> int:
    return space if isinstance(space, int) else space.dim


def parse_form(text: str, space) -> DifferentialForm:
    """Parse a form expression over the given space (or plain dimension).

    Raises FormSyntaxError for malformed text, unknown coordinates, or a sum
    whose nonzero terms do not share one degree.
    """
    dim = _space_dim(space)
    tokens = _tokenize(text)
    if len(tokens) == 1:
        raise FormSyntaxError("empty expression", 0)
    k = 0

    def take(want: str):
        """Consume and return the next token if ``want`` is its kind or its text, else None."""
        nonlocal k
        if want not in tokens[k][:2]:
            return None
        k += 1
        return tokens[k - 1]

    parsed: list[tuple[int | Fraction, int, int, int]] = []  # coeff, packed key, basis mask, pos
    while tokens[k][0] != "end":
        at = tokens[k]
        sign = take("+") or take("-")
        if k and not sign:  # the first term may carry a sign, every later one needs one
            raise FormSyntaxError(f"unexpected token {at[1]!r}" if at[0] != "op"
                                  else "expected '+' or '-' between terms", at[2])
        if tokens[k][0] == "end":
            raise FormSyntaxError("dangling sign", at[2])

        start, term_pos = k, tokens[k][2]
        coeff = -1 if sign and sign[1] == "-" else 1
        if num := take("num"):
            coeff *= _number(Fraction, num[1], num[2])
        exps = [0] * dim
        while var := take("v"):
            i = _index(var, dim, "coordinate")
            e = 1
            if tokens[k][1] == "^" and tokens[k + 1][0] != "dx":  # a '^' before dxK ends the term
                caret, power = take("^"), take("num")
                if not power:
                    raise FormSyntaxError("expected integer exponent after '^'", caret[2])
                if "/" in power[1]:
                    raise FormSyntaxError("exponent must be an integer", power[2])
                e = _number(int, power[1], power[2])
            exps[i] += e
            if exps[i] > EXP_MAX:  # the largest exponent a stored monomial holds
                raise FormSyntaxError(f"exponent of v{i + 1} exceeds {EXP_MAX}", var[2])
        mask = repeated = 0
        basis = take("dx")
        while basis:
            i = _index(basis, dim, "basis form")
            repeated |= mask >> i & 1  # dx_i twice: the term is zero, but is still scanned
            if (mask >> i).bit_count() & 1:  # dx_i moves past the factors above it
                coeff = -coeff
            mask |= 1 << i
            basis = tokens[k][1] == "^" and tokens[k + 1][0] == "dx" and take("^") and take("dx")
        if k == start:
            raise FormSyntaxError("empty term", term_pos)
        if not repeated:
            parsed.append((coeff, _pack(dim, tuple(exps)) | mask, mask, term_pos))

    degrees = {m.bit_count() for c, _, m, _ in parsed if c}
    if len(degrees) > 1:
        raise FormSyntaxError(f"sum mixes degrees {sorted(degrees)}", parsed[0][3])
    packed = _sum_into({}, ((key, c) for c, key, _, _ in parsed if c))
    whole = {key: c.numerator if c.denominator == 1 else c for key, c in packed.items()}  # sums stay over Z
    return DifferentialForm._raw(dim, degrees.pop() if degrees else 0, whole)


def parse_polynomial(text: str, space) -> Polynomial:
    form = parse_form(text, space)
    if form.degree != 0:
        raise FormSyntaxError("expected a function (degree-0 expression)", 0)
    return form.as_polynomial()


def _render_monomial(exps: tuple) -> list[str]:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(f"v{i + 1}")
        elif e > 1:
            parts.append(f"v{i + 1}^{e}")
    return parts


def _render_basis(idx: tuple, prefix: str) -> str:
    return "^".join(f"{prefix}{i + 1}" for i in idx)


def _render_terms(obj, prefix: str) -> str:
    chunks: list[tuple[int, str]] = []  # (sign, body)
    for idx, p in obj.components().items():
        for exps, c in p.sorted_terms():
            f = Fraction(c)
            sign = -1 if f < 0 else 1
            mag = -f if f < 0 else f
            parts = _render_monomial(exps)
            if idx:
                parts.append(_render_basis(idx, prefix))
            if mag != 1 or not parts:
                parts.insert(0, str(mag))
            chunks.append((sign, " ".join(parts)))
    if not chunks:
        return "0"
    first_sign, first = chunks[0]
    out = ("-" if first_sign < 0 else "") + first
    for sign, body in chunks[1:]:
        out += (" - " if sign < 0 else " + ") + body
    return out


def render_form(a: DifferentialForm) -> str:
    """Canonical rendering; parse_form(render_form(a)) == a."""
    return _render_terms(a, "dx")


def render_polynomial(p: Polynomial) -> str:
    return _render_terms(DifferentialForm.from_polynomial(p), "dx")


def render_multivector(x: MultiVectorField) -> str:
    """Debug rendering of a multivector in the e-basis (not part of the grammar)."""
    return _render_terms(x, "e")
