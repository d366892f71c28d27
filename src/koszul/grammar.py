"""Text grammar for forms with polynomial coefficients.

Terms are joined by ``+``/``-``; a term is an optional rational (``p/q`` or an
integer), followed by monomial factors ``vK`` or ``vK^e``, followed by an
optional basis form ``dxK^dxK^...``.  Whitespace between tokens is ignored.
The exponents of one coordinate in a term add up to at most ``EXP_MAX``.

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


_TOKEN = re.compile(
    r"\s*(?:(?P<basis>dx(?P<bidx>\d+))"
    r"|(?P<var>v(?P<vidx>\d+))"
    r"|(?P<num>\d+(?:\s*/\s*\d+)?)"
    r"|(?P<op>[+\-^]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise FormSyntaxError(f"unexpected character {text[bad]!r}", bad)
        if m.group("basis"):
            tokens.append(("basis", m.group("bidx"), m.start("basis")))
        elif m.group("var"):
            tokens.append(("var", m.group("vidx"), m.start("var")))
        elif m.group("num"):
            tokens.append(("num", m.group("num").replace(" ", ""), m.start("num")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


def _number(convert, digits: str, pos: int):
    """``convert(digits)`` for a number token at ``pos``; every failure is a syntax error there."""
    try:
        return convert(digits)
    except ZeroDivisionError:
        raise FormSyntaxError("zero denominator", pos) from None
    except ValueError:  # the token is digits and at most one "/": only the integer-string limit gets here
        raise FormSyntaxError(f"number of {len(digits)} characters is too long", pos) from None


def _space_dim(space) -> int:
    return space if isinstance(space, int) else space.dim


def parse_form(text: str, space) -> DifferentialForm:
    """Parse a form expression over the given space (or plain dimension).

    Raises FormSyntaxError for malformed text, unknown coordinates, or a sum
    whose nonzero terms do not share one degree.
    """
    dim = _space_dim(space)
    tokens = _tokenize(text)
    if not tokens:
        raise FormSyntaxError("empty expression", 0)

    parsed: list[tuple[Fraction, tuple, int, int]] = []  # coeff, exps, basis mask, pos
    k = 0
    nt = len(tokens)
    while k < nt:
        sign = 1
        kind, val, pos = tokens[k]
        if parsed:
            if kind != "op" or val not in "+-":
                raise FormSyntaxError("expected '+' or '-' between terms", pos)
            if val == "-":
                sign = -1
            k += 1
        elif kind == "op" and val in "+-":  # leading sign
            if val == "-":
                sign = -1
            k += 1
        if k >= nt:
            raise FormSyntaxError("dangling sign", pos)

        coeff = Fraction(sign)
        exps = [0] * dim
        basis: list[int] = []
        term_pos = tokens[k][2]
        got_anything = False

        kind, val, pos = tokens[k]
        if kind == "num":
            coeff *= _number(Fraction, val, pos)
            got_anything = True
            k += 1

        def _is_op(idx: int, which: str) -> bool:
            return idx < nt and tokens[idx][0] == "op" and tokens[idx][1] == which

        while k < nt and tokens[k][0] == "var":
            _, vidx, pos = tokens[k]
            i = _number(int, vidx, pos) - 1
            if not 0 <= i < dim:
                raise FormSyntaxError(f"unknown coordinate v{vidx} (dimension is {dim})", pos)
            k += 1
            e = 1
            if _is_op(k, "^") and k + 1 < nt and tokens[k + 1][0] == "num":
                ev = tokens[k + 1][1]
                if "/" in ev:
                    raise FormSyntaxError("exponent must be an integer", tokens[k + 1][2])
                e = _number(int, ev, tokens[k + 1][2])
                k += 2
            elif _is_op(k, "^") and (k + 1 >= nt or tokens[k + 1][0] != "basis"):
                raise FormSyntaxError("expected integer exponent after '^'", tokens[k][2])
            exps[i] += e
            if exps[i] > EXP_MAX:  # the largest exponent a stored monomial holds
                raise FormSyntaxError(f"exponent of v{i + 1} exceeds {EXP_MAX}", pos)
            got_anything = True

        basis_sign = 1
        if k < nt and tokens[k][0] == "basis":
            while True:
                _, bidx, pos = tokens[k]
                i = _number(int, bidx, pos) - 1
                if not 0 <= i < dim:
                    raise FormSyntaxError(f"unknown basis form dx{bidx} (dimension is {dim})", pos)
                if i in basis:
                    basis_sign = 0  # keep scanning the term
                elif sum(b > i for b in basis) & 1:  # dx_i moves past the factors above it
                    basis_sign = -basis_sign
                basis.append(i)
                k += 1
                got_anything = True
                if _is_op(k, "^") and k + 1 < nt and tokens[k + 1][0] == "basis":
                    k += 1
                    continue
                break

        if not got_anything:
            raise FormSyntaxError("empty term", pos)
        if k < nt and tokens[k][0] not in ("op",):
            raise FormSyntaxError(f"unexpected token {tokens[k][1]!r}", tokens[k][2])
        if basis_sign == 0:
            continue  # repeated dx index: the term is zero
        parsed.append((coeff * basis_sign, tuple(exps), sum(1 << i for i in basis), term_pos))

    degrees = {m.bit_count() for c, _, m, _ in parsed if c}
    if len(degrees) > 1:
        raise FormSyntaxError(f"sum mixes degrees {sorted(degrees)}", parsed[0][3])
    packed = _sum_into({}, ((_pack(dim, e) | m, c) for c, e, m, _ in parsed if c))
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
