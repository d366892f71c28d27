"""Polynomial Poisson bivectors: brackets, the degree-lowering differential,
and the residual identities controlling the bracket lift to 1-forms.

The bracket is {f, g} = iota_pi(df ^ dg) and the differential is
delta = iota_pi d - d iota_pi, with the contraction order pinned in ``forms``.
delta^2 = 0 exactly iff pi is Poisson.

For every Poisson bivector the following holds identically (all signs under
the pinned conventions, where delta(f dg) = {f, g}):

    2 delta(f dg^dh + cyc) - d(f{g,h} + cyc) = -3 (f d{g,h} - {g,h} df + cyc)

``obstruction_identity_residual`` checks it; on a standard symplectic space it
rearranges, via df = -delta(f omega), into an explicit 2-form witness with
obstruction(f, g, h) = delta(witness).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .forms import DifferentialForm, MultiVectorField, contract_bivector, d, d_poly
from .poly import Polynomial
from .symplectic import SymplecticSpace


class PoissonSpace:
    """R^m with a polynomial Poisson bivector."""

    def __init__(self, m: int, pi: MultiVectorField, name: str = "custom"):
        if pi.dim != m or pi.degree != 2:
            raise ValueError("pi must be a bivector on the same space")
        self.m = m
        self.dim = m
        self.pi = pi
        self.name = name

    def __repr__(self):
        return f"PoissonSpace({self.name}, m={self.m})"

    @classmethod
    def from_entries(cls, m: int, entries: Iterable[tuple[int, int, str]], name: str = "custom") -> "PoissonSpace":
        """Build pi from (i, j, coefficient-text) entries with 1-based i < j."""
        from .grammar import parse_polynomial

        terms = {}
        for i, j, text in entries:
            if not 1 <= i < j <= m:
                raise ValueError(f"bad bivector entry indices ({i}, {j}) for dimension {m}")
            p = parse_polynomial(text, m)
            key = (i - 1, j - 1)
            terms[key] = terms.get(key, Polynomial.zero(m)) + p
        return cls(m, MultiVectorField(m, 2, {k: v for k, v in terms.items() if not v.is_zero()}), name)

    def bracket(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """{f, g} = iota_pi(df ^ dg); an antisymmetric biderivation."""
        return contract_bivector(self.pi, d_poly(f).wedge(d_poly(g))).as_polynomial()

    def delta(self, a: DifferentialForm) -> DifferentialForm:
        """Degree-lowering differential iota_pi d - d iota_pi."""
        return contract_bivector(self.pi, d(a)) - d(contract_bivector(self.pi, a))

    def jacobi_residual(self, f: Polynomial, g: Polynomial, h: Polynomial) -> Polynomial:
        return (
            self.bracket(f, self.bracket(g, h))
            + self.bracket(g, self.bracket(h, f))
            + self.bracket(h, self.bracket(f, g))
        )

    def jacobi_ok_on_coordinates(self) -> bool:
        """Jacobi on all coordinate triples; for polynomial pi this pins the structure."""
        coords = [Polynomial.coordinate(self.m, i) for i in range(self.m)]
        for i in range(self.m):
            for j in range(i + 1, self.m):
                for k in range(j + 1, self.m):
                    if not self.jacobi_residual(coords[i], coords[j], coords[k]).is_zero():
                        return False
        return True


# -- presets ------------------------------------------------------------------


def standard_symplectic(n: int) -> PoissonSpace:
    """The bivector of the standard symplectic structure on R^(2n)."""
    s = SymplecticSpace(n)
    return PoissonSpace(s.dim, s.pi, name=f"standard-symplectic({n})")


def sl2_dual() -> PoissonSpace:
    """The linear Poisson structure on R^3 with {v2,v3}=v1, {v3,v1}=v2, {v1,v2}=-v3.

    A singular (Lie-Poisson) structure; v1^2 + v2^2 - v3^2 is a Casimir.
    """
    m = 3
    v = [Polynomial.coordinate(m, i) for i in range(m)]
    pi = MultiVectorField(m, 2, {(1, 2): v[0], (0, 2): -v[1], (0, 1): -v[2]})
    return PoissonSpace(m, pi, name="sl2star")


def zero_poisson(m: int = 3) -> PoissonSpace:
    return PoissonSpace(m, MultiVectorField(m, 2, {}), name="zero")


# -- cyclic machinery ---------------------------------------------------------


def _cyclic(f: Polynomial, g: Polynomial, h: Polynomial):
    return ((f, g, h), (g, h, f), (h, f, g))


def obstruction(p: PoissonSpace, f: Polynomial, g: Polynomial, h: Polynomial) -> DifferentialForm:
    """The 1-form f d{g,h} - {g,h} df + cyclic.

    Its class modulo delta-exact 1-forms is what blocks lifting the bracket.
    """
    total = DifferentialForm.zero(p.m, 1)
    for a, b, c in _cyclic(f, g, h):
        bc = p.bracket(b, c)
        total = total + d_poly(bc) * a - d_poly(a) * bc
    return total


def _wedge_cycle(p: PoissonSpace, f, g, h) -> DifferentialForm:
    """f dg^dh + g dh^df + h df^dg."""
    total = DifferentialForm.zero(p.m, 2)
    for a, b, c in _cyclic(f, g, h):
        total = total + d_poly(b).wedge(d_poly(c)) * a
    return total


def _bracket_cycle(p: PoissonSpace, f, g, h) -> Polynomial:
    """f{g,h} + g{h,f} + h{f,g}."""
    total = Polynomial.zero(p.m)
    for a, b, c in _cyclic(f, g, h):
        total = total + a * p.bracket(b, c)
    return total


def obstruction_identity_residual(
    p: PoissonSpace, f: Polynomial, g: Polynomial, h: Polynomial
) -> DifferentialForm:
    """Residual of 2 delta(f dg^dh + cyc) - d(f{g,h} + cyc) + 3 obstruction = 0.

    Vanishes identically for every Poisson bivector; this is the structure-
    independent rearrangement behind the witness construction below.
    """
    lhs = p.delta(_wedge_cycle(p, f, g, h)) * 2 - d_poly(_bracket_cycle(p, f, g, h))
    return lhs + obstruction(p, f, g, h) * 3


def symplectic_obstruction_witness(
    s: SymplecticSpace, f: Polynomial, g: Polynomial, h: Polynomial
) -> DifferentialForm:
    """A 2-form W with obstruction(f, g, h) = delta(W) on a symplectic space.

    Combining the identity above with d(u) = -delta(u omega) gives
    W = -(2/3)(f dg^dh + cyc) - (1/3)(f{g,h} + cyc) omega.
    """
    p = PoissonSpace(s.dim, s.pi, name="standard-symplectic")
    wedge_part = _wedge_cycle(p, f, g, h) * Fraction(-2, 3)
    omega_part = s.omega * _bracket_cycle(p, f, g, h) * Fraction(-1, 3)
    return wedge_part + omega_part


def omega1_bracket(p: PoissonSpace, alpha: DifferentialForm, beta: DifferentialForm) -> DifferentialForm:
    """The 1-form bracket (1/2)(delta(a) d delta(b) - delta(b) d delta(a)).

    Antisymmetric; kills delta-closed arguments, so the kernel of delta is
    central at the representative level.
    """
    f = p.delta(alpha).as_polynomial()
    g = p.delta(beta).as_polynomial()
    return (d_poly(g) * f - d_poly(f) * g) * Fraction(1, 2)


def jacobiator_residual(
    p: PoissonSpace,
    alpha: DifferentialForm,
    beta: DifferentialForm,
    gamma: DifferentialForm,
) -> DifferentialForm:
    """Residual of ([a,[b,c]] + cyclic) = (1/2) obstruction(delta a, delta b, delta c)."""
    nested = DifferentialForm.zero(p.m, 1)
    for a, b, c in ((alpha, beta, gamma), (beta, gamma, alpha), (gamma, alpha, beta)):
        nested = nested + omega1_bracket(p, a, omega1_bracket(p, b, c))
    f = p.delta(alpha).as_polynomial()
    g = p.delta(beta).as_polynomial()
    h = p.delta(gamma).as_polynomial()
    return nested - obstruction(p, f, g, h) * Fraction(1, 2)
