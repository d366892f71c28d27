"""Polynomial Poisson bivectors: brackets, the degree-lowering differential,
and the residual identities controlling the bracket lift to 1-forms.

The bracket is {f, g} = iota_pi(df ^ dg) and the differential is
delta = iota_pi d - d iota_pi, with the contraction order pinned in ``forms``.
delta^2 = 0 exactly iff pi is Poisson.

For every bivector, Poisson or not, the following holds identically (all
signs under the pinned conventions, where delta(f dg) = {f, g}):

    2 delta(f dg^dh + cyc) - d(f{g,h} + cyc) = -3 (f d{g,h} - {g,h} df + cyc)

``obstruction_identity_residual`` checks it; on a standard symplectic space it
rearranges, via df = -delta(f omega), into an explicit 2-form witness with
obstruction(f, g, h) = delta(witness), which ``symplectic_witness_residual``
checks.  ``jacobiator_residual`` checks the lift of the bracket to 1-forms,
[a, [b, c]] + cyc = (1/2) obstruction(delta a, delta b, delta c), which also
holds for every bivector.  So of the checks run on a bivector, only
delta^2 = 0 tells a Poisson one from one that is not.

Like the bracket-layer checks of ``brackets``, the witness and jacobiator
checks compute D times their residual, D = 3 and 4, from the integer sums
f dg - g df, f dg^dh + cyc and f{g,h} + cyc, so on integer inputs they stay
over Z with no Fraction.  They divide by D (``poly._unscaled``) only a nonzero
residual, which then reads as the unscaled value.  ``omega1_bracket`` and
``symplectic_obstruction_witness`` keep their exact rational values, built
from the same integer sums.
"""

from __future__ import annotations

from fractions import Fraction

from .forms import DifferentialForm, MultiVectorField, contract_bivector, d, d_poly
from .poly import Polynomial, _unscaled
from .symplectic import SymplecticSpace


class PoissonSpace:
    """R^m with a polynomial Poisson bivector."""

    def __init__(self, m: int, pi: MultiVectorField, name: str = "custom"):
        if pi.dim != m or pi.degree != 2:
            raise ValueError("pi must be a bivector on the same space")
        self.dim = m
        self.pi = pi
        self.name = name

    def __repr__(self):
        return f"PoissonSpace({self.name}, m={self.dim})"

    def bracket(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """{f, g} = iota_pi(df ^ dg); an antisymmetric biderivation."""
        return contract_bivector(self.pi, d_poly(f).wedge(d_poly(g))).as_polynomial()

    def delta(self, a: DifferentialForm) -> DifferentialForm:
        """Degree-lowering differential iota_pi d - d iota_pi."""
        return contract_bivector(self.pi, d(a)) - d(contract_bivector(self.pi, a))


# -- presets ------------------------------------------------------------------


def standard_symplectic(n: int) -> PoissonSpace:
    """The bivector of the standard symplectic structure on R^(2n)."""
    return _standard(SymplecticSpace(n))


def _standard(s: SymplecticSpace) -> PoissonSpace:
    return PoissonSpace(s.dim, s.pi, name=f"standard-symplectic({s.n})")


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


def _omega(f: Polynomial, g: Polynomial) -> DifferentialForm:
    """f dg - g df: twice the 1-form bracket of forms with delta f and g, over Z on integer inputs."""
    return (d_poly(g) * f)._plus(d_poly(f), -1, g)


def _with_brackets(p: PoissonSpace, f, g, h) -> list:
    """[(f, {g,h}), (g, {h,f}), (h, {f,g})]: the cyclic terms, each bracket computed once."""
    return [(a, p.bracket(b, c)) for a, b, c in _cyclic(f, g, h)]


def _obstruction(m: int, terms) -> DifferentialForm:
    """f d{g,h} - {g,h} df + cyc, from ``_with_brackets``."""
    return sum((_omega(a, bc) for a, bc in terms), DifferentialForm.zero(m, 1))


def obstruction(p: PoissonSpace, f: Polynomial, g: Polynomial, h: Polynomial) -> DifferentialForm:
    """The 1-form f d{g,h} - {g,h} df + cyclic.

    Its class modulo delta-exact 1-forms is what blocks lifting the bracket.
    """
    return _obstruction(p.dim, _with_brackets(p, f, g, h))


def _wedge_cycle(m: int, f, g, h) -> DifferentialForm:
    """f dg^dh + g dh^df + h df^dg."""
    total = DifferentialForm.zero(m, 2)
    for a, b, c in _cyclic(f, g, h):
        total = total._plus(d_poly(b).wedge(d_poly(c)), 1, a)
    return total


def _bracket_cycle(m: int, terms) -> Polynomial:
    """f{g,h} + g{h,f} + h{f,g}, from ``_with_brackets``."""
    return sum((a * bc for a, bc in terms), Polynomial.zero(m))


def obstruction_identity_residual(
    p: PoissonSpace, f: Polynomial, g: Polynomial, h: Polynomial
) -> DifferentialForm:
    """Residual of 2 delta(f dg^dh + cyc) - d(f{g,h} + cyc) + 3 obstruction = 0.

    Vanishes identically for every bivector, Poisson or not; this is the
    structure-independent rearrangement behind the witness construction below.
    """
    terms = _with_brackets(p, f, g, h)
    lhs = p.delta(_wedge_cycle(p.dim, f, g, h)) * 2 - d_poly(_bracket_cycle(p.dim, terms))
    return lhs + _obstruction(p.dim, terms) * 3


def _witness_sum(s: SymplecticSpace, f, g, h, terms) -> DifferentialForm:
    """-3 times the witness: 2(f dg^dh + cyc) + (f{g,h} + cyc) omega, over Z on integer inputs."""
    return _wedge_cycle(s.dim, f, g, h) * 2 + s.omega * _bracket_cycle(s.dim, terms)


def symplectic_obstruction_witness(
    s: SymplecticSpace, f: Polynomial, g: Polynomial, h: Polynomial
) -> DifferentialForm:
    """A 2-form W with obstruction(f, g, h) = delta(W) on a symplectic space.

    Combining the identity above with d(u) = -delta(u omega) gives
    W = -(2/3)(f dg^dh + cyc) - (1/3)(f{g,h} + cyc) omega.
    """
    return _witness_sum(s, f, g, h, _with_brackets(_standard(s), f, g, h)) * Fraction(-1, 3)


def symplectic_witness_residual(
    s: SymplecticSpace, f: Polynomial, g: Polynomial, h: Polynomial
) -> DifferentialForm:
    """Residual of obstruction(f, g, h) = delta(W) for the witness W above.

    D = 3: 3 obstruction(f, g, h) + delta(2(f dg^dh + cyc) + (f{g,h} + cyc) omega).
    """
    p = _standard(s)
    terms = _with_brackets(p, f, g, h)
    return _unscaled(_obstruction(s.dim, terms) * 3 + p.delta(_witness_sum(s, f, g, h, terms)), 3)


def omega1_bracket(p: PoissonSpace, alpha: DifferentialForm, beta: DifferentialForm) -> DifferentialForm:
    """The 1-form bracket (1/2)(delta(a) d delta(b) - delta(b) d delta(a)).

    Antisymmetric; kills delta-closed arguments, so the kernel of delta is
    central at the representative level.
    """
    return _omega(p.delta(alpha).as_polynomial(), p.delta(beta).as_polynomial()) * Fraction(1, 2)


def jacobiator_residual(
    p: PoissonSpace,
    alpha: DifferentialForm,
    beta: DifferentialForm,
    gamma: DifferentialForm,
) -> DifferentialForm:
    """Residual of ([a,[b,c]] + cyclic) = (1/2) obstruction(delta a, delta b, delta c).

    D = 4, with f, g, h = delta a, delta b, delta c, each computed once and [a, b] = Omega(f, g)/2
    for Omega = ``_omega``: 4 residual = Omega(f, delta Omega(g, h)) + cyc - 2 obstruction(f, g, h).
    """
    f, g, h = (p.delta(x).as_polynomial() for x in (alpha, beta, gamma))
    nested = sum((_omega(a, p.delta(_omega(b, c)).as_polynomial()) for a, b, c in _cyclic(f, g, h)),
                 DifferentialForm.zero(p.dim, 1))
    return _unscaled(nested - obstruction(p, f, g, h) * 2, 4)
