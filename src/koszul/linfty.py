"""Generic machinery for families of graded multibrackets.

A bracket family packages a complex with differential l_1 and higher
multilinear brackets l_k (degree 2-k) on graded elements.  The n-th homotopy
Jacobi identity is the double sum over splittings i + j = n + 1 and
(i, n-i)-unshuffles:

    sum (-1)^(i(j+1)) sum_sigma sgn(sigma) eps(sigma; x) *
        l_j(l_i(x_sigma(1..i)), x_sigma(i+1..n))  =  0

where eps is the Koszul sign of sigma on the elements' degrees.
``linfty_residual`` evaluates the sum exactly; a family satisfies the n-th
identity on given arguments iff the residual is the zero form.

Families here are grounded.  A form of degree f on R^dim has complex degree
(f - ground_form_degree) * step: the ground layer sits in degree 0, and l_1,
which moves the form degree by step = +-1, has degree +1.  The complex is the
degrees <= 0, l_1 is truncated at the ground layer (zero on degree >= 0), and
l_k for k >= 2 is zero unless every argument lies in degree 0.  An unshuffle
is fixed by its head sigma(1..i), and ``linfty_residual`` enumerates only
the heads that can survive these rules:

* i = 1: one head per argument position, each tested by
  ``BracketFamily.vanishes``, which reads the arity k off its k degrees, for
  its inner l_1 and its outer l_n;
* i >= 2: combinations of the ground-degree positions, as l_i is zero on
  any other argument.  So l_i never vanishes on a head, and the outer l_j
  sees l_i's degree 2 - i, every argument off the ground and the ground
  arguments left over, the same degrees for every head: one ``vanishes``
  test per splitting decides all of its terms.  On ground arguments it
  keeps i = 2, whose l_2 lies in the degree 0 the outer l_j needs, and
  i = n, whose outer bracket is l_1; with an argument off the ground it
  drops every i >= 2.

At most n + C(n, 2) + 1 of the 2^n - 1 terms remain as candidates, and
``vanishes`` runs at most 2n + n - 1 times; every dropped term is one that
``l`` returns as zero, so the residual is the same exact sum in the same
order.  A ground argument is lifted (``lift``) once per residual, at its
first surviving term, and each inner value once; candidates call
``higher``/``differential`` directly.

The sum is taken over Z on integer inputs.  A family's ``higher`` returns
D_k l_k for an integer D_k that clears l_k's denominators (D_1 = 1: l_1 is the
differential), so a term built from ``higher`` is D_i D_j l_j(l_i(...)).  Each
is weighted by D/(D_i D_j), with D the lcm of D_i D_j over the splittings
kept, and the sum is D times the residual: zero iff the residual is, and
divided by D only when nonzero (``poly._unscaled``), so a failure reads as
the unscaled value.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import cache
from itertools import combinations
from math import lcm

from .forms import DifferentialForm
from .poly import _unscaled


class GradedElement:
    """A homogeneous form together with its degree in the complex."""

    __slots__ = ("form", "ldegree")

    def __init__(self, form: DifferentialForm, ldegree: int):
        self.form, self.ldegree = form, ldegree


class BracketFamily:
    """An arity-indexed family of multibrackets on a fixed complex.

    ``dim``, ``ground_form_degree`` and ``step`` (-1 for delta, +1 for d) fix
    the grading (module docstring), which ``ldegree_of`` and its inverse
    ``form_degree_of`` apply.  ``differential`` is l_1 on forms, ``lift``
    maps a ground-degree form to the value brackets act on, and
    ``higher(lifted)`` is D_k l_k, k = len(lifted) >= 2, on its arguments'
    lifts, where ``scale(k)`` = D_k is a nonzero integer; ``l`` divides by it
    and returns l_k itself.  The residual weights each term l_j(l_i(...)) by
    D/(D_i D_j), D the lcm of the D_i D_j (module docstring).  Every family is
    grounded: ``l`` adds the grounded rules (``vanishes``), so ``lift`` and
    ``higher`` only ever see ground-degree forms.
    """

    __slots__ = ("name", "dim", "ground_form_degree", "step", "differential", "lift", "scale", "higher")

    def __init__(self, name: str, dim: int, ground_form_degree: int, step: int,
                 differential: Callable[[DifferentialForm], DifferentialForm], lift: Callable[[DifferentialForm], object],
                 scale: Callable[[int], int], higher: Callable[[tuple], DifferentialForm]):
        self.name, self.dim, self.ground_form_degree, self.step = name, dim, ground_form_degree, step
        self.differential, self.lift, self.scale, self.higher = differential, lift, scale, higher

    def ldegree_of(self, form_degree: int) -> int:
        return (form_degree - self.ground_form_degree) * self.step

    def form_degree_of(self, ldegree: int) -> int:
        return self.ground_form_degree + ldegree * self.step

    def element(self, form: DifferentialForm) -> GradedElement:
        if form.dim != self.dim:
            raise ValueError(f"form on R^{form.dim} outside the {self.name} complex on R^{self.dim}")
        ldegree = self.ldegree_of(form.degree)
        if ldegree > 0 and not form.is_zero():
            lo, hi = (self.ground_form_degree, self.dim) if self.step < 0 else (0, self.ground_form_degree)
            raise ValueError(f"form degree {form.degree} outside the {self.name} complex [{lo}, {hi}]")
        return GradedElement(form, ldegree)

    def zero_element(self, ldegree: int) -> GradedElement:
        return GradedElement(DifferentialForm.zero(self.dim, self.form_degree_of(ldegree)), ldegree)

    def vanishes(self, ldegrees: Sequence[int]) -> bool:
        """Whether l_k, k = len(ldegrees), is zero by groundedness on arguments of these degrees.

        l_1 is truncated at the ground layer, where the differential would
        leave the complex; l_k for k >= 2 needs every argument in the ground
        degree.
        """
        if len(ldegrees) == 1:
            return ldegrees[0] >= 0
        return ldegrees.count(0) != len(ldegrees)

    def l(self, args: Sequence[GradedElement]) -> GradedElement:
        """l_k on its k = len(args) >= 1 arguments."""
        k = len(args)
        if k < 1:
            raise ValueError("need at least one argument")
        degrees = [x.ldegree for x in args]
        ldegree = sum(degrees) + 2 - k
        if self.vanishes(degrees):
            return self.zero_element(ldegree)
        if k == 1:
            return GradedElement(self.differential(args[0].form), ldegree)
        value = self.higher(tuple(self.lift(x.form) for x in args))
        return GradedElement(_unscaled(value, self.scale(k)), ldegree)


def permutation_sign(sigma: Sequence[int]) -> int:
    """Parity of a permutation given as a sequence of images."""
    sign = 1
    n = len(sigma)
    for a in range(n):
        for b in range(a + 1, n):
            if sigma[a] > sigma[b]:
                sign = -sign
    return sign


def koszul_sign(sigma: Sequence[int], degrees: Sequence[int]) -> int:
    """Koszul sign of sigma acting on elements with the given degrees.

    Each inversion of sigma contributes (-1)^(d1*d2) for the degrees of the
    two elements it transposes; even-degree elements never produce signs.
    """
    if len(sigma) != len(degrees):
        raise ValueError("permutation and degree list have different lengths")
    sign = 1
    n = len(sigma)
    for a in range(n):
        for b in range(a + 1, n):
            if sigma[a] > sigma[b] and (degrees[sigma[a]] & 1) and (degrees[sigma[b]] & 1):
                sign = -sign
    return sign


def linfty_residual(family: BracketFamily, args: Sequence[GradedElement]) -> GradedElement:
    """Evaluate the n-th homotopy Jacobi identity on the given arguments.

    Returns the exact residual; the identity holds on these arguments iff the
    residual form is zero.  The residual is homogeneous of complex degree
    sum(|x_i|) + 3 - n.
    """
    n = len(args)
    if n < 1:
        raise ValueError("need at least one argument")
    degrees = [x.ldegree for x in args]
    target_ldeg = sum(degrees) + 3 - n
    grounded = [p for p in range(n) if degrees[p] == 0]
    off_ground = [x for x in degrees if x != 0]
    lifted = cache(lambda p: family.lift(args[p].form))  # at the first surviving term that needs it

    # one test keeps or drops a whole i >= 2, as its outer l_j sees the same degrees on every head (module
    # docstring).  Each kept i weighs D_i D_j, with D_1 = 1 as l_1 is the differential
    scale_of = lambda k: 1 if k == 1 else family.scale(k)
    pair_scales = {i: scale_of(i) * scale_of(n + 1 - i) for i in range(1, n + 1)
                   if i == 1 or (i <= len(grounded) and not family.vanishes(
                       [2 - i, *off_ground] + [0] * (len(grounded) - i)))}
    scale = lcm(*pair_scales.values())

    total: DifferentialForm | None = None
    for i, pair_scale in pair_scales.items():
        j = n + 1 - i
        weight = scale // pair_scale * (-1 if (i * (j + 1)) & 1 else 1)
        for head in [(p,) for p in range(n)] if i == 1 else combinations(grounded, i):
            tail = tuple(p for p in range(n) if p not in head)
            if i == 1:
                x = degrees[head[0]]
                if family.vanishes([x]) or family.vanishes([x + 1] + [degrees[p] for p in tail]):
                    continue
                inner = family.differential(args[head[0]].form)
            else:
                inner = family.higher(tuple(map(lifted, head)))
            if inner.is_zero():
                continue
            if j == 1:
                outer = family.differential(inner)
            else:
                outer = family.higher((family.lift(inner), *map(lifted, tail)))
            if outer.is_zero():
                continue
            sigma = head + tail
            factor = weight * permutation_sign(sigma) * koszul_sign(sigma, degrees)
            total = (outer if factor == 1 else outer * factor) if total is None else total._plus(outer, factor)
    if total is None:
        return family.zero_element(target_ldeg)
    return GradedElement(_unscaled(total, scale), target_ldeg)


def ce_partial(
    bracket: Callable, phi: Callable[[list], DifferentialForm], args: Sequence
) -> DifferentialForm:
    """Chevalley-Eilenberg-style coboundary of a p-ary map along a binary bracket.

    Evaluates sum over pairs a < b of (-1)^(a+b) phi(bracket(x_a, x_b), rest),
    turning a p-ary antisymmetric map into a (p+1)-ary one.  ``args`` has
    length p + 1.
    """
    items = list(args)
    total = None
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            rest = items[:a] + items[a + 1 : b] + items[b + 1 :]
            term = phi([bracket(items[a], items[b])] + rest)
            if (a + b) & 1:  # 0-based (a+b) has the parity of 1-based (a+1)+(b+1)
                term = -term
            total = term if total is None else total + term
    if total is None:
        raise ValueError("need at least two arguments")
    return total
