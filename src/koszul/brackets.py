"""The homotopy bracket tower attached to a symplectic space.

Building blocks:

* ``alt_m(fs)`` is the antisymmetrization of (f_1, ..., f_k) |->
  f_1 df_2 ^ ... ^ df_k, a (k-1)-form:

      (1/k) sum_i (-1)^(i+1) f_i df_1 ^ ... (df_i omitted) ... ^ df_k

  k alt_m is T_k, where T_1 = f_1, R_1 = df_1, T_i = T_(i-1) ^ df_i + (-1)^(i+1) f_i R_(i-1)
  and R_i = R_(i-1) ^ df_i: 2k-3 wedges for k >= 2, each with a 1-form operand.  The
  T-step adds each product of a term of R_(i-1) and one of f_i straight into
  T_(i-1) ^ df_i (``_Terms._plus``), so f_i R_(i-1) is never built.  Exact zeros
  are decided before any wedge: for k-1 > dim T_k is zero by degree and nothing is
  computed; a zero f_i, or two f_i with df_i = 0 (constants), make every term zero,
  as each keeps f_i or one of the zero df_i; a zero T_k keeps its degree k-1.
  Each df_i is computed once;

* the series coefficients a(k, j) = (k-j-1)! / ((k-1)! j!), which satisfy
  (k+1) a(k,j) = k a(k+1,j) + k (j+1)^2 a(k+1,j+1) and
  a(k,j) = k (j+1) a(k+1,j+1);

* ``tilde_l(s, fs)`` = (-1)^k (sum_j a(k,j) L^j Lam^j) alt_m(fs), the
  function-level bracket of arity k = len(fs);

* the bracket family on the complex L_{-i} = Omega^(i+1) with l_1 = delta and
  l_k(x_1, ..., x_k) = tilde_l(delta x_1, ..., delta x_k) on 1-forms.

The defining recursion is ce_partial({.,.}, tilde_l_k) = delta . tilde_l_(k+1),
checked exactly by ``verify_chain_identity``.  P_k = (-1)^k sum_j a(k,j) L^j Lam^j
is linear, so ``lefschetz_sum`` applies it once to ce_partial({.,.}, k alt_m), a
(k-1)-form that gives it k, with 1/k folded into a(k,j)/k.  It takes the
coefficients as a function ``a(k, j)``, ``bracket_coefficient`` unless given, so a
mutant such as ``raised_coefficient`` can change one coefficient.  The table is read
at each call, never bound when the module loads, and the scaled coefficients
(-1)^k scale a(k,j)/k are computed once per (a, k, scale) in a bounded cache.  The
sum runs in Horner form, c_0 b_0 + L(c_1 b_1 + L(... + L(c_J b_J))) with b_j =
Lam^j base and J the last j with b_j != 0, so L runs J times rather than J(J+1)/2;
each step adds c_j b_j into L(...) in one pass, a coefficient of 1 costs no
multiply, and a zero base is returned as is.

A residual is zero iff D times it is, for any integer D != 0.  Each ``verify_*``
computes D times its residual, with D clearing its denominators (the ``scale`` of
``lefschetz_sum``), so on integer inputs every sum stays over Z with no Fraction;
it divides by D only a nonzero residual, which then reads as the unscaled value.
The symplectic family's ``higher`` returns D_k l_k, D_k the lcm of the denominators
of a(k,j)/k for the table in force at the call, so ``linfty_residual`` sums over Z too.
"Pass" still means the zero form over Q, and ``alt_m``, ``tilde_l`` and
``l_bracket`` keep their exact rational values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Callable, Iterator, Sequence

from .forms import DifferentialForm, d, d_poly
from .linfty import BracketFamily, GradedElement, ce_partial
from .poly import Polynomial, _unscaled
from .symplectic import SymplecticSpace


@lru_cache(maxsize=None)
def series_coefficient(k: int, j: int) -> Fraction:
    """a(k, j) on the extended domain 0 <= j <= k-1 (used by recursion checks)."""
    if k < 2 or j < 0 or j > k - 1:
        raise ValueError(f"series coefficient undefined for k={k}, j={j}")
    return Fraction(factorial(k - j - 1), factorial(k - 1) * factorial(j))


def bracket_coefficient(k: int, j: int) -> Fraction:
    """a(k, j) for the operator sum; domain k >= 2, 0 <= 2j <= k-1."""
    if k < 2 or j < 0 or 2 * j > k - 1:
        raise ValueError(f"bracket coefficient out of domain: k={k}, j={j}")
    return series_coefficient(k, j)


def raised_coefficient(k: int, j: int) -> Callable[[int, int], Fraction]:
    """``bracket_coefficient`` with a(k, j) raised by 1: a chain mutant."""
    return lambda kk, jj: bracket_coefficient(kk, jj) + (1 if (kk, jj) == (k, j) else 0)


def _alt_sum(fs: Sequence[Polynomial]) -> DifferentialForm:
    """k alt_m(f_1..f_k): the alternating sum without the 1/k, exact over Z on integer inputs."""
    if not fs:
        raise ValueError("need at least one function")
    k = len(fs)
    if k - 1 > fs[0].dim or not all(fs):  # a (k-1)-form above the top degree, or a zero argument
        return DifferentialForm.zero(fs[0].dim, k - 1)
    total = DifferentialForm.from_polynomial(fs[0])
    if k == 1:
        return total
    dfs = [*map(d_poly, fs)]
    if not all(dfs) and sum(not df for df in dfs) > 1:  # two constants: every term keeps a zero df
        return DifferentialForm.zero(fs[0].dim, k - 1)
    for i in range(1, k):
        run = dfs[0] if i == 1 else run.wedge(dfs[i - 1])  # d fs[0] ^ ... ^ d fs[i-1]
        if not (run or total):  # every later T_i is zero too
            return DifferentialForm.zero(fs[0].dim, k - 1)
        total = total.wedge(dfs[i])._plus(run, -1 if i & 1 else 1, fs[i])
    return total


def alt_m(fs: Sequence[Polynomial]) -> DifferentialForm:
    """Antisymmetrized (f_1, ..., f_k) |-> f_1 df_2 ^ ... ^ df_k; a (k-1)-form."""
    return _alt_sum(fs) * Fraction(1, len(fs))


@lru_cache(maxsize=256)  # bounded: every mutant table is a new function object
def _clearing_scale(a: Callable, k: int) -> int:
    """D_k: the lcm of the denominators of a(k, j)/k, 0 <= 2j <= k-1."""
    return lcm(*(Fraction(a(k, j), k).denominator for j in range((k + 1) // 2)))


@lru_cache(maxsize=256)
def _scaled_coefficients(a: Callable, k: int, scale: int) -> tuple:
    """(-1)^k scale a(k,j)/k for j = 0..(k-1)//2, whole ones as ints so integer sums stay over Z."""
    out = []
    for j in range((k + 1) // 2):
        c = Fraction(a(k, j)) * scale / (-k if k & 1 else k)
        out.append(c.numerator if c.denominator == 1 else c)
    return tuple(out)


def lefschetz_sum(
    s: SymplecticSpace, base: DifferentialForm, a: Callable | None = None, scale: int = 1
) -> DifferentialForm:
    """(-1)^k sum_j (scale a(k,j)/k) L^j Lam^j base, where ``base``, a (k-1)-form, is k alt_m or a sum of such.

    ``a`` defaults to ``bracket_coefficient``, resolved at each call.  The sum is taken in Horner
    form c_0 b_0 + L(c_1 b_1 + L(...)), b_j = Lam^j base, so L runs once per nonzero b_j, j >= 1;
    a coefficient of 1 costs no multiply, and a zero base on ``s`` is returned as is."""
    s._check(base)
    if not base:
        return base
    coefficients = _scaled_coefficients(a or bracket_coefficient, base.degree + 1, scale)
    lams = [base]
    for _ in coefficients[1:]:
        lam = s.Lam(lams[-1])
        if lam.is_zero():
            break
        lams.append(lam)
    total = None
    for c, lam in zip(reversed(coefficients[: len(lams)]), reversed(lams)):
        total = (lam if c == 1 else lam * c) if total is None else s.L(total)._plus(lam, c)
    return total


def tilde_l(
    s: SymplecticSpace, fs: Sequence[Polynomial], a: Callable | None = None, scale: int = 1
) -> DifferentialForm:
    """Arity-k function bracket: (-1)^k (sum_j a(k,j) L^j Lam^j) alt_m, times ``scale``."""
    if len(fs) < 2:
        raise ValueError("defined for arity >= 2")
    return lefschetz_sum(s, _alt_sum(fs), a, scale)


def symplectic_family(s: SymplecticSpace) -> BracketFamily:
    """The grounded bracket family on Omega^(2n) -> ... -> Omega^1 with l_1 = delta; a lifts to delta a.

    ``higher`` is D_k l_k, D_k clearing the denominators of a(k,j)/k for the table in force at the call."""
    return BracketFamily(
        name=f"symplectic(n={s.n})",
        dim=s.dim,
        ground_form_degree=1,
        step=-1,
        differential=s.delta,
        lift=lambda a: s.delta(a).as_polynomial(),
        scale=lambda k: _clearing_scale(bracket_coefficient, k),
        higher=lambda fs: tilde_l(s, fs, scale=_clearing_scale(bracket_coefficient, len(fs))),
    )


def l_bracket(s: SymplecticSpace, forms: Sequence[DifferentialForm]) -> GradedElement:
    """Evaluate the bracket l_k, k = len(forms), on forms."""
    fam = symplectic_family(s)
    return fam.l([fam.element(x) for x in forms])


# -- identity residuals: each computed times an integer D, see the module docstring --


def verify_chain_identity(s: SymplecticSpace, fs: Sequence[Polynomial], a: Callable | None = None) -> DifferentialForm:
    """Residual of ce_partial({.,.}, tilde_l_k) - delta . tilde_l_(k+1) on k+1 = len(fs) functions.

    Left side: P_k(ce_partial({.,.}, k alt_m)), exact by linearity.  D is the lcm of the
    denominators of a(k',j)/k' for k' = k, k+1, read from ``a`` so a mutant keeps its own."""
    k = len(fs) - 1
    if k < 2:
        raise ValueError("chain identity starts at arity 2: need at least 3 functions")
    a = a or bracket_coefficient
    scale = lcm(_clearing_scale(a, k), _clearing_scale(a, k + 1))
    lhs = lefschetz_sum(s, ce_partial(s.poisson_bracket, _alt_sum, fs), a, scale)
    return _unscaled(lhs - s.delta(tilde_l(s, fs, a, scale)), scale)


def verify_alt_m_identity(s: SymplecticSpace, fs: Sequence[Polynomial]) -> DifferentialForm:
    """Residual of ce_partial({.,.}, alt_m_k) - (-delta + (1/k) d Lam) alt_m_(k+1) on k+1 = len(fs) functions.

    D = k(k+1): (k+1) ce_partial({.,.}, k alt_m) - (-k delta + d Lam)((k+1) alt_m)."""
    k = len(fs) - 1
    if k < 1:
        raise ValueError("alt relation starts at arity 1: need at least 2 functions")
    top = _alt_sum(fs)
    lhs = ce_partial(s.poisson_bracket, _alt_sum, fs) * (k + 1)
    return _unscaled(lhs - (s.delta(top) * -k + d(s.Lam(top))), k * (k + 1))


def verify_strict_morphism(s: SymplecticSpace, alpha: DifferentialForm, beta: DifferentialForm) -> Polynomial:
    """Residual of delta(l_2(alpha, beta)) = {delta alpha, delta beta}.

    Zero means delta is a strict morphism from the bracket family onto the
    Poisson algebra of functions.  D = 2: delta(2 alt_m(f, g)) - 2{f, g}.
    """
    f = s.delta(alpha).as_polynomial()
    g = s.delta(beta).as_polynomial()
    return _unscaled(s.delta(_alt_sum([f, g])).as_polynomial() - s.poisson_bracket(f, g) * 2, 2)


def verify_quotient_congruence(
    s: SymplecticSpace, alpha: DifferentialForm, beta: DifferentialForm
) -> DifferentialForm:
    """Exact witness that l_2 represents the quotient bracket [delta a . d delta b].

    Residual of (delta(a) d delta(b) - l_2(a, b)) + delta((1/2) delta(a) delta(b) omega);
    the difference of the two representatives is half d(fg), which the omega
    witness exhibits as a delta-boundary.  D = 2: 2 f dg - 2 alt_m(f, g) + delta(fg omega).
    """
    f = s.delta(alpha).as_polynomial()
    g = s.delta(beta).as_polynomial()
    return _unscaled(d_poly(g) * f * 2 - _alt_sum([f, g]) + s.delta(s.omega * (f * g)), 2)


def _recursions_at(k: int, j: int) -> list[tuple[str, Fraction, Fraction]]:
    a_kj = series_coefficient(k, j)
    equalities = [
        (
            f"(k+1)a(k,j)=k a(k+1,j)+k(j+1)^2 a(k+1,j+1) at k={k},j={j}",
            (k + 1) * a_kj,
            k * series_coefficient(k + 1, j) + k * (j + 1) ** 2 * series_coefficient(k + 1, j + 1),
        ),
        (
            f"a(k,j)=k(j+1)a(k+1,j+1) at k={k},j={j}",
            a_kj,
            k * (j + 1) * series_coefficient(k + 1, j + 1),
        ),
        (
            f"a(k+1,j)=((k-j)/k)a(k,j) at k={k},j={j}",
            series_coefficient(k + 1, j),
            Fraction(k - j, k) * a_kj,
        ),
    ]
    if j >= 1:
        equalities.append(
            (
                f"a(k,j)=a(k,j-1)/(j(k-j)) at k={k},j={j}",
                a_kj,
                series_coefficient(k, j - 1) / (j * (k - j)),
            )
        )
    return equalities


def coefficient_recursions(k_max: int) -> Iterator[tuple[str, Fraction, Fraction]]:
    """Both downward recursions and both inductive formulas for k <= k_max, as (label, lhs, rhs).

    The equalities are computed lazily, one (k, j) at a time; a bad ``k_max``
    is refused at the call."""
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    return (eq for k in range(2, k_max + 1) for j in range(0, (k - 1) // 2 + 1) for eq in _recursions_at(k, j))
