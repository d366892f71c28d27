"""The homotopy bracket tower attached to a symplectic space.

Building blocks:

* ``alt_m(s, fs)`` is the antisymmetrization of (f_1, ..., f_k) |->
  f_1 df_2 ^ ... ^ df_k, a (k-1)-form:

      (1/k) sum_i (-1)^(i+1) f_i df_1 ^ ... (df_i omitted) ... ^ df_k

  k alt_m is T_k, where T_1 = f_1, R_1 = df_1, T_i = T_(i-1) ^ df_i + (-1)^(i+1) f_i R_(i-1)
  and R_i = R_(i-1) ^ df_i: 2k-3 wedges for k >= 2, each with a 1-form operand;

* the series coefficients a(k, j) = (k-j-1)! / ((k-1)! j!), which satisfy
  (k+1) a(k,j) = k a(k+1,j) + k (j+1)^2 a(k+1,j+1) and
  a(k,j) = k (j+1) a(k+1,j+1);

* ``tilde_l(s, fs)`` = (-1)^k (sum_j a(k,j) L^j Lam^j) alt_m(s, fs), the
  function-level bracket of arity k = len(fs);

* the bracket family on the complex L_{-i} = Omega^(i+1) with l_1 = delta and
  l_k(x_1, ..., x_k) = tilde_l(delta x_1, ..., delta x_k) on 1-forms.

The defining recursion is ce_partial({.,.}, tilde_l_k) = delta . tilde_l_(k+1),
checked exactly by ``verify_chain_identity``.  P_k = (-1)^k sum_j a(k,j) L^j Lam^j
is linear, so ``lefschetz_sum`` applies it once to ce_partial({.,.}, k alt_m), with
1/k folded into a(k,j)/k: exact over Q, and integer inputs keep the sums over Z.
It reads the coefficient table, so mutation tests can target single coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Iterator, Sequence

from .forms import DifferentialForm, d, d_poly
from .linfty import BracketFamily, GradedElement, ce_partial
from .poly import Polynomial
from .symplectic import SymplecticSpace


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


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficient lookup with optional per-entry overrides (for mutation tests)."""

    overrides: dict[tuple[int, int], Fraction] = field(default_factory=dict)

    def a(self, k: int, j: int) -> Fraction:
        if (k, j) in self.overrides:
            return self.overrides[(k, j)]
        return bracket_coefficient(k, j)

    @classmethod
    def perturbed(cls, k: int, j: int) -> "CoefficientTable":
        """The default table with a(k,j) raised by 1."""
        return cls({(k, j): bracket_coefficient(k, j) + 1})


_DEFAULT_TABLE = CoefficientTable()


def _alt_sum(fs: Sequence[Polynomial]) -> DifferentialForm:
    """k alt_m(f_1..f_k): the alternating sum without the 1/k, exact over Z on integer inputs."""
    if not fs:
        raise ValueError("need at least one function")
    total = DifferentialForm.from_polynomial(fs[0])
    for i in range(1, len(fs)):
        run = d_poly(fs[0]) if i == 1 else run.wedge(df)  # d fs[0] ^ ... ^ d fs[i-1]
        if not (run or total):  # every later T_i is zero too
            return DifferentialForm.zero(fs[0].dim, len(fs) - 1)
        df = d_poly(fs[i])
        term = run * fs[i]
        total = total.wedge(df) + (-term if i & 1 else term)
    return total


def alt_m(s: SymplecticSpace, fs: Sequence[Polynomial]) -> DifferentialForm:
    """Antisymmetrized (f_1, ..., f_k) |-> f_1 df_2 ^ ... ^ df_k; a (k-1)-form."""
    return _alt_sum(fs) * Fraction(1, len(fs))


def m_k(s: SymplecticSpace, fs: Sequence[Polynomial]) -> DifferentialForm:
    """The unsymmetrized map f_1 df_2 ^ ... ^ df_k."""
    total = DifferentialForm.from_polynomial(fs[0])
    for f in fs[1:]:
        total = total.wedge(d_poly(f))
    return total


def lefschetz_sum(
    s: SymplecticSpace, k: int, base: DifferentialForm, table: CoefficientTable | None = None
) -> DifferentialForm:
    """(-1)^k sum_j (a(k,j)/k) L^j Lam^j base, where ``base`` is k alt_m or a sum of such."""
    table = table or _DEFAULT_TABLE
    total = base * (table.a(k, 0) / k)
    lam = base
    for j in range(1, (k - 1) // 2 + 1):
        lam = s.Lam(lam)
        if lam.is_zero():
            break
        term = lam
        for _ in range(j):
            term = s.L(term)
        total = total + term * (table.a(k, j) / k)
    return -total if k & 1 else total


def tilde_l(
    s: SymplecticSpace, fs: Sequence[Polynomial], table: CoefficientTable | None = None
) -> DifferentialForm:
    """Arity-k function bracket: (-1)^k (sum_j a(k,j) L^j Lam^j) alt_m."""
    if len(fs) < 2:
        raise ValueError("defined for arity >= 2")
    if len(fs) - 1 > s.dim:  # a (k-1)-form above the top degree
        return DifferentialForm.zero(s.dim, len(fs) - 1)
    return lefschetz_sum(s, len(fs), _alt_sum(fs), table)


def symplectic_family(
    s: SymplecticSpace, table: CoefficientTable | None = None
) -> BracketFamily:
    """The grounded bracket family on Omega^(2n) -> ... -> Omega^1 with l_1 = delta; a lifts to delta a."""
    return BracketFamily(
        name=f"symplectic(n={s.n})",
        ground_form_degree=1,
        form_degree_bounds=(1, s.dim),
        ldegree_of=lambda form_degree: 1 - form_degree,
        form_degree_of=lambda ldegree: 1 - ldegree,
        differential=s.delta,
        lift=lambda a: s.delta(a).as_polynomial(),
        higher=lambda fs: tilde_l(s, fs, table),
    )


def l_bracket(s: SymplecticSpace, k: int, args: Sequence, table: CoefficientTable | None = None) -> GradedElement:
    """Evaluate the arity-k bracket; accepts forms or graded elements."""
    fam = symplectic_family(s, table)
    elems = [x if isinstance(x, GradedElement) else fam.element(x) for x in args]
    return fam.l(k, elems)


# -- identity residuals -----------------------------------------------------


def verify_chain_identity(
    s: SymplecticSpace, k: int, fs: Sequence[Polynomial], table: CoefficientTable | None = None
) -> DifferentialForm:
    """Residual of ce_partial({.,.}, tilde_l_k) - delta . tilde_l_(k+1) on k+1 functions.

    Left side: P_k(ce_partial({.,.}, k alt_m)) with 1/k in P_k's coefficients, exact by linearity."""
    if k < 2:
        raise ValueError("chain identity starts at arity 2")
    if len(fs) != k + 1:
        raise ValueError(f"need {k + 1} functions, got {len(fs)}")
    lhs = lefschetz_sum(s, k, ce_partial(s.poisson_bracket, _alt_sum, fs), table)
    rhs = s.delta(tilde_l(s, fs, table))
    return lhs - rhs


def verify_alt_m_identity(s: SymplecticSpace, k: int, fs: Sequence[Polynomial]) -> DifferentialForm:
    """Residual of ce_partial({.,.}, alt_m_k) - (-delta + (1/k) d Lam) alt_m_(k+1).

    The coboundary sums the unscaled k alt_m and divides by k once (exact by linearity)."""
    if k < 1:
        raise ValueError("arity must be >= 1")
    if len(fs) != k + 1:
        raise ValueError(f"need {k + 1} functions, got {len(fs)}")
    lhs = ce_partial(s.poisson_bracket, _alt_sum, fs) * Fraction(1, k)
    am = alt_m(s, fs)
    rhs = -s.delta(am) + d(s.Lam(am)) * Fraction(1, k)
    return lhs - rhs


def verify_strict_morphism(s: SymplecticSpace, alpha: DifferentialForm, beta: DifferentialForm) -> Polynomial:
    """Residual of delta(l_2(alpha, beta)) = {delta alpha, delta beta}.

    Zero means delta is a strict morphism from the bracket family onto the
    Poisson algebra of functions.
    """
    f = s.delta(alpha).as_polynomial()
    g = s.delta(beta).as_polynomial()
    l2 = tilde_l(s, [f, g])
    return s.delta(l2).as_polynomial() - s.poisson_bracket(f, g)


def verify_quotient_congruence(
    s: SymplecticSpace, alpha: DifferentialForm, beta: DifferentialForm
) -> DifferentialForm:
    """Exact witness that l_2 represents the quotient bracket [delta a . d delta b].

    Residual of (delta(a) d delta(b) - l_2(a, b)) + delta((1/2) delta(a) delta(b) omega);
    the difference of the two representatives is half d(fg), which the omega
    witness exhibits as a delta-boundary.
    """
    f = s.delta(alpha).as_polynomial()
    g = s.delta(beta).as_polynomial()
    representative = d_poly(g) * f
    l2 = tilde_l(s, [f, g])
    witness = s.omega * (f * g) * Fraction(1, 2)
    return (representative - l2) + s.delta(witness)


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
