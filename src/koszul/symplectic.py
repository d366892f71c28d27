"""The standard symplectic structure on R^{2n} and its operator calculus.

Coordinates pair as (v1, v2), (v3, v4), ...; the symplectic form is
omega = dx1^dx2 + dx3^dx4 + ... and the inverse bivector pi = e1^e2 + e3^e4
+ ... under the contraction order pinned in ``forms``.  With these choices
the whole suite of relations holds on the nose:

    [Lam, L] = H    [H, Lam] = 2 Lam    [H, L] = -2 L
    [L, d]   = 0    [Lam, d] = delta    [H, d] = -d
    [Lam, delta] = 0    [L, delta] = d    [H, delta] = delta

together with delta^2 = 0, delta d = -d delta, and {f, g} = delta(f dg)
= omega(X_f, X_g) = iota_pi(df ^ dg), where iota_{X_f} omega = -df and
{v1, v2} = +1.  ``operator_relations`` is this table, and the operator row
of ``koszul.campaign`` re-checks it on seeded random forms, so it is the
executable record of the convention.  Within one sample of that row the
relations share operator values: each operator runs once per form.

Because omega and pi are constant, L, Lam and delta are computed directly on
basis forms, with (q, p) = (2i, 2i+1) 0-based and pos(j) the position of j
in I:

    L(f dx_I)     = sum over pairs {q, p} disjoint from I of f dx_{I + {q, p}}
    Lam(f dx_I)   = sum over pairs {q, p} inside I of f dx_{I - {q, p}}
    delta(f dx_I) = sum over j in I of s(j) (-1)^pos(j) (d f / d x_{j^1}) dx_{I - j}

with s(j) = +1 for odd j (a p) and -1 for even j (a q).  L and Lam carry no
sign, since q and p are adjacent in every sorted index tuple.  For delta:
iota_X d + d iota_X = d_X for a constant field X, hence per pair
[iota_{e_p} iota_{e_q}, d] = iota_{e_p} d_q - iota_{e_q} d_p.  A result has
the degree its operator maps to, even outside 0..2n (``forms``).  All three
emit the terms c x^e of f one by one into the accumulator that ``forms.d``
also uses.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable

from .forms import DifferentialForm, MultiVectorField, contract_vector, d
from .poly import Polynomial


class SymplecticSpace:
    """R^{2n} with the standard constant symplectic form."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("half-dimension must be >= 1")
        self.n = n
        self.dim = 2 * n
        one = Polynomial.constant(self.dim, 1)
        pairs = {(2 * i, 2 * i + 1): one for i in range(n)}
        self.omega = DifferentialForm(self.dim, 2, pairs)
        self.pi = MultiVectorField(self.dim, 2, pairs)

    def __repr__(self):
        return f"SymplecticSpace(n={self.n})"

    def coordinate(self, i: int) -> Polynomial:
        return Polynomial.coordinate(self.dim, i)

    # -- Lefschetz operators (closed forms in the module docstring) ----------

    def L(self, a: DifferentialForm) -> DifferentialForm:
        """Raising operator: wedge with omega.  Adds each pair disjoint from I."""

        def pieces():
            for idx, f in a.terms.items():
                for q in range(0, self.dim, 2):
                    if q in idx or q + 1 in idx:
                        continue
                    pos = bisect_left(idx, q)
                    merged = idx[:pos] + (q, q + 1) + idx[pos:]
                    for e, c in f.terms.items():
                        yield merged, e, c

        self._check(a)
        return DifferentialForm._collect_terms(self.dim, a.degree + 2, pieces())

    def Lam(self, a: DifferentialForm) -> DifferentialForm:
        """Lowering operator: contraction with pi.  Removes each pair inside I."""

        def pieces():
            for idx, f in a.terms.items():
                for t in range(len(idx) - 1):
                    q = idx[t]
                    if not q & 1 and idx[t + 1] == q + 1:
                        rest = idx[:t] + idx[t + 2 :]
                        for e, c in f.terms.items():
                            yield rest, e, c

        self._check(a)
        return DifferentialForm._collect_terms(self.dim, a.degree - 2, pieces())

    def H(self, a: DifferentialForm) -> DifferentialForm:
        """Degree-counting operator a |-> (n - deg a) * a."""
        return a * (self.n - a.degree)

    def delta(self, a: DifferentialForm) -> DifferentialForm:
        """Koszul differential Lam d - d Lam.  Degree -1, squares to zero.

        Per pair, [iota_{e_p} iota_{e_q}, d] = iota_{e_p} d_q - iota_{e_q} d_p,
        so dx_j in I is removed with the sign (-1)^pos and the derivative
        along its partner j^1, negated for even (q) j.
        """

        def pieces():
            for idx, f in a.terms.items():
                for pos, j in enumerate(idx):
                    i = j ^ 1
                    sign = -1 if (pos ^ j) & 1 == 0 else 1  # (-1)^pos, times -1 for even j
                    rest = None
                    for e, c in f.terms.items():
                        k = e[i]
                        if k:
                            if rest is None:
                                rest = idx[:pos] + idx[pos + 1 :]
                            yield rest, e[:i] + (k - 1,) + e[i + 1 :], sign * k * c

        self._check(a)
        return DifferentialForm._collect_terms(self.dim, a.degree - 1, pieces())

    def _check(self, a: DifferentialForm):
        if a.dim != self.dim:
            raise ValueError("form and symplectic space live on different spaces")

    # -- Hamiltonian mechanics -------------------------------------------------

    def hamiltonian_vector_field(self, f: Polynomial) -> MultiVectorField:
        """The unique X with iota_X omega = -df."""
        terms = {}
        for i in range(self.n):
            q, p = 2 * i, 2 * i + 1
            dq, dp = f.diff(q), f.diff(p)
            if not dp.is_zero():
                terms[(q,)] = -dp
            if not dq.is_zero():
                terms[(p,)] = dq
        return MultiVectorField(self.dim, 1, terms)

    def omega_eval(self, X: MultiVectorField, Y: MultiVectorField) -> Polynomial:
        """omega(X, Y) = iota_Y iota_X omega."""
        return contract_vector(Y, contract_vector(X, self.omega)).as_polynomial()

    def poisson_bracket(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """{f, g} = omega(X_f, X_g); bilinear, antisymmetric, Jacobi."""
        out = Polynomial.zero(self.dim)
        for i in range(self.n):
            q, p = 2 * i, 2 * i + 1
            out = out + f.diff(q) * g.diff(p) - f.diff(p) * g.diff(q)
        return out


def operator_relations(
    s: SymplecticSpace, share: Callable[[Callable], Callable] = lambda op: op
) -> list[tuple[str, Callable, Callable]]:
    """The relation table as (name, lhs, rhs) pairs of operators on forms.

    ``share`` wraps each of L, Lam, H, delta and d before the table is built
    from them; the campaign's operator row passes a per-sample memo, and by
    default the closures call the operators directly.
    """

    def comm(A, B):
        return lambda a: A(B(a)) - B(A(a))

    def zero(a):
        return DifferentialForm.zero(s.dim, 0)

    L, Lam, H, dl, d_ = map(share, (s.L, s.Lam, s.H, s.delta, d))
    dd = lambda a: dl(d_(a))
    relations = [
        ("[Lam,L]=H", comm(Lam, L), H),
        ("[H,Lam]=2Lam", comm(H, Lam), lambda a: Lam(a) * 2),
        ("[H,L]=-2L", comm(H, L), lambda a: L(a) * (-2)),
        ("[L,d]=0", comm(L, d_), zero),
        ("[Lam,d]=delta", comm(Lam, d_), dl),
        ("[H,d]=-d", comm(H, d_), lambda a: -d_(a)),
        ("[Lam,delta]=0", comm(Lam, dl), zero),
        ("[L,delta]=d", comm(L, dl), d_),
        ("[H,delta]=delta", comm(H, dl), dl),
        ("delta^2=0", lambda a: dl(dl(a)), zero),
        ("delta d=-d delta", dd, lambda a: -d_(dl(a))),
        ("[delta d,H]=0", comm(dd, H), zero),
        ("[delta d,L]=0", comm(dd, L), zero),
        ("[delta d,Lam]=0", comm(dd, Lam), zero),
    ]
    return relations
