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
executable record of the convention.  The table writes the 14 residuals out
once, each operator value that several relations share bound to a name, so a
form costs 26 calls of L, Lam, delta and d where the relations one by one
would make 56.

Because omega and pi are constant, L, Lam and delta are computed directly on
a form's stored map ``packed`` {key: c} (``poly._Terms``: basis mask m in
the low bits of the key, bit i standing for dx_{i+1}; guarded exponent fields
above), with (q, p) = (2i, 2i+1) 0-based, pair mask P = 0b11 << 2i and
below(m, j) = popcount(m & ((1 << j) - 1)) the position of j in the basis:

    L(f dx_m)     = sum over pair masks P with m & P == 0 of f dx_(m | P)
    Lam(f dx_m)   = sum over pair masks P with m & P == P of f dx_(m ^ P)
    delta(f dx_m) = sum over j in m of s(j) (-1)^below(m, j) (d f / d x_{j^1}) dx_(m ^ 1 << j)
    X_f           = sum over j of -s(j) (d f / d x_j) e_(j^1)

with s(j) = +1 for odd j (a p) and -1 for even j (a q).  L and Lam carry no
sign, since q and p are adjacent in every sorted index tuple: they map a key
to key | P and key ^ P; their tables (``forms._per_basis``) list per basis m
only the pair masks P that apply, so a term tests none.  delta takes one
step per set bit j of m, each the derivative key - one_(j^1) of ``forms``'
table-driven kernel, and skips a term whose partner exponents are all 0.
For delta: iota_X d + d iota_X = d_X for a constant field X, hence per pair
[iota_{e_p} iota_{e_q}, d] = iota_{e_p} d_q - iota_{e_q} d_p.  A result has
the degree its operator maps to, even outside 0..2n (``forms``).  All three add
each term into their output dict as the kernels of ``forms`` do; L and Lam share
one loop.  The bracket is X_f g = iota_{X_f} dg, one contraction by the field above.
With ``pi`` and ``name`` the space speaks the protocol of ``poisson``'s spaces, as ``standard_symplectic``.
"""

from __future__ import annotations

from functools import partial

from .forms import (DifferentialForm, MultiVectorField, _derivation, _derivation_table, _per_basis, contract_vector, d,
                    d_poly)
from .poly import Polynomial, layout


@_derivation_table
def _delta_table(dim: int, m: int) -> tuple:
    """delta on basis m: the pos-th index j of m leaves and x^e loses one_(j^1), with (-1)^pos, negated for even j."""
    fields = layout(dim)[0]
    basis = [j for j in range(dim) if m >> j & 1]
    return tuple((-(1 << j) - fields[j ^ 1][1], fields[j ^ 1][0], not (pos ^ j) & 1) for pos, j in enumerate(basis))


def _toggle_entry(step: int, dim: int, m: int) -> tuple:
    """The pair masks P = 0b11 << 2i that L (step 2) adds to basis m, m & P == 0, or Lam (step -2) removes."""
    return tuple(pm for pm in (3 << 2 * i for i in range(dim // 2)) if m & pm == (0 if step > 0 else pm))


_TOGGLES = {step: _per_basis(partial(_toggle_entry, step)) for step in (2, -2)}


class SymplecticSpace:
    """R^{2n} with the standard constant symplectic form; the standard Poisson space, on Darboux kernels."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("half-dimension must be >= 1")
        self.n = n
        self.dim = 2 * n
        self.name = f"standard-symplectic({n})"
        one = Polynomial.constant(self.dim, 1)
        pairs = {(2 * i, 2 * i + 1): one for i in range(n)}
        self.omega = DifferentialForm(self.dim, 2, pairs)
        self.pi = MultiVectorField(self.dim, 2, pairs)

    def __repr__(self):
        return f"SymplecticSpace(n={self.n})"

    # -- Lefschetz operators (closed forms in the module docstring) ----------

    def L(self, a: DifferentialForm) -> DifferentialForm:
        """Raising operator: wedge with omega.  Adds each pair disjoint from the basis."""
        return self._toggle_pairs(a, 2)

    def Lam(self, a: DifferentialForm) -> DifferentialForm:
        """Lowering operator: contraction with pi.  Removes each pair inside the basis."""
        return self._toggle_pairs(a, -2)

    def _toggle_pairs(self, a: DifferentialForm, step: int) -> DifferentialForm:
        """L (step 2) or Lam (step -2): each term goes to key ^ P for each pair mask P its basis lists."""
        self._check(a)
        low = (1 << self.dim) - 1
        table = _TOGGLES[step][self.dim]
        out = {}
        get = out.get
        for key, c in a.packed.items():
            for pm in table[key & low]:
                k2 = key ^ pm
                s = get(k2)
                out[k2] = s = c if s is None else s + c
                if not s:
                    del out[k2]
        return DifferentialForm._raw(self.dim, a.degree + step, out)

    def H(self, a: DifferentialForm) -> DifferentialForm:
        """Degree-counting operator a |-> (n - deg a) * a."""
        self._check(a)
        return a * (self.n - a.degree)

    def delta(self, a: DifferentialForm) -> DifferentialForm:
        """Koszul differential Lam d - d Lam.  Degree -1, squares to zero.

        Per pair, [iota_{e_p} iota_{e_q}, d] = iota_{e_p} d_q - iota_{e_q} d_p,
        so dx_j in the basis is removed with the sign (-1)^below(m, j) and the
        derivative along its partner j^1, negated for even (q) j.
        """
        self._check(a)
        return _derivation(a, a.degree - 1, _delta_table)

    def _check(self, a: DifferentialForm):
        if a.dim != self.dim:
            raise ValueError("form and symplectic space live on different spaces")

    # -- Hamiltonian mechanics -------------------------------------------------

    def hamiltonian_vector_field(self, f: Polynomial) -> MultiVectorField:
        """The unique X with iota_X omega = -df, read off df (closed form above)."""
        self._check(f)
        low = (1 << self.dim) - 1
        packed = {}
        for key, c in d_poly(f).packed.items():
            bit = key & low
            if bit & low // 3:  # a q, low // 3 being 0b0101...: d_q f dx_q becomes d_q f e_p
                packed[key ^ bit | bit << 1] = c
            else:  # d_p f dx_p becomes -d_p f e_q
                packed[key ^ bit | bit >> 1] = -c
        return MultiVectorField._raw(self.dim, 1, packed)

    def poisson_bracket(self, f: Polynomial, g: Polynomial) -> Polynomial:
        """{f, g} = X_f g = iota_{X_f} dg; bilinear, antisymmetric, Jacobi."""
        return contract_vector(self.hamiltonian_vector_field(f), d_poly(g)).as_polynomial()


RELATIONS = (
    "[Lam,L]=H", "[H,Lam]=2Lam", "[H,L]=-2L", "[L,d]=0", "[Lam,d]=delta", "[H,d]=-d", "[Lam,delta]=0",
    "[L,delta]=d", "[H,delta]=delta", "delta^2=0", "delta d=-d delta", "[delta d,H]=0", "[delta d,L]=0",
    "[delta d,Lam]=0",
)


def operator_relations(s: SymplecticSpace, a: DifferentialForm) -> tuple[DifferentialForm, ...]:
    """The residual lhs - rhs of each relation in ``RELATIONS`` on the form ``a``, in that order.

    Each operator value that several relations take is computed once and bound to a name, so
    L, Lam, delta and d run 26 times in all.  The operators are looked up at call time.
    """
    L, Lam, H, dl = s.L, s.Lam, s.H, s.delta
    La, Ma, Ha, da, ea = L(a), Lam(a), H(a), d(a), dl(a)
    dLa, dMa, dHa, dda = d(La), d(Ma), d(Ha), dl(da)
    return (
        Lam(La) - L(Ma) - Ha,
        H(Ma) - Lam(Ha) - Ma * 2,
        H(La) - L(Ha) + La * 2,
        L(da) - dLa,
        Lam(da) - dMa - ea,
        H(da) - dHa + da,
        Lam(ea) - dl(Ma),
        L(ea) - dl(La) - da,
        H(ea) - dl(Ha) - ea,
        dl(ea),
        dda + d(ea),
        dl(dHa) - H(dda),
        dl(dLa) - L(dda),
        dl(dMa) - Lam(dda),
    )
