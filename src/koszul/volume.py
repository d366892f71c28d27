"""Bracket family of a volume form: exact divergence-free fields and their tower.

On R^m (m >= 3) with mu = dx1^...^dxm, every (m-2)-form alpha determines the
unique vector field X_alpha with iota_{X_alpha} mu = -d alpha; such fields are
divergence-free since d iota_{X_alpha} mu = -d(d alpha) = 0.  As iota_{e_i} mu
= (-1)^i dx_(rest), a term c of d alpha at key k (``forms``), its basis lacking
index i, is the term -(-1)^i c of X_alpha at k ^ ((1 << m) - 1).  The brackets

    l_k(alpha_1, ..., alpha_k)
        = -(-1)^(k(k+1)/2) iota_{X_(alpha_k)} ... iota_{X_(alpha_1)} mu

(alpha_1 contracted innermost) together with l_1 = d on the truncated complex
Omega^0 -> ... -> Omega^(m-2) form a grounded family for the generic
identity evaluator; the grading here is L_{-i} = Omega^(m-2-i).
"""

from __future__ import annotations

from collections.abc import Sequence

from .forms import DifferentialForm, MultiVectorField, contract_vector, d
from .linfty import BracketFamily


class VolumeSpace:
    """R^m with the standard volume form dx1^...^dxm."""

    def __init__(self, m: int):
        if m < 3:
            raise ValueError("dimension must be >= 3")
        self.dim = m
        self.mu = DifferentialForm.basis(m, range(m))

    def __repr__(self):
        return f"VolumeSpace(m={self.dim})"


def exact_divfree_vf(v: VolumeSpace, alpha: DifferentialForm) -> MultiVectorField:
    """The unique X with iota_X mu = -d alpha, for a potential (m-2)-form alpha (closed form above)."""
    m = v.dim
    if (alpha.dim, alpha.degree) != (m, m - 2):
        raise ValueError(f"potential must be a {m - 2}-form on R^{m}, got a {alpha.degree}-form on R^{alpha.dim}")
    full, odd = (1 << m) - 1, sum(1 << i for i in range(1, m, 2))
    terms = ((key ^ full, c) for key, c in d(alpha).packed.items())  # e_i, i the index missing from key's basis
    return MultiVectorField._raw(m, 1, {key: c if key & odd else -c for key, c in terms})


def _contract_into_mu(v: VolumeSpace, fields: Sequence[MultiVectorField]) -> DifferentialForm:
    """-(-1)^(k(k+1)/2) iota_(X_k) ... iota_(X_1) mu for k = len(fields)."""
    k = len(fields)
    cur = v.mu
    for X in fields:  # first field contracts innermost
        cur = contract_vector(X, cur)
        if cur.is_zero():
            return DifferentialForm.zero(v.dim, v.dim - k)
    return cur if (k * (k + 1) // 2) & 1 else -cur


def volume_family(v: VolumeSpace) -> BracketFamily:
    """The grounded family on Omega^0 -> ... -> Omega^(m-2) with l_1 = d; alpha lifts to X_alpha."""
    return BracketFamily(
        name=f"volume(m={v.dim})",
        dim=v.dim,
        ground_form_degree=v.dim - 2,
        step=1,
        differential=d,
        lift=lambda alpha: exact_divfree_vf(v, alpha),
        scale=lambda k: 1,
        higher=lambda fields: _contract_into_mu(v, fields),
    )
