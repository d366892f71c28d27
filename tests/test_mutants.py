"""Mutation table: a public kernel negated wherever a ``koszul`` module binds it,
and the exact set of checks of the default campaign (``CampaignConfig()``) that
the mutant fails.  A row that fails nothing is a surviving mutant, kept here
with its reason and listed as an open item in ROADMAP.md.

Each row runs one default campaign; the twenty-one rows take about 4 s in all.
``BracketFamily.vanishes`` is a predicate, which a negation cannot mutate
faithfully, so its row is a custom mutant below.
"""

import inspect
import sys

import pytest

import koszul.brackets
import koszul.campaign
from koszul import DifferentialForm, Polynomial, symplectic_family, volume_family
from koszul.campaign import CampaignConfig, run_campaign
from koszul.linfty import BracketFamily

from _util import rebuilt

VOLUME_CHECKS = {
    "R3(vol) iota_X mu = -d(potential)",
    "R3(vol) identity n=3 (ground args)",
    "R4(vol) iota_X mu = -d(potential)",
    "R4(vol) identity n=3 (ground args)",
    "R4(vol) identity n=4 (ground args)",
}

MORPHISM_CHECKS = {f"R{dim} delta l_2(a,b) = {{delta a, delta b}}" for dim in (2, 4)}
CHAIN_CHECKS = {"R2 partial(l~_2) = delta l~_3", *(f"R4 partial(l~_{k}) = delta l~_{k + 1}" for k in (2, 3, 4))}
# the identities that a sign flip of every bracket l_k, k >= 2, of the symplectic family breaks
ODD_IDENTITY_CHECKS = {"R2 identity n=3 (ground args)", "R4 identity n=3 (ground args)", "R4 identity n=5 (ground args)"}

# {f, g} = X_f g: a negated X_f negates the bracket, which the morphism, alt-relation and
# chain rows compare with delta; the L-infinity rows never take a bracket of functions
BRACKET_CHECKS = {
    *MORPHISM_CHECKS,
    *(f"R2 partial(Alt m_{k}) = (-delta + d Lam/{k}) Alt m_{k + 1}" for k in (1, 2)),
    *(f"R4 partial(Alt m_{k}) = (-delta + d Lam/{k}) Alt m_{k + 1}" for k in (1, 2, 3, 4)),
    "R2 partial(l~_2) = delta l~_3",
    *(f"R4 partial(l~_{k}) = delta l~_{k + 1}" for k in (2, 3, 4)),
}

POISSON_SPACES = ("sl2star", "standard-symplectic(1)", "standard-symplectic(2)")
QUOTIENT_CHECKS = {f"R{dim} quotient congruence witness" for dim in (2, 4)}
JACOBIATOR_CHECKS = {f"{space} jacobiator vs obstruction" for space in POISSON_SPACES}
OBSTRUCTION_CHECKS = ({f"{space} obstruction identity" for space in POISSON_SPACES}
                      | {f"standard-symplectic({n}) obstruction = delta(witness)" for n in (1, 2)})


def relations(*names):
    """The named rows of the operator relation table, on R2 and R4."""
    return {f"R{dim} {name}" for dim in (2, 4) for name in names}


# ``lefschetz_sum`` applies L^j Lam^j, so a negated L or Lam flips the odd-j terms of every l~_k:
# the L-infinity identities, the chain rows and the R2 a(3,0) mutation row see it.  Lam also
# enters the alt-relation's d Lam term, which vanishes on R2 for k = 1
LEFSCHETZ_CHECKS = {
    "R2 identity n=3 (ground args)",
    "R4 identity n=3 (ground args)",
    "R4 identity n=5 (ground args)",
    "R2 mutation a(3,0) breaks the identity",
    "R2 partial(l~_2) = delta l~_3",
    *(f"R4 partial(l~_{k}) = delta l~_{k + 1}" for k in (2, 3, 4)),
}

MUTANTS = {
    # the bracket contracts by X_f; l_2 of the volume family contracts twice, so only its
    # arity-3 and arity-4 identities see a negated contraction
    "contract_vector": BRACKET_CHECKS | VOLUME_CHECKS,
    "exact_divfree_vf": VOLUME_CHECKS,
    # the same as pi -> -pi, which is still Poisson: delta^2 = 0, the obstruction identity and
    # the jacobiator hold for it, so only the checks that compare with a fixed value fail
    "contract_bivector": {
        "sl2star iota_pi(top) = v1 dx1 + v2 dx2 - v3 dx3",
        "standard-symplectic(1) obstruction = delta(witness)",
        "standard-symplectic(2) obstruction = delta(witness)",
    },
    "hamiltonian_vector_field": BRACKET_CHECKS,
    # d_poly goes through d.  A negated d also negates the Poisson spaces' delta = [iota_pi, d],
    # and their rows pass again; it fails the [L,delta] and [Lam,d] operator relations instead
    "d": BRACKET_CHECKS | QUOTIENT_CHECKS | {f"R{dim} {rel}" for dim in (2, 4) for rel in ("[L,delta]=d", "[Lam,d]=delta")},
    # a negated df scales l_k by (-1)^(k-1), so every term of the n-th L-infinity identity by
    # (-1)^(n-1): an equivalent mutant for those rows.  Every other row that takes a df fails
    "d_poly": BRACKET_CHECKS | QUOTIENT_CHECKS | JACOBIATOR_CHECKS | OBSTRUCTION_CHECKS,
    # every l_k of the symplectic family is linear in delta, so each term l_i(l_j(..)) of an
    # L-infinity identity is invariant: an equivalent mutant for those rows.  delta binds both
    # SymplecticSpace and PoissonSpace, so the Poisson rows fail as they do for a negated d_poly
    "delta": BRACKET_CHECKS | QUOTIENT_CHECKS | JACOBIATOR_CHECKS | OBSTRUCTION_CHECKS
    | relations("[L,delta]=d", "[Lam,d]=delta"),
    "L": LEFSCHETZ_CHECKS | relations("[L,delta]=d", "[Lam,L]=H"),
    "Lam": LEFSCHETZ_CHECKS | relations("[Lam,d]=delta", "[Lam,L]=H")
    | {"R2 partial(Alt m_2) = (-delta + d Lam/2) Alt m_3"}
    | {f"R4 partial(Alt m_{k}) = (-delta + d Lam/{k}) Alt m_{k + 1}" for k in (2, 3, 4)},
    # -H still commutes with delta d, so [delta d,H]=0 holds; every other row that takes H fails
    "H": relations("[H,L]=-2L", "[H,Lam]=2Lam", "[H,d]=-d", "[H,delta]=delta", "[Lam,L]=H"),
    # an equivalent mutant: d and delta negated together (``_derivation`` is both kernels, and
    # d_poly goes through d) leave every identity of the campaign invariant, so nothing fails
    "_derivation": set(),
    # alt_m's terms take k-1 or k-2 wedges, so a negated wedge breaks alt_m itself, and with it
    # some L-infinity rows; of the Poisson-space rows only the jacobiators fail
    "wedge": BRACKET_CHECKS | QUOTIENT_CHECKS | JACOBIATOR_CHECKS
    | {"R2 identity n=3 (ground args)", "R4 identity n=3 (ground args)", "R4 identity n=5 (ground args)"},
    # a(k, j) -> -a(k, j) negates every l_k, k >= 2, which the arity-3 and arity-5 identities
    # see.  The chain rows are blind to a global sign of a(k, j), an equivalent mutant for them:
    # both sides of the chain identity scale with it.  The brackets fail only if ``a=None`` is
    # resolved to ``bracket_coefficient`` at call time, not bound when the module is loaded.
    "bracket_coefficient": {
        "R2 identity n=3 (ground args)",
        "R4 identity n=3 (ground args)",
        "R4 identity n=5 (ground args)",
        "anchored values a(2,0)..a(5,2)",
    },
    # the bracket layer.  ce_partial is the left side of the chain and alt-relation rows only: the
    # morphism row takes {f, g} itself, and the L-infinity evaluator sums its own terms
    "ce_partial": BRACKET_CHECKS - MORPHISM_CHECKS,
    # a negated P_k = (-1)^k sum_j a(k,j) L^j Lam^j negates every l_k, k >= 2, as a negated a(k, j)
    # does; the chain identity applies P_k on both sides, an equivalent mutant there
    "lefschetz_sum": ODD_IDENTITY_CHECKS,
    # every l_k, k >= 2, goes through tilde_l, and so does the chain identity's right side alone
    "tilde_l": ODD_IDENTITY_CHECKS | CHAIN_CHECKS,
    # k alt_m is on both sides of the chain and alt relations (equivalent there) and in every l_k,
    # k >= 2; the morphism and quotient rows compare it with {f, g} and d g f, which do not take it
    "_alt_sum": ODD_IDENTITY_CHECKS | MORPHISM_CHECKS | QUOTIENT_CHECKS,
    # the bracket ce_partial and the morphism row take: it fails what a negated X_f fails
    "poisson_bracket": BRACKET_CHECKS,
    # every l_k, k >= 2, of the volume family; the arity-3 and arity-4 identities mix terms with one
    # and with two of them, while arity 2 flips whole, iota_X mu takes none and the d-exact row's
    # l_2 is zero either way
    "_contract_into_mu": {"R3(vol) identity n=3 (ground args)", "R4(vol) identity n=3 (ground args)",
                          "R4(vol) identity n=4 (ground args)"},
    # equivalent mutants: each term of an L-infinity identity takes both signs, so negating either
    # one negates the whole residual, and a zero residual stays zero
    "koszul_sign": set(),
    "permutation_sign": set(),
}


def holders(name: str) -> list:
    """Each koszul module, and each class defined in one, that binds ``name``."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "koszul" and not mod_name.startswith("koszul."):
            continue
        classes = [v for v in vars(module).values() if inspect.isclass(v) and v.__module__ == mod_name]
        found += [h for h in [module, *classes] if name in vars(h)]
    return found


@pytest.mark.parametrize("name", MUTANTS)
def test_negated_kernel_fails_exactly_its_checks(monkeypatch, name):
    targets = holders(name)
    assert targets, name
    for holder in targets:
        kernel = vars(holder)[name]
        monkeypatch.setattr(holder, name, lambda *args, kernel=kernel, **kwargs: -kernel(*args, **kwargs))
    report = run_campaign(CampaignConfig())
    assert {c.name for c in report.checks if not c.ok} == MUTANTS[name]


def test_untruncated_l1_fails_exactly_its_checks(monkeypatch):
    # the l_1 truncation ``>=`` -> ``>``: l_1 now acts on the ground degree, so the n = 2 identity on
    # ground arguments gains the term l_1(l_2(x, y)), delta l_2 = {delta x, delta y} or its volume
    # analogue; the R2 row's three draws each have a delta-closed argument, so its l_2 is zero anyway
    vanishes = BracketFamily.vanishes

    def untruncated(family, ldegrees):
        if len(ldegrees) == 1:
            return ldegrees[0] > family.ldegree_of(family.ground_form_degree)
        return vanishes(family, ldegrees)

    monkeypatch.setattr(BracketFamily, "vanishes", untruncated)
    report = run_campaign(CampaignConfig())
    assert {c.name for c in report.checks if not c.ok} == {
        "R4 identity n=2 (ground args)", "R3(vol) identity n=2 (ground args)", "R4(vol) identity n=2 (ground args)"}


# -- rows that cannot fail ---------------------------------------------------------------------------

# the rows that read a bracket yet pass with every bracket spoiled: zero on every input by degree alone.
# l_1 is truncated on the ground layer, and off it n = 1 and n = 2 reduce to l_1 l_1 = 0; two mixed
# arguments are off the ground; R2's n = 5 > dim + 2; a (dim+1)-form on R^dim is zero; and so is
# k alt_m of more than dim + 1 functions.  A change that gives one of them inputs on which it can fail
# shrinks this set
CANNOT_FAIL = {
    *(f"{label} identity n={n} (ground args)" for label in ("R2", "R4", "R3(vol)", "R4(vol)") for n in (1, 2)),
    "R2 identity n=5 (ground args)",
    "R2 identity n=3 (mixed degrees)",
    "R4 identity n=3 (mixed degrees)",
    "R2 l_4 = 0",
    "R4 l_6 = 0",
    *(f"R2 partial(Alt m_{k}) = (-delta + d Lam/{k}) Alt m_{k + 1}" for k in (4, 5)),
}


def _fixed_form(dim: int, degree: int) -> DifferentialForm:
    """(v1 + 1) dx_1^...^dx_degree on R^dim: nonzero, of the given degree, and no bracket's value."""
    if not 0 <= degree <= dim:
        return DifferentialForm.zero(dim, degree)
    return DifferentialForm.basis(dim, range(degree), Polynomial.coordinate(dim, 0) + Polynomial.constant(dim, 1))


def _spoiled(family):
    """``family`` with l_1 and every l_k, k >= 2, replaced by a fixed form of the degree each maps to."""

    def spoiled_family(space):
        fam = family(space)
        return rebuilt(fam, differential=lambda a: _fixed_form(fam.dim, a.degree + fam.step),
                       higher=lambda lifted: _fixed_form(fam.dim, fam.form_degree_of(2 - len(lifted))))

    return spoiled_family


def test_rows_that_cannot_fail_pass_with_every_bracket_spoiled(monkeypatch):
    monkeypatch.setattr(koszul.campaign, "symplectic_family", _spoiled(symplectic_family))
    monkeypatch.setattr(koszul.brackets, "symplectic_family", _spoiled(symplectic_family))
    monkeypatch.setattr(koszul.campaign, "volume_family", _spoiled(volume_family))
    monkeypatch.setattr(koszul.brackets, "_alt_sum", lambda fs: _fixed_form(fs[0].dim, len(fs) - 1))
    report = run_campaign(CampaignConfig())
    spoiled = [c for c in report.checks if c.suite in ("chain", "alt-relation", "linfty-symplectic", "linfty-volume")
               and "mutation" not in c.name and "iota_X mu" not in c.name]
    assert (len(report.checks), report.passed) == (100, 73)
    assert {c.name for c in spoiled if c.ok} == CANNOT_FAIL
