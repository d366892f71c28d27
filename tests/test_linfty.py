from dataclasses import replace
from math import comb

import pytest

import koszul.volume
from koszul import (
    BracketFamily,
    DifferentialForm,
    Polynomial,
    SymplecticSpace,
    VolumeSpace,
    ce_partial,
    d_poly,
    koszul_sign,
    linfty_residual,
    parse_form,
    permutation_sign,
    symplectic_family,
    tilde_l,
    verify_chain_identity,
    volume_family,
)
from koszul.brackets import _clearing_scale, bracket_coefficient, raised_coefficient
from _util import rand_form, rand_poly, unshuffles


# -- unshuffles ----------------------------------------------------------------


def test_unshuffles_1_1():
    assert unshuffles(1, 1) == [(0, 1), (1, 0)]


def test_unshuffles_0_n_is_identity():
    assert unshuffles(0, 4) == [(0, 1, 2, 3)]
    assert unshuffles(4, 0) == [(0, 1, 2, 3)]


@pytest.mark.parametrize("i,j", [(1, 2), (2, 2), (3, 2), (2, 3)])
def test_unshuffle_count_and_blocks(i, j):
    perms = unshuffles(i, j)
    assert len(perms) == comb(i + j, i)
    assert len(set(perms)) == len(perms)
    for sigma in perms:
        assert sorted(sigma) == list(range(i + j))
        assert list(sigma[:i]) == sorted(sigma[:i])
        assert list(sigma[i:]) == sorted(sigma[i:])


# -- signs ----------------------------------------------------------------------


def test_permutation_sign():
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((2, 0, 1)) == 1


def test_koszul_sign_even_degrees_trivial():
    for sigma in unshuffles(2, 2):
        assert koszul_sign(sigma, [0, 0, 2, -2]) == 1


def test_koszul_sign_odd_transposition():
    assert koszul_sign((1, 0), [1, 1]) == -1
    assert koszul_sign((1, 0), [1, 2]) == 1
    assert koszul_sign((0, 1), [1, 1]) == 1


def test_koszul_sign_identity_always_one():
    assert koszul_sign((0, 1, 2, 3), [1, -1, 3, 0]) == 1


def test_koszul_sign_multiplicative_on_odd_block():
    # reversing three odd elements needs three transpositions of odd pairs
    assert koszul_sign((2, 1, 0), [1, 1, 1]) == -1


def test_koszul_sign_length_mismatch():
    with pytest.raises(ValueError):
        koszul_sign((0, 1), [1])


# -- ce_partial -------------------------------------------------------------------


def test_ce_partial_unary_case():
    # on a 1-ary map the sum has a single (-1)^(1+2) phi(B(x1,x2)) term
    s = SymplecticSpace(1)
    phi = lambda xs: d_poly(xs[0])
    f = rand_poly("cep-f", 0, 2)
    g = rand_poly("cep-g", 0, 2)
    got = ce_partial(s.poisson_bracket, phi, [f, g])
    assert got == -d_poly(s.poisson_bracket(f, g))


def test_ce_partial_output_antisymmetric():
    s = SymplecticSpace(1)
    phi = lambda xs: tilde_l(s, xs)  # antisymmetric 2-ary map
    f, g, h = (rand_poly(f"cep3-{i}", 3, 2) for i in range(3))

    def value(*args):
        return ce_partial(s.poisson_bracket, phi, list(args))

    base = value(f, g, h)
    assert value(g, f, h) == -base
    assert value(f, h, g) == -base


def test_ce_partial_needs_two_arguments():
    s = SymplecticSpace(1)
    with pytest.raises(ValueError):
        ce_partial(s.poisson_bracket, lambda xs: d_poly(xs[0]), [rand_poly("one", 0, 2)])


# -- the identity evaluator: n=3 reproduces Jacobi-up-to-homotopy ------------------


def test_n3_identity_matches_hand_expansion():
    # the evaluator's n=3 sum on ground arguments must equal
    #   [[a,b],c] - [[a,c],b] + [[b,c],a] + l_1(l_3(a,b,c))
    # which pins the sign conventions of the double sum
    s = SymplecticSpace(2)
    fam = symplectic_family(s)

    def l2(x, y):
        return fam.l([x, y])

    for t in range(6):
        a = fam.element(rand_form("n3-a", t, 4, 1))
        b = fam.element(rand_form("n3-b", t, 4, 1))
        c = fam.element(rand_form("n3-c", t, 4, 1))
        by_hand = (
            l2(l2(a, b), c).form
            - l2(l2(a, c), b).form
            + l2(l2(b, c), a).form
            + s.delta(fam.l([a, b, c]).form)
        )
        assert by_hand.is_zero()
        assert linfty_residual(fam, [a, b, c]).form.is_zero()


def test_n1_identity_is_differential_squared():
    s = SymplecticSpace(2)
    fam = symplectic_family(s)
    for degree in (1, 2, 3, 4):
        x = fam.element(rand_form("n1", degree, 4, degree))
        assert linfty_residual(fam, [x]).form.is_zero()


def test_n2_with_exact_ground_argument():
    # first argument delta(eta): groundedness makes every term vanish
    s = SymplecticSpace(2)
    fam = symplectic_family(s)
    eta = rand_form("n2-eta", 0, 4, 2)
    x = fam.element(rand_form("n2-x", 0, 4, 1))
    exact = fam.element(s.delta(eta))
    assert fam.l([exact, x]).form.is_zero()
    assert linfty_residual(fam, [exact, x]).form.is_zero()


def test_family_degree_bookkeeping():
    s = SymplecticSpace(2)
    fam = symplectic_family(s)
    args = [fam.element(rand_form(f"bk-{i}", i, 4, 1)) for i in range(3)]
    out = fam.l(args)
    assert out.ldegree == 2 - 3
    assert out.form.degree == 2  # a (k-1)-form
    assert fam.element(rand_form("bk-el", 0, 4, 3)).ldegree == -2


def test_arity_beyond_range_returns_zero():
    s = SymplecticSpace(1)
    fam = symplectic_family(s)
    args = [fam.element(rand_form(f"hi-{i}", i, 2, 1)) for i in range(6)]
    assert fam.l(args).form.is_zero()


def test_element_rejects_out_of_complex_degrees():
    s = SymplecticSpace(1)
    fam = symplectic_family(s)
    with pytest.raises(ValueError, match="outside the symplectic"):
        fam.element(rand_form("oc", 0, 2, 0))  # functions sit below the complex
    assert fam.element(DifferentialForm.zero(2, 0)).form.is_zero()  # zero is fine anywhere
    # every family, every form degree: the complex's form degrees [lo, hi] and the form degree l_1 adds
    table = [(symplectic_family(SymplecticSpace(n)), 1, 2 * n, -1) for n in (1, 2)]
    table += [(volume_family(VolumeSpace(m)), 0, m - 2, 1) for m in (3, 4, 5)]
    for fam, lo, hi, step in table:
        assert fam.ldegree_of(fam.ground_form_degree) == 0
        for degree in range(fam.dim + 1):
            assert fam.form_degree_of(fam.ldegree_of(degree)) == degree
            assert fam.element(DifferentialForm.zero(fam.dim, degree)).ldegree == fam.ldegree_of(degree)
            form = rand_form(f"oc/{fam.name}", degree, fam.dim, degree)
            assert not form.is_zero()
            if not lo <= degree <= hi:
                with pytest.raises(ValueError) as refused:
                    fam.element(form)
                assert str(refused.value) == f"form degree {degree} outside the {fam.name} complex [{lo}, {hi}]"
                continue
            x = fam.element(form)
            out = fam.l([x])
            assert (out.ldegree, out.form.degree) == (x.ldegree + 1, degree + step), (fam.name, degree)


def test_element_refuses_a_form_from_another_space():
    fam = volume_family(VolumeSpace(3))
    with pytest.raises(ValueError, match=r"form on R\^5 outside the volume\(m=3\) complex on R\^3"):
        fam.l([fam.element(parse_form("v1", 5)), fam.element(parse_form("dx1", 5))])
    fam = symplectic_family(SymplecticSpace(1))
    with pytest.raises(ValueError, match=r"form on R\^4 outside the symplectic\(n=1\) complex on R\^2"):
        fam.element(parse_form("dx1^dx3", 4))
    assert fam.element(parse_form("dx1^dx2", 2)).ldegree == -1


# -- the pruned evaluator against the plain double sum -----------------------------


def reference_residual(fam, args):
    """Oracle: the n-th identity summed over every (i, j, sigma), nothing skipped."""
    n = len(args)
    degrees = [x.ldegree for x in args]
    total = DifferentialForm.zero(args[0].form.dim, 0)
    for i in range(1, n + 1):
        j = n + 1 - i
        for sigma in unshuffles(i, n - i):
            inner = fam.l([args[s] for s in sigma[:i]])
            outer = fam.l([inner] + [args[s] for s in sigma[i:]])
            sign = (-1) ** (i * (j + 1)) * permutation_sign(sigma) * koszul_sign(sigma, degrees)
            total = total + outer.form * sign
    return total


def _scaled_higher(fam, c):
    """The family with every l_k, k >= 2, scaled by c: l_2 l_2 and l_1 l_3 no longer cancel."""
    return replace(fam, higher=lambda forms: fam.higher(forms) * c)


def _oracle_families():
    spaces = [(f"symplectic-n{n}", SymplecticSpace(n), symplectic_family) for n in (1, 2)]
    spaces += [(f"volume-m{m}", VolumeSpace(m), volume_family) for m in (3, 4)]
    for label, space, family in spaces:
        fam = family(space)
        yield label, fam, space.dim
        yield f"{label}-broken", _scaled_higher(fam, 2), space.dim


def _oracle_inputs(label, fam, dim, t):
    inside = [f for f in range(dim + 1) if fam.ldegree_of(f) <= 0]  # the complex's form degrees
    lo, hi = inside[0], inside[-1]
    ground = fam.ground_form_degree

    def form(tag, degree):
        return fam.element(rand_form(f"{label}/{tag}", t, dim, degree))

    for arity in range(1, dim + 3):
        yield [form(f"g{arity}-{k}", ground) for k in range(arity)]
    mixed = [min(max(ground + off, lo), hi) for off in (0, 1, -1, 2)]
    yield [form(f"mix-{k}", deg) for k, deg in enumerate(mixed)]
    yield [form(f"mix3-{k}", deg) for k, deg in enumerate(mixed[:3])]
    zero = fam.element(DifferentialForm.zero(dim, ground))
    yield [form("z0", ground), zero, form("z2", ground)]
    # the i = 1 terms l_n(l_1(x_p), ...) need x_p in complex degree -1 and the rest ground
    low = fam.form_degree_of(-1)
    for arity, at in ((2, 0), (4, 1), (5, 4)):
        yield [form(f"low{arity}-{k}", low if k == at else ground) for k in range(arity)]
    yield [form(f"two-low-{k}", low if k in (0, 2) else ground) for k in range(4)]
    yield [form(f"off-{k}", low) for k in range(3)]
    # lifts that are constants or zero: on R2n the lift delta of v2 dx1 is the constant -1, of v1 dx1 zero,
    # and of a form with affine coefficients a constant, so l_k of two of them is zero by the constants
    basis = tuple(range(ground))
    const = fam.element(DifferentialForm.basis(dim, basis, Polynomial.coordinate(dim, 1)))
    closed = fam.element(DifferentialForm.basis(dim, basis, Polynomial.coordinate(dim, 0)))

    def affine(tag):
        return fam.element(rand_form(f"{label}/{tag}", t, dim, ground, 1))

    yield [const, form("c1", ground)]
    yield [const, form("c2-1", ground), form("c2-2", ground)]
    yield [form("c3-0", ground), const, affine("c3-2"), form("c3-3", ground)]
    yield [closed, form("c4-1", ground), form("c4-2", ground), const]
    for arity in range(2, dim + 3):
        yield [affine(f"a{arity}-{k}") for k in range(arity)]


def test_pruned_residual_equals_full_double_sum():
    live = set()
    for label, fam, dim in _oracle_families():
        for t in range(4):
            for args in _oracle_inputs(label, fam, dim, t):
                got = linfty_residual(fam, args)
                want = reference_residual(fam, args)
                assert got.form == want, (label, t, [x.ldegree for x in args])
                assert got.ldegree == sum(x.ldegree for x in args) + 3 - len(args)
                if not want.is_zero():
                    live.add(label)
    # the comparison is not all zero == zero: every broken family leaves a residual
    assert live == {"symplectic-n1-broken", "symplectic-n2-broken", "volume-m3-broken", "volume-m4-broken"}


def test_ground_identity_is_the_chain_identity_on_delta_images():
    # on ground 1-forms x only the splittings i = 2 and i = n survive: lifting l_2(x_a, x_b) gives
    # {delta x_a, delta x_b}, so the residual is -(ce_partial({,}, l~_(n-1)) - delta l~_n) on the delta x,
    # the chain identity at k = n - 1.  Under every raise of a(k, j), k >= 3, as well; a raised a(2, 0)
    # breaks the morphism delta l_2 = {delta., delta.} this rests on.  Degree-3 draws, as at degree 2
    # every delta x is affine and both sides are zero
    live = set()
    for n in (1, 2, 3):
        s = SymplecticSpace(n)
        fam = symplectic_family(s)
        draws = {(arity, t): [rand_form(f"chain-oracle/R{s.dim}/n{arity}/{i}", t, s.dim, 1, 3) for i in range(arity)]
                 for arity in range(3, s.dim + 3) for t in range(6 if n == 1 else 2)}  # few R2 pairs are nonzero
        raises = [(k, j) for k in range(3, s.dim + 3) for j in range((k + 1) // 2)]
        for a in [bracket_coefficient, *(raised_coefficient(k, j) for k, j in raises)]:
            raised = replace(fam, scale=lambda k, a=a: _clearing_scale(a, k),
                             higher=lambda fs, a=a: tilde_l(s, fs, a, _clearing_scale(a, len(fs))))
            for key, xs in draws.items():
                got = linfty_residual(raised, [raised.element(x) for x in xs]).form
                assert got == -verify_chain_identity(s, [s.delta(x).as_polynomial() for x in xs], a), (s.dim, key)
                if got:
                    live.add(s.dim)
    assert live == {2, 4, 6}  # not all zero == zero: every space has a nonzero pair


@pytest.mark.parametrize("family", ["symplectic", "volume"])
def test_ground_identity_brackets_stay_quadratic(family):
    # on n ground arguments only l_2 (C(n,2) unshuffles), the outer l_(n-1) of
    # each l_2 and one l_n can be nonzero; everything else is skipped unevaluated
    fam = symplectic_family(SymplecticSpace(2)) if family == "symplectic" else volume_family(VolumeSpace(4))
    calls = []

    def counting(forms):
        calls.append(len(forms))
        return fam.higher(forms)

    counted = replace(fam, higher=counting)
    for n in range(2, 6):
        args = [fam.element(rand_form(f"count/{family}/{k}", n, 4, fam.ground_form_degree)) for k in range(n)]
        calls.clear()
        assert linfty_residual(counted, args).form.is_zero()
        assert len(calls) <= 2 * comb(n, 2) + 1, (n, calls)


def test_grounded_rules_live_in_the_family():
    fam = symplectic_family(SymplecticSpace(1))
    assert fam.vanishes([0]) and fam.vanishes([1]) and not fam.vanishes([-1])
    assert fam.vanishes([0, -1]) and not fam.vanishes([0, 0, 0])


@pytest.mark.parametrize("family", ["symplectic", "volume"])
def test_each_argument_is_lifted_once(family, monkeypatch):
    # one lift per argument and one per inner l_2 value; the symplectic l_1 is
    # delta itself, so its one outer l_1(l_n(..)) makes one more delta call
    calls = []
    if family == "symplectic":
        real = SymplecticSpace.delta
        monkeypatch.setattr(SymplecticSpace, "delta", lambda s, a: calls.append(a) or real(s, a))
        fam, extra = symplectic_family(SymplecticSpace(2)), 1
    else:
        real = koszul.volume.exact_divfree_vf
        monkeypatch.setattr(koszul.volume, "exact_divfree_vf", lambda v, a: calls.append(a) or real(v, a))
        fam, extra = volume_family(VolumeSpace(4)), 0
    for n in range(2, 9):
        args = [fam.element(rand_form(f"lift/{family}/{k}", n, 4, fam.ground_form_degree)) for k in range(n)]
        calls.clear()
        assert linfty_residual(fam, args).form.is_zero()
        assert len(calls) <= n + comb(n, 2) + extra, (n, len(calls))


@pytest.mark.parametrize("family", ["symplectic", "volume"])
def test_rows_without_a_surviving_term_lift_nothing(family):
    # n = 1 and n = 2 ground rows and mixed-degree rows are exact zeros: no argument is lifted
    fam = symplectic_family(SymplecticSpace(2)) if family == "symplectic" else volume_family(VolumeSpace(4))
    calls = []
    counting = replace(fam, lift=lambda a: calls.append(a) or fam.lift(a))
    ground = [fam.element(rand_form(f"nolift/{family}/{k}", 0, 4, fam.ground_form_degree)) for k in range(3)]
    two_off = fam.ground_form_degree + (2 if family == "symplectic" else -2)  # l_1 of it is still off the ground
    other = fam.element(rand_form(f"nolift/{family}/x", 0, 4, two_off))
    for args in (ground[:1], ground[:2], [other, *ground[:2]]):
        assert linfty_residual(counting, args).form.is_zero()
    assert calls == []


@pytest.mark.parametrize("family", ["symplectic", "volume"])
def test_vanishes_runs_once_per_splitting(family, monkeypatch):
    # an i >= 2 draws every head from the ground positions, where l_i never vanishes, and its outer
    # l_j sees the same degrees on every head: one test per splitting, and two per head at i = 1
    fam = symplectic_family(SymplecticSpace(2)) if family == "symplectic" else volume_family(VolumeSpace(4))
    tests = []
    vanishes = BracketFamily.vanishes
    monkeypatch.setattr(BracketFamily, "vanishes",
                        lambda f, ldegrees: tests.append(len(ldegrees)) or vanishes(f, ldegrees))
    low = fam.form_degree_of(-1)
    for n in range(1, 9):
        ground = [fam.element(rand_form(f"once/{family}/{k}", n, 4, fam.ground_form_degree)) for k in range(n)]
        lowered = [fam.element(rand_form(f"once/{family}/low", n, 4, low)), *ground[1:]]
        for args in (ground, lowered):
            tests.clear()
            assert linfty_residual(fam, args).form.is_zero()
            assert len(tests) <= (n - 1) + 2 * n, (n, tests)


def test_enumeration_stays_polynomial(monkeypatch):
    # 18 ground arguments have 2^18 unshuffles; at most n + C(n, 2) + 1 heads
    # are candidates, each tested twice, plus one test per i skipped whole
    fam = symplectic_family(SymplecticSpace(1))
    args = [fam.element(rand_form(f"poly-enum/{k}", 0, 2, 1)) for k in range(18)]
    assert linfty_residual(fam, args[:6]).form == reference_residual(fam, args[:6])
    tests = []
    vanishes = BracketFamily.vanishes
    monkeypatch.setattr(BracketFamily, "vanishes",
                        lambda f, ldegrees: tests.append(len(ldegrees)) or vanishes(f, ldegrees))
    n = len(args)
    assert linfty_residual(fam, args).form.is_zero()
    assert len(tests) <= 2 * (n + comb(n, 2) + 1) + n, len(tests)
