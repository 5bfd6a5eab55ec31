import functools
import itertools
import random

import pytest

from substrukt.syntax import Language
from substrukt.sequents import parse_sequent
from substrukt.algebra import (FAMILY_OPS, FiniteAlgebra, VarietyId,
                               check_variety, enumerate_algebras,
                               language_of_family)
from substrukt.bridge import (Congruence, CorrespondenceReport, FilterSlices,
                              Found, NoCountermodelUpTo, NotACongruence,
                              NotFound, SemRefuted, all_congruences,
                              all_filters, canonical_filter, countermodel,
                              entails_semantically, filter_closed_expanded,
                              filter_closure, filter_congruence_correspondence,
                              filter_member, is_filter, k_congruences,
                              leibniz_congruence, quotient_algebra)
from substrukt import bridge, fixtures

CORE = Language.preset("core")
NOSIGMA = frozenset()
ALL_SIGMAS = [frozenset(c) for k in range(5)
              for c in itertools.combinations(("e", "wl", "wr", "c"), k)]


@functools.cache
def _small_cases():
    """(algebra, sigma, language) for every family, every sigma and every
    enumerated member of size <= 2."""
    return [(a, sigma, language_of_family(family))
            for family in sorted(FAMILY_OPS) for sigma in ALL_SIGMAS
            for size in (1, 2)
            for a in enumerate_algebras(VarietyId(family, sigma), size)]


def _random_slices(rng, n, density):
    return FilterSlices(
        frozenset(p for p in itertools.product(range(n), repeat=2)
                  if rng.random() < density),
        frozenset(x for x in range(n) if rng.random() < density))


def test_canonical_filter_examples():
    b2 = fixtures.boolean2()
    cf = canonical_filter(b2)
    assert cf.s1 == {(0, 0), (0, 1), (1, 1)}
    assert cf.s0 == {0}
    pm5 = fixtures.pm5_chain()
    assert canonical_filter(pm5).s0 == {0}
    # the empty-antecedent/empty-succedent tuple is (1, 0)-membership of 1
    c3 = fixtures.chain3_nilpotent()
    cf3 = canonical_filter(c3)
    assert filter_member(c3, cf3, (), None) == c3.leq(c3.one, c3.zero)
    assert filter_member(c3, cf3, (c3.zero,), None)


def test_filter_member_extension_rule():
    # membership of longer tuples collapses through the product
    c3 = fixtures.chain3_nilpotent()
    cf = canonical_filter(c3)
    # (a, a => 0): a*a = 0 <= 0
    assert filter_member(c3, cf, (1, 1), c3.zero)
    assert not filter_member(c3, cf, (1, 2), c3.zero)


def test_canonical_filter_closed_everywhere():
    for fam in ("Msl", "Ml", "PMsl", "PMl", "FL"):
        lang = language_of_family(fam)
        for a in enumerate_algebras(VarietyId(fam), 3):
            cf = canonical_filter(a)
            assert is_filter(a, cf, NOSIGMA, lang)


def test_fast_and_expanded_closure_agree():
    # compare the collapsed conditions with honest tuple expansion, and
    # push the expansion to length 5 on small algebras
    rng = random.Random(3)
    b2 = fixtures.boolean2()
    lang2 = b2.language()
    candidates = [canonical_filter(b2)]
    for _ in range(40):
        s1 = frozenset((x, y) for x in range(2) for y in range(2)
                       if rng.random() < 0.6)
        s0 = frozenset(x for x in range(2) if rng.random() < 0.5)
        candidates.append(FilterSlices(s1, s0))
    for slices in candidates:
        fast = is_filter(b2, slices, NOSIGMA, lang2)
        slow = filter_closed_expanded(b2, slices, NOSIGMA, lang2, max_len=3)
        assert fast == slow, slices
    c3 = fixtures.chain3_nilpotent()
    cf = canonical_filter(c3)
    assert filter_closed_expanded(c3, cf, NOSIGMA, c3.language(), max_len=5)


def test_all_filters_pass_expanded_oracle():
    total = 0
    for a, sigma, lang in _small_cases():
        for f in all_filters(a, sigma, lang):
            assert filter_closed_expanded(a, f, sigma, lang, max_len=3), \
                (a.name, sorted(sigma), f)
            total += 1
    # pinned: any change in which filters exist moves this count
    assert total == 448


def test_is_filter_agrees_with_expanded_oracle_on_random_slices():
    rng = random.Random(11)
    closed = 0
    for a, sigma, lang in _small_cases():
        for density in (0.5, 0.7, 0.9):
            slices = _random_slices(rng, a.n, density)
            fast = is_filter(a, slices, sigma, lang)
            slow = filter_closed_expanded(a, slices, sigma, lang, max_len=3)
            assert fast == slow, (a.name, sorted(sigma), slices)
            closed += fast
    assert closed > 0


def test_filter_closure_is_a_closure_operator():
    rng = random.Random(12)
    for a, sigma, lang in _small_cases():
        small = _random_slices(rng, a.n, 0.3)
        extra = _random_slices(rng, a.n, 0.3)
        large = FilterSlices(small.s1 | extra.s1, small.s0 | extra.s0)
        c_small = filter_closure(a, small, sigma, lang)
        assert small <= c_small  # extensive
        assert is_filter(a, c_small, sigma, lang)
        assert filter_closure(a, c_small, sigma, lang) == c_small  # idempotent
        assert c_small <= filter_closure(a, large, sigma, lang)  # monotone


def test_countermodel_spec_examples():
    s = parse_sequent("p => p * p", CORE)
    r = countermodel(s, VarietyId("Msl"), 3)
    assert isinstance(r, Found) and r.algebra.n == 3
    r2 = countermodel(parse_sequent("p => p \\/ q", CORE), VarietyId("Msl"), 3)
    assert isinstance(r2, NotFound)
    r3 = countermodel(parse_sequent("p * q => q * p", CORE),
                      VarietyId("Msl", frozenset(["e"])), 3)
    assert isinstance(r3, NotFound)


def test_entails_semantically():
    hyps = {parse_sequent("p => q", CORE)}
    goal = parse_sequent("p \\/ q => q", CORE)
    r = entails_semantically(hyps, goal, VarietyId("Msl"), 4)
    assert isinstance(r, NoCountermodelUpTo)
    assert r.regime == "bounded"
    r2 = entails_semantically(set(), parse_sequent("=> 0", CORE),
                              VarietyId("Msl"), 2)
    assert isinstance(r2, SemRefuted)
    # a theoremhood hypothesis 1 <= p forces 1 <= p*p by monotonicity, so
    # that entailment holds for every sigma; contraction is where the
    # sigma-regimes genuinely disagree
    hyps3 = {parse_sequent("=> p", CORE)}
    goal3 = parse_sequent("=> p * p", CORE)
    assert isinstance(entails_semantically(hyps3, goal3, VarietyId("Msl"), 3),
                      NoCountermodelUpTo)
    goal4 = parse_sequent("p => p * p", CORE)
    r4 = entails_semantically(set(), goal4, VarietyId("Msl"), 3)
    assert isinstance(r4, SemRefuted) and r4.algebra.n == 3
    r5 = entails_semantically(set(), goal4,
                              VarietyId("Msl", frozenset(["c"])), 3)
    assert isinstance(r5, NoCountermodelUpTo)
    r6 = entails_semantically(set(), parse_sequent("p, q => q * p", CORE),
                              VarietyId("Msl", frozenset(["wl"])), 4)
    assert r6.regime == "fep" if isinstance(r6, NoCountermodelUpTo) else True


def test_leibniz_of_canonical_filter_is_identity():
    for a in (fixtures.boolean2(), fixtures.chain4_min(), fixtures.diamond()):
        theta = leibniz_congruence(a, canonical_filter(a))
        assert isinstance(theta, Congruence)
        assert all(len(b) == 1 for b in theta.blocks)


def test_leibniz_of_full_relation_is_total():
    a = fixtures.boolean2()
    full = FilterSlices(frozenset((x, y) for x in range(2) for y in range(2)),
                        frozenset(range(2)))
    theta = leibniz_congruence(a, full)
    assert isinstance(theta, Congruence)
    assert len(theta.blocks) == 1


def test_leibniz_not_a_congruence_witness():
    # merging a with the top of the nilpotent 3-chain breaks fusion
    # compatibility: a*a = 0 while 1*a = a
    c3 = fixtures.chain3_nilpotent()
    s1 = frozenset([(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)])
    r = leibniz_congruence(c3, FilterSlices(s1, frozenset([0])))
    assert isinstance(r, NotACongruence)
    assert r.operation == "fus"


def _largest_compatible_congruence(a, slices):
    """Brute-force oracle: the largest congruence compatible with the
    represented filter."""
    def compatible(cong):
        pairs = cong.pairs()
        for (x, y) in pairs:
            for u in range(a.n):
                for v in range(a.n):
                    old = a.ops["fus"][a.ops["fus"][u][x]][v]
                    new = a.ops["fus"][a.ops["fus"][u][y]][v]
                    if (old in slices.s0) != (new in slices.s0):
                        return False
                    for w in range(a.n):
                        if ((old, w) in slices.s1) != ((new, w) in slices.s1):
                            return False
            for g in range(a.n):
                if ((g, x) in slices.s1) != ((g, y) in slices.s1):
                    return False
        return True
    best = None
    for cong in all_congruences(a):
        if compatible(cong):
            if best is None or len(best.blocks) > len(cong.blocks):
                best = cong
    return best


def test_leibniz_matches_brute_force_oracle():
    for fam in ("Msl", "Ml"):
        lang = language_of_family(fam)
        for a in enumerate_algebras(VarietyId(fam), 3):
            for slices in all_filters(a, NOSIGMA, lang):
                theta = leibniz_congruence(a, slices)
                assert isinstance(theta, Congruence)
                oracle = _largest_compatible_congruence(a, slices)
                assert theta.blocks == oracle.blocks


def test_filter_closure_is_monotone_and_idempotent():
    a = fixtures.chain3_nilpotent()
    lang = a.language()
    empty = FilterSlices(frozenset(), frozenset())
    bottom = filter_closure(a, empty, NOSIGMA, lang)
    assert is_filter(a, bottom, NOSIGMA, lang)
    again = filter_closure(a, bottom, NOSIGMA, lang)
    assert again == bottom
    assert bottom.s1 >= {(x, x) for x in range(a.n)}


def test_correspondence_examples():
    b2 = fixtures.boolean2()
    ewc = frozenset({"e", "wl", "wr", "c"})
    rep = filter_congruence_correspondence(b2, VarietyId("Ml", ewc))
    assert rep.ok and rep.n_filters == 2 and rep.n_congruences == 2
    trivial = FiniteAlgebra("t", ("e",), {"join": ((0,),), "fus": ((0,),)},
                            0, 0)
    rep = filter_congruence_correspondence(trivial, VarietyId("Msl"))
    assert rep.ok and rep.n_filters == 1 and rep.n_congruences == 1
    c4 = fixtures.chain4_min()
    rep = filter_congruence_correspondence(c4, VarietyId("Msl"))
    assert rep.ok
    assert rep.n_congruences == len(k_congruences(c4, VarietyId("Msl")))


def test_correspondence_names_a_failed_leibniz_image(monkeypatch):
    # one filter whose Leibniz image is not a congruence must be reported
    # as such, without shifting the order check onto the wrong images
    c4 = fixtures.chain4_min()
    v = VarietyId("Msl")
    filters = all_filters(c4, v.sigma, language_of_family(v.family))
    assert len(filters) > 2
    bad = filters[1]
    real = bridge.leibniz_congruence

    def fake(a, f):
        if f == bad:
            return NotACongruence("fus", (0, 1, 2))
        return real(a, f)

    monkeypatch.setattr(bridge, "leibniz_congruence", fake)
    rep = filter_congruence_correspondence(c4, v)
    assert not rep.ok
    assert rep.failures[0] == ("Leibniz of a filter is not a congruence: "
                               "NotACongruence(operation='fus', "
                               "witness=(0, 1, 2))")
    assert not any("order isomorphism" in f for f in rep.failures)
    assert not any("injective" in f for f in rep.failures)


def test_quotient_algebra():
    a = fixtures.chain4_min()
    congs = all_congruences(a)
    assert any(len(c.blocks) == 1 for c in congs)
    for cong in congs:
        q = quotient_algebra(a, cong)
        assert q.n == len(cong.blocks)
        if check_variety(a, VarietyId("Ml")).ok and len(cong.blocks) > 1:
            assert check_variety(q, VarietyId("Ml")).ok


def test_soundness_coupling_random_corpus():
    from substrukt.corpus import random_sequent
    from substrukt.search import prove, Proved
    from substrukt.calculus import calculus
    rng = random.Random(99)
    cal = calculus("", CORE)
    for _ in range(30):
        s = random_sequent(rng, depth=2, lang=CORE)
        if isinstance(prove(s, cal), Proved):
            assert isinstance(countermodel(s, VarietyId("Msl"), 3), NotFound)
