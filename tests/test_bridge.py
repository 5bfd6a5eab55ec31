import functools
import hashlib
import itertools
import random

import pytest

from substrukt.syntax import Language
from substrukt.sequents import parse_sequent
from substrukt.algebra import (BINARY_OPS, FAMILY_OPS, UNARY_OPS,
                               FiniteAlgebra, VarietyId, check_variety,
                               enumerate_algebras, language_of_family,
                               members, variety_program)
from substrukt.bridge import (Congruence, CorrespondenceReport, FilterSlices,
                              Found, NotACongruence, NotFound,
                              all_congruences, all_filters, canonical_filter,
                              countermodel, filter_closure,
                              filter_congruence_correspondence, is_filter,
                              k_congruences, leibniz_congruence)
from substrukt.corpus import random_semilattice
from substrukt import bridge, fixtures
from filter_oracle import filter_closed_expanded, filter_member

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


def test_countermodel_with_hypotheses():
    hyps = {parse_sequent("p => q", CORE)}
    goal = parse_sequent("p \\/ q => q", CORE)
    r = countermodel(goal, VarietyId("Msl"), 4, hyps=hyps)
    assert isinstance(r, NotFound)
    r2 = countermodel(parse_sequent("=> 0", CORE), VarietyId("Msl"), 2,
                      hyps=set())
    assert isinstance(r2, Found)
    # a theoremhood hypothesis 1 <= p forces 1 <= p*p by monotonicity, so
    # that entailment holds for every sigma; contraction is where the
    # sigma-regimes genuinely disagree
    hyps3 = {parse_sequent("=> p", CORE)}
    goal3 = parse_sequent("=> p * p", CORE)
    assert isinstance(countermodel(goal3, VarietyId("Msl"), 3, hyps=hyps3),
                      NotFound)
    goal4 = parse_sequent("p => p * p", CORE)
    r4 = countermodel(goal4, VarietyId("Msl"), 3, hyps=set())
    assert isinstance(r4, Found) and r4.algebra.n == 3
    r5 = countermodel(goal4, VarietyId("Msl", frozenset(["c"])), 3,
                      hyps=set())
    assert isinstance(r5, NotFound)


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


def quotient_algebra(a, cong):
    """a/cong, with each block named by its members."""
    index = {x: k for k, block in enumerate(cong.blocks) for x in block}
    reps = [block[0] for block in cong.blocks]
    names = tuple("{" + ",".join(a.elements[x] for x in block) + "}"
                  for block in cong.blocks)
    ops = {}
    for op, table in a.ops.items():
        if op in UNARY_OPS:
            ops[op] = tuple(index[table[r]] for r in reps)
        else:
            ops[op] = tuple(tuple(index[table[r][s]] for s in reps)
                            for r in reps)
    return FiniteAlgebra(a.name + "/~", names, ops,
                         index[a.zero], index[a.one])


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


# -- the clause compilation against the per-context builder -----------------

def filter_rules_oracle(a, sigma, lang):
    """The clauses as `_filter_rules` built them before it collected
    element values: one clause per context (u, v), delta and rule, with
    every duplicate generated again."""
    n = a.n
    ft, jt = a.ops["fus"], a.ops["join"]
    at = [[p * n + d for d in range(n)] + [n * n + p] for p in range(n)]
    ds = range(n + 1)
    unary = [0] * (n * n + n)
    pairs = {}

    def one(i, j):
        unary[i] |= 1 << j

    def two(i, k, j):
        if i == k:
            unary[i] |= 1 << j
        else:
            key = (i, k) if i < k else (k, i)
            pairs[key] = pairs.get(key, 0) | 1 << j

    ctx = [[[ft[ft[u][x]][v] for v in range(n)] for u in range(n)]
           for x in range(n)]
    ctx_pairs = [(u, v) for u in range(n) for v in range(n)]

    facts = 1 << at[a.one][a.one] | 1 << at[a.zero][n]
    for x in range(n):
        facts |= 1 << at[x][x]

    for x in range(n):
        for y in range(n):
            for u, v in ctx_pairs:
                old, other = ctx[x][u][v], ctx[y][u][v]
                joined = ctx[jt[x][y]][u][v]
                for d in ds:
                    two(at[old][d], at[other][d], at[joined][d])  # or-l
                    two(at[y][x], at[old][d], at[other][d])  # cut
            for z in range(n):
                one(at[x][y], at[x][jt[y][z]])  # or-r
                one(at[x][y], at[x][jt[z][y]])
                for w in range(n):  # fus-r
                    two(at[x][y], at[z][w], at[ft[x][z]][ft[y][w]])

    if "meet" in lang:
        mt = a.ops["meet"]
        for x in range(n):
            for y in range(n):
                for u, v in ctx_pairs:
                    for d in ds:  # and-l
                        one(at[ctx[x][u][v]][d], at[ctx[mt[x][y]][u][v]][d])
                        one(at[ctx[x][u][v]][d], at[ctx[mt[y][x]][u][v]][d])
                for z in range(n):
                    two(at[x][y], at[x][z], at[x][mt[y][z]])  # and-r

    if "rimp" in lang:
        rt, lt = a.ops["rimp"], a.ops["limp"]
        for g in range(n):
            for x in range(n):
                for y in range(n):
                    one(at[ft[x][g]][y], at[g][rt[x][y]])  # rimp-r
                    one(at[ft[g][x]][y], at[g][lt[x][y]])  # limp-r
                    for u, v in ctx_pairs:
                        lhs_r = ft[ft[ft[u][g]][rt[x][y]]][v]
                        lhs_l = ft[ft[ft[u][lt[x][y]]][g]][v]
                        for d in ds:
                            premise = at[ctx[y][u][v]][d]  # rimp-l, limp-l
                            two(at[g][x], premise, at[lhs_r][d])
                            two(at[g][x], premise, at[lhs_l][d])

    if "rneg" in lang:
        rn, ln = a.ops["rneg"], a.ops["lneg"]
        for g in range(n):
            for x in range(n):  # rneg-l, lneg-l, rneg-r, lneg-r
                one(at[g][x], at[ft[g][rn[x]]][n])
                one(at[g][x], at[ft[ln[x]][g]][n])
                one(at[ft[x][g]][n], at[g][rn[x]])
                one(at[ft[g][x]][n], at[g][ln[x]])

    for g in range(n):
        one(at[g][n], at[g][a.zero])
        if "wr" in sigma:
            for x in range(n):
                one(at[g][n], at[g][x])
    for u, v in ctx_pairs:
        for x in range(n):
            ux = ft[u][x]
            for d in ds:
                if "wl" in sigma:
                    one(at[ft[u][v]][d], at[ft[ux][v]][d])
                if "c" in sigma:
                    one(at[ft[ft[ux][x]][v]][d], at[ft[ux][v]][d])
                if "e" in sigma:
                    for y in range(n):
                        one(at[ft[ft[ux][y]][v]][d],
                            at[ft[ft[ft[u][y]][x]][v]][d])
    binary = [[] for _ in unary]
    for (i, k), conclusions in pairs.items():
        binary[i].append((1 << k, conclusions))
        binary[k].append((1 << i, conclusions))
    return facts, unary, binary


FAMILIES = ("Msl", "Ml", "PMsl", "PMl", "FL")


@functools.cache
def _members_upto_3(family):
    return tuple(a for size in (1, 2, 3)
                 for a in enumerate_algebras(VarietyId(family), size))


def _clause_set(rules):
    facts, unary, binary = rules
    return facts, list(unary), sorted((i, other, conclusions)
                                      for i, row in enumerate(binary)
                                      for other, conclusions in row)


def test_filter_rules_match_the_per_context_oracle():
    checked = 0
    for family in FAMILIES:
        lang = language_of_family(family)
        for a in _members_upto_3(family):
            for sigma in ALL_SIGMAS:
                assert _clause_set(bridge._filter_rules(a, sigma, lang)) == \
                    _clause_set(filter_rules_oracle(a, sigma, lang)), \
                    (family, a.name, sorted(sigma))
                checked += 1
    assert checked > 1000


# sha256 of the filters (in order) and the variety congruences of every
# member of size <= 3 of every (family, sigma), as computed with the
# per-context clause builder and the per-algebra compilation of the
# variety's equations.
FILTERS_DIGEST = \
    "c5ae4eb466d9fa1bcab9533924826e64c90f388558f3e7530a82105b13daaf55"


def filters_digest():
    digest = hashlib.sha256()
    for family in FAMILIES:
        lang = language_of_family(family)
        for sigma in ALL_SIGMAS:
            v = VarietyId(family, sigma)
            for size in (1, 2, 3):
                for a in enumerate_algebras(v, size):
                    filters = [(sorted(f.s1), sorted(f.s0))
                               for f in all_filters(a, sigma, lang)]
                    congruences = [c.blocks for c in k_congruences(a, v)]
                    record = [str(v), a.name, filters, congruences]
                    digest.update(repr(record).encode())
    return digest.hexdigest()


def test_filters_and_congruences_are_pinned():
    assert filters_digest() == FILTERS_DIGEST


def _random_algebra(rng, n):
    """A semilattice with every other table random, so that no law of a
    family (associativity, commutativity, residuation) holds by chance."""
    jt, _ = random_semilattice(rng, n)
    ops = {"join": jt}
    for op in BINARY_OPS[1:]:
        ops[op] = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    for op in UNARY_OPS:
        ops[op] = [rng.randrange(n) for _ in range(n)]
    return FiniteAlgebra(f"random{n}", [f"e{i}" for i in range(n)], ops,
                         rng.randrange(n), rng.randrange(n))


def test_filter_rules_match_the_per_context_oracle_on_random_tables():
    rng = random.Random(5)
    lang = Language.preset("full")
    for n in (2, 3, 4, 4):
        a = _random_algebra(rng, n)
        for sigma in ALL_SIGMAS:
            assert _clause_set(bridge._filter_rules(a, sigma, lang)) == \
                _clause_set(filter_rules_oracle(a, sigma, lang)), \
                (a.name, sorted(sigma))


# -- K-congruences against the quotients they stand for ---------------------

def k_congruences_by_quotients(a, v):
    """The congruences whose quotient algebra has the family's operations
    and passes the scan of the variety's program."""
    if not FAMILY_OPS[v.family] <= a.ops.keys():
        return []
    program = variety_program(v)
    return [c for c in all_congruences(a)
            if list(members((quotient_algebra(a, c),), program))]


def _check_k_congruences(cases):
    """Compare both routes on (algebra, variety) pairs; return how many
    gave a proper nonempty subset of the congruences."""
    proper = 0
    for a, v in cases:
        found = k_congruences(a, v)
        assert found == k_congruences_by_quotients(a, v), (a.name, str(v))
        proper += 0 < len(found) < len(all_congruences(a))
    return proper


def test_k_congruences_match_the_quotients_on_members():
    cases = [(a, VarietyId(family, sigma))
             for family in ("Msl", "PMl", "FL")
             for a in _members_upto_3(family) for sigma in ALL_SIGMAS]
    assert len(cases) == 1088
    assert _check_k_congruences(cases) > 500


def test_k_congruences_match_the_quotients_on_random_tables():
    rng = random.Random(5)
    algebras = [_random_algebra(rng, n) for n in (2, 3, 4, 4)]
    assert _check_k_congruences(
        [(a, VarietyId(family, sigma)) for a in algebras
         for family in sorted(FAMILY_OPS) for sigma in ALL_SIGMAS]) > 0


def test_k_congruences_need_every_operation_of_the_family():
    a = fixtures.chain4_min()
    assert "rneg" not in a.ops
    v = VarietyId("PMsl")
    assert k_congruences(a, v) == k_congruences_by_quotients(a, v) == []


def test_correspondence_on_non_members():
    # criterion 6 runs members only, where every congruence is a
    # K-congruence; outside the variety the Leibniz images must still be
    # exactly the K-congruences
    checked = 0
    for family in ("Msl", "Ml", "PMsl", "FL"):
        for a in _members_upto_3(family):
            for sigma in ALL_SIGMAS:
                v = VarietyId(family, sigma)
                if check_variety(a, v).ok:
                    continue
                rep = filter_congruence_correspondence(a, v)
                assert rep.ok, (a.name, str(v), rep.failures)
                checked += 1
    assert checked == 984
