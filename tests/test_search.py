import functools
import hashlib
import itertools
import random

import pytest

from substrukt.syntax import ZERO, Language, format_formula, fus, rimp, var
from substrukt.sequents import (mirror_sequent, parse_sequent, rho,
                                rho_prime, seq, tau, tau_equation)
from substrukt.calculus import (ProofTree, RuleId, _apply, calculus,
                                check_proof, format_proof_sexp,
                                lemma12_roundtrip, parse_proof_sexp)
from substrukt.algebra import FiniteAlgebra, VarietyId, check_variety, holds
from substrukt.bridge import Found
from substrukt.search import (Proved, Refuted, Unknown, check_verdict,
                              exchange_chain, prove, prove_with_hyps, verdict)
from substrukt.corpus import random_derivation, random_formula, random_sequent
from verdict_text import verdict_text

p, q, r = var("p"), var("q"), var("r")
FL = calculus("")
FLE = calculus("e")


def P(text, cal=FL, **kw):
    return prove(parse_sequent(text, cal.lang), cal, **kw)


def test_spec_examples():
    assert isinstance(P("p => p \\/ q"), Proved)
    assert isinstance(P("(p \\/ q) * r => (p * r) \\/ (q * r)"), Proved)
    assert isinstance(P("p => p * p"), Refuted)
    assert isinstance(P("p * q => q * p"), Refuted)
    assert isinstance(P("p * q => q * p", FLE), Proved)


def test_proofs_check_in_their_calculus():
    for sigma in ["", "e", "wl", "e,wl,wr"]:
        cal = calculus(sigma)
        res = prove(parse_sequent("p * q /\\ 1 => p * 1"), cal)
        if isinstance(res, Proved):
            assert check_proof(res.tree, cal)


def test_exchange_proofs_are_explicit():
    res = P("p * q => q * p", FLE)
    assert check_proof(res.tree, FLE)
    # the same tree must fail without the exchange rule in the calculus
    assert not check_proof(res.tree, FL)


def test_refuted_decision_without_contraction():
    assert isinstance(P("=> 0"), Refuted)
    assert isinstance(P("p => q", calculus("e,wl,wr")), Refuted)


def test_contraction_verdicts():
    # p => q fails in FL_{e,wl,c}, which is decided, so it fails in every
    # FL_sigma with c
    res = P("p => q", calculus("wl,c"))
    assert res == Refuted()
    res = P("p => q", calculus("c"))
    assert isinstance(res, Refuted)
    # FL_{wl,c} derives exchange with cut, so it proves what FL_{e,wl,c}
    # proves; the bounded search refuted this goal wrongly
    for sigma in ("wl,c", "wl,wr,c"):
        cal = calculus(sigma)
        res = P("p * q => q * p", cal)
        assert isinstance(res, Proved) and check_proof(res.tree, cal)
    # contraction proofs are still found
    assert isinstance(P("p => p * p", calculus("c")), Proved)
    assert isinstance(P("p => p * p", calculus("e,wl,wr,c")), Proved)


def test_prove_with_hyps_spec_examples():
    hyps = {parse_sequent("p => q"), parse_sequent("q => r")}
    res = prove_with_hyps(parse_sequent("p => r"), hyps, FL)
    assert isinstance(res, Proved)
    assert check_proof(res.tree, FL, hyps)

    s = parse_sequent("p, q => r")
    targets = rho(next(iter(tau(s))))
    for t in targets:
        res = prove_with_hyps(t, {s}, FL)
        assert isinstance(res, Proved)
        assert check_proof(res.tree, FL, {s})

    res = prove_with_hyps(parse_sequent("=> q"), {parse_sequent("=> p")}, FL)
    assert isinstance(res, Unknown)


def test_prove_with_hyps_requires_positive_bound():
    with pytest.raises(ValueError):
        prove_with_hyps(seq([], p), set(), FL, bound=0)


def test_hypothesis_matching_is_exact_under_contraction():
    # the duplicate-collapsing loop-check key must not leak into hypothesis
    # closure: (p, p => q) is not the hypothesis (p, p, p => q)
    cal = calculus("c")
    hyp = seq([p, p, p], q)
    res = prove_with_hyps(seq([p, p], q), {hyp}, cal, bound=4)
    if isinstance(res, Proved):
        assert check_proof(res.tree, cal, {hyp})
    # the hypothesis itself still closes immediately
    res2 = prove_with_hyps(hyp, {hyp}, cal, bound=2)
    assert isinstance(res2, Proved)
    assert check_proof(res2.tree, cal, {hyp})


def test_hilbert_style_consequence_through_verdict():
    # premises and conclusion as theoremhood sequents
    from substrukt.syntax import fus, meet, ONE, ZERO
    assert isinstance(verdict(rho_prime(ONE), FL), Proved)
    assert isinstance(verdict(rho_prime(fus(p, q)), FL,
                              {rho_prime(p), rho_prime(q)}), Proved)
    # {p} entails p /\ 1 (adjunction-unit analogue)
    assert isinstance(verdict(rho_prime(meet(p, ONE)), FLE, {rho_prime(p)}),
                      Proved)
    # refutation comes from the countermodel side
    res = verdict(rho_prime(ZERO), calculus("", Language.preset("core")),
                  max_size=4)
    assert isinstance(res, Refuted) and res.countermodel is not None


def test_monotone_in_sigma():
    rng = random.Random(17)
    small = [random_derivation(rng, FL, height=4).conclusion
             for _ in range(25)]
    bigger = calculus("e,wl")
    for s in small:
        if isinstance(prove(s, FL), Proved):
            assert isinstance(prove(s, bigger), Proved)


def test_cut_admissibility_spot_check():
    # anything proved with hypotheses-and-cut from nothing is cut-free provable
    rng = random.Random(23)
    for _ in range(25):
        s = random_sequent(rng, depth=2)
        with_cut = prove_with_hyps(s, set(), FL, bound=6, node_cap=10_000)
        if isinstance(with_cut, Proved):
            assert isinstance(prove(s, FL), Proved)


ABSORBING_GOALS = ("p, 0 => 0", "p, 0 =>", "0, p =>")


@pytest.mark.parametrize("sigma", ["wr", "e,wr"])
def test_no_plain_refutation_under_wr_without_wl(sigma):
    # with an implication or a negation, 0 absorbs in every FL_wr-algebra
    # and cut is not admissible: the goals hold in K but have no cut-free
    # proof, so neither prove nor verdict refutes them
    for preset in ("full", "core-neg", "core-meet-neg"):
        cal = calculus(sigma, Language.preset(preset))
        for text in ABSORBING_GOALS:
            goal = parse_sequent(text)
            assert isinstance(prove(goal, cal), Unknown), (preset, text)
            assert isinstance(verdict(goal, cal, max_size=3), Unknown)
    # without them, the two-element member with 0 = 1 at the bottom
    # refutes each goal
    for preset in ("core", "core-meet"):
        cal = calculus(sigma, Language.preset(preset))
        for text in ABSORBING_GOALS:
            goal = parse_sequent(text)
            assert isinstance(prove(goal, cal), Refuted), (preset, text)
            found = verdict(goal, cal, max_size=3)
            assert isinstance(found, Refuted) and found.countermodel


def test_zero_absorbs_with_cut_under_wr():
    weakened = _apply(RuleId.WEAK_R, (rimp(p, ZERO),),
                      ProofTree(seq([ZERO]), RuleId.ZERO_L))
    used = _apply(RuleId.RIMP_L, (0,), ProofTree(seq([p], p), RuleId.AXIOM),
                  ProofTree(seq([ZERO], ZERO), RuleId.AXIOM))
    tree = _apply(RuleId.CUT, (1,), weakened, used)
    assert [weakened.conclusion, used.conclusion, tree.conclusion] == \
        [parse_sequent(t) for t in ("0 => p \\ 0", "p, p \\ 0 => 0",
                                    "p, 0 => 0")]
    assert check_proof(tree, calculus("wr"))
    assert check_proof(tree, calculus("e,wr"))
    assert not check_proof(tree, FL)


def test_exchange_chain():
    from substrukt.calculus import ProofTree, RuleId
    base = random_derivation(random.Random(1), FLE, height=3)
    ant = base.conclusion.antecedent
    if len(ant) >= 2:
        target = tuple(reversed(ant))
        moved = exchange_chain(base, target)
        assert moved.conclusion.antecedent == target
        assert check_proof(moved, FLE)


def test_agreement_with_countermodels():
    from substrukt.algebra import VarietyId
    from substrukt.bridge import countermodel, Found
    rng = random.Random(4)
    lang = Language.preset("core")
    cal = calculus("", lang)
    for _ in range(40):
        s = random_sequent(rng, depth=2, lang=lang)
        result = prove(s, cal)
        witness = countermodel(s, VarietyId("Msl"), 3)
        assert not (isinstance(result, Proved) and isinstance(witness, Found))


def test_unknown_names_the_limit_that_fired():
    # depth is unbounded without c: the sub-multiset cap cut this search
    goal = parse_sequent("p,p,p,p,p,p,p,p,p,p,p,q => p * (p \\/ q)")
    assert prove(goal, FLE) == Unknown("submultiset-cap")
    assert prove(parse_sequent("p * p => q"), calculus("c"),
                 bound=2) == Refuted()
    assert prove(parse_sequent("p * p => p"), calculus("c"),
                 bound=2) == Unknown("depth-exhausted")
    hyps = {parse_sequent("=> p")}
    res = prove_with_hyps(parse_sequent("=> q"), hyps, FL, node_cap=10)
    assert res == Unknown("depth-exhausted, node-cap")
    res = prove_with_hyps(parse_sequent("=> q"), hyps, FL)
    assert res == Unknown("depth-exhausted, antecedent-cap")


# ---------------------------------------------------------------------------
# Every sigma with contraction
# ---------------------------------------------------------------------------

ALL_SIGMAS = [frozenset(c) for k in range(5)
              for c in itertools.combinations(("e", "wl", "wr", "c"), k)]
DECIDED = frozenset({"e", "wl", "c"})
FRAGMENTS = ("core", "core-meet", "core-neg", "full")


@functools.cache
def _contraction_verdicts():
    """{(language, goal index): (goal, {sigma: verdict})} on a seeded corpus,
    every sigma; the bounded search runs at depth 4."""
    rng = random.Random(31)
    out = {}
    for preset in FRAGMENTS:
        lang = Language.preset(preset)
        for k in range(40):
            goal = random_sequent(rng, depth=rng.choice((2, 3)), lang=lang,
                                  max_antecedent=3)
            out[preset, k] = goal, {
                sigma: prove(goal, calculus(sigma, lang), bound=4)
                for sigma in ALL_SIGMAS}
    return out


def test_contraction_proofs_check():
    for (preset, _), (goal, verdicts) in _contraction_verdicts().items():
        for sigma, res in verdicts.items():
            if isinstance(res, Proved):
                cal = calculus(sigma, Language.preset(preset))
                assert res.tree.conclusion == goal
                assert check_proof(res.tree, cal), (goal, sigma)


def _assert_monotone(goal, verdicts):
    """No goal is Proved under sigma and Refuted under a sigma' above it:
    an FL_sigma proof is an FL_sigma' proof."""
    for sigma, res in verdicts.items():
        if not isinstance(res, Refuted):
            continue
        for smaller in ALL_SIGMAS:
            if smaller <= sigma:
                assert not isinstance(verdicts[smaller], Proved), \
                    (goal, sorted(smaller), sorted(sigma))


def test_verdicts_are_monotone_in_sigma():
    for goal, verdicts in _contraction_verdicts().values():
        _assert_monotone(goal, verdicts)


def _contracted_fusion(tree):
    """From an FL_c derivation of Gamma => delta, Gamma two formulas or
    more, one of prod Gamma => delta * delta: fus-r on two copies, fus-l
    down to two copies of prod Gamma, then contr-l on that fusion."""
    m = len(tree.conclusion.antecedent)
    tree = _apply(RuleId.FUS_R, (), tree, tree)
    for i in (0, 1):
        for _ in range(m - 1):
            tree = _apply(RuleId.FUS_L, (i,), tree)
    return _apply(RuleId.CONTR_L, (0,), tree)


def _cross_sigma_goals():
    """Goals whose proofs contract a fused formula before splitting it:
    phi => phi * phi, phi * psi => psi * phi, and the conclusions of FL_c
    derivations that contract a fusion of their antecedent."""
    core = Language.preset("core")
    rng = random.Random(15)
    phis = [random_formula(rng, 2, lang=core) for _ in range(12)]
    goals = [seq([phi], fus(phi, phi)) for phi in phis]
    goals += [seq([fus(phi, psi)], fus(psi, phi))
              for phi, psi in zip(phis, phis[1:])]
    fl_c = calculus("c", core)
    while len(goals) < 35:
        tree = random_derivation(rng, fl_c, height=3)
        s = tree.conclusion
        if len(s.antecedent) >= 2 and s.succedent is not None:
            tree = _contracted_fusion(tree)
            assert check_proof(tree, fl_c)
            goals.append(tree.conclusion)
    return goals


def test_no_goal_is_proved_below_a_sigma_that_refutes_it():
    # when the bounded search decided wl,c, it refuted four of the FL_c
    # derivations under wl,c and wl,wr,c, which c proves
    core = Language.preset("core")
    for goal in _cross_sigma_goals():
        verdicts = {}
        for sigma in ALL_SIGMAS:
            cal = calculus(sigma, core)
            res = verdicts[sigma] = prove(goal, cal)
            if isinstance(res, Proved):
                assert check_proof(res.tree, cal), (goal, sorted(sigma))
        _assert_monotone(goal, verdicts)
        # FL_{wl,c} proves what FL_{e,wl,c} proves
        for sigma in (DECIDED, DECIDED | {"wr"}):
            assert type(verdicts[sigma]) is type(verdicts[sigma - {"e"}])


def test_exchange_without_e_is_a_cut():
    # no rule of FL_{wl,c} puts r before q, so a proof needs cut
    goal = parse_sequent("q, r => r * q")
    for sigma in ("wl,c", "wl,wr,c"):
        cal = calculus(sigma)
        res = prove(goal, cal)
        assert isinstance(res, Proved) and check_proof(res.tree, cal)
        assert "(cut " in format_proof_sexp(res.tree)
        # the swap proof weakens on the left: FL_c rejects the tree
        assert check_proof(res.tree, calculus("c")).reason == \
            "rule-not-in-calculus: weak-l"


def test_sigma_with_e_wl_c_is_decided():
    from substrukt.algebra import VarietyId, family_of_language
    from substrukt.bridge import Found, countermodel
    for (preset, _), (goal, verdicts) in _contraction_verdicts().items():
        lang = Language.preset(preset)
        for sigma, res in verdicts.items():
            if not DECIDED <= sigma:
                continue
            assert isinstance(res, (Proved, Refuted)), (goal, sigma)
            variety = VarietyId(family_of_language(lang), sigma)
            witness = countermodel(goal, variety, 3)
            assert not (isinstance(res, Proved) and isinstance(witness, Found))
            if preset in ("core", "core-meet"):
                # there the algebras are distributive lattices with two
                # constants, subdirect products of two-element ones: a
                # refuted goal fails in one of size 2
                assert isinstance(res, Proved) == \
                    (not isinstance(countermodel(goal, variety, 2), Found))


@pytest.mark.parametrize("sigma", ["wl,c", "e,wl,c", "e,wl,wr,c"])
def test_weakened_copies_are_not_cut_by_the_loop_check(sigma):
    # below q, q, q => q the goal q, q => q (one copy weakened away) has
    # the same duplicate-collapsed key; cutting it refuted this sequent
    cal = calculus(sigma)
    res = P("q * (1 \\/ q) * (q * q \\/ (r \\/ r)) => q", cal)
    assert isinstance(res, Proved)
    assert check_proof(res.tree, cal)


def test_deepening_closes_when_one_iteration_does():
    # a failure that hit the depth bound under one set of ancestors is cut
    # by the loop check under another; kept across iterations, such
    # failures kept every deepening iteration from closing on this goal.
    # `prove` decides wl,c on sets, so the bounded search runs directly
    from substrukt.search import _BOUNDED, _Search, _deepening
    from substrukt.sequents import encode_sequents
    goal = ("(1 \\/ q \\/ (p \\/ 0)) * (1 * 1 * (1 \\/ 0)), "
            "(1 \\/ 1) * (0 * 1) * q => (p \\/ q) * (0 \\/ r) \\/ p * r * 0")
    table, (encoded,) = encode_sequents((parse_sequent(goal),))
    search = _Search(calculus("wl,c"), table)
    record, flags = _deepening(search, search.canon(encoded), 24)
    assert record is None and not flags & _BOUNDED


# The sha256 of the verdicts and proofs below, as the search gave them
# before `solve` committed to its invertible instance without enumerating
# the others.  A change to the search that moves it changed some proof.
PROOF_DIGEST = ("09b1a56370823aa2bb471910b6d701f8"
                "db6ccbb7d2277d5c57e2864b5d6fa0cf")


def _proof_corpus():
    """About 400 (goal, calculus) pairs: random goals in core and full
    under the sigmas without c, and mirrored random derivations."""
    rng = random.Random(20261018)
    sigmas = ("", "e", "wl", "wl,wr")
    goals = []
    for preset in ("core", "full"):
        lang = Language.preset(preset)
        for sigma in sigmas:
            cal = calculus(sigma, lang)
            goals += [(random_sequent(rng, depth=3, lang=lang), cal)
                      for _ in range(45)]
    for sigma in sigmas:
        cal = calculus(sigma)
        goals += [(mirror_sequent(random_derivation(rng, cal).conclusion), cal)
                  for _ in range(10)]
    return goals


def _proof_digest():
    digest = hashlib.sha256()
    for goal, cal in _proof_corpus():
        res = prove(goal, cal)
        if isinstance(res, Proved):
            assert check_proof(res.tree, cal)
        digest.update(f"{goal}\t{verdict_text(res)}\n".encode())
    return digest.hexdigest()


def test_proofs_are_pinned():
    assert len(_proof_corpus()) == 400
    assert _proof_digest() == PROOF_DIGEST


# The sha256 of (rule, data) at every node of the proofs above, of
# lemma12_roundtrip proofs (which contain cut) and of random derivations
# under every sigma, each printed and read back by `parse_proof_sexp`, as
# it inferred the data before it read them off the backward enumerator.
PARSED_DATA_DIGEST = ("cf7c2b03c99cd971aaf275e9dffd2e2f"
                      "838616ca2585dabd2555b49a8f07cb71")

SIGMAS = ["".join(c) for k in range(5)
          for c in itertools.combinations(("e,", "wl,", "wr,", "c,"), k)]


def _node_data(tree):
    """(rule, data) of every node of a proof in preorder, one line each."""
    lines, stack = [], [tree]
    while stack:
        node = stack.pop()
        data = [x if isinstance(x, int) else format_formula(x)
                for x in node.data]
        lines.append(f"{node.rule.label}\t{data}\n")
        stack.extend(reversed(node.premises))
    return lines


def test_parsed_proof_data_is_pinned():
    trees = []
    for goal, cal in _proof_corpus():
        res = prove(goal, cal)
        if isinstance(res, Proved):
            trees.append(res.tree)
    rng = random.Random(20261019)
    sequents = [parse_sequent(text) for text in
                ("p, q => r", "p =>", "=>", "=> p \\/ q", "p, p, q =>")]
    sequents += [random_sequent(rng, depth=2, max_antecedent=3)
                 for _ in range(20)]
    for s in sequents:
        forward, backward = lemma12_roundtrip(s)
        trees += forward + [backward]
    for sigma in SIGMAS:
        cal = calculus(sigma)
        trees += [random_derivation(rng, cal, height=4) for _ in range(4)]
    for text in ("p => p * p", "p * q => (p * q) * (p * q)"):
        for sigma in ("c", "e,wl,c"):
            trees.append(P(text, calculus(sigma)).tree)
    digest, rules = hashlib.sha256(), set()
    for tree in trees:
        back = parse_proof_sexp(format_proof_sexp(tree))
        assert back.conclusion == tree.conclusion
        for line in _node_data(back):
            rules.add(line.split("\t")[0])
            digest.update(line.encode())
    assert {"cut", "exch-l", "weak-l", "contr-l"} <= rules
    assert digest.hexdigest() == PARSED_DATA_DIGEST


# ---------------------------------------------------------------------------
# Countermodel refutations in the bounded regime
# ---------------------------------------------------------------------------

BOUNDED_SIGMAS = ("c", "e,c", "wl,c", "wr,c", "e,wr,c")

# The sha256 of the proofs of every goal below that `prove` proved under
# the sigmas without wl, the bounded regime, as the search gave them before
# that regime looked for countermodels.  A countermodel refutes only
# unprovable goals, so it must not move.
BOUNDED_PROOF_DIGEST = ("7d06faaa2755cc3fadebf2f9ed263ff0"
                        "54be5fc0b190b2215c911f09cfcdb913")
# The same of the proofs under wl,c, decided on antecedent sets, with each
# exchange step replaced by cuts.
WL_C_PROOF_DIGEST = ("8f17e4b6d0fe260bb73896b4c901dc03"
                     "c2491cd167403e90a61733441f7d0102")


@functools.cache
def _bounded_verdicts():
    """{sigma: [(goal, verdict)]} on a seeded core corpus: 40 random goals,
    the same under every sigma, then 8 random derivations per sigma."""
    lang = Language.preset("core")
    rng = random.Random(9)
    goals = [random_sequent(rng, depth=rng.choice((2, 3)), lang=lang,
                            max_antecedent=3) for _ in range(40)]
    derived = {sigma: [random_derivation(rng, calculus(sigma, lang),
                                         height=4).conclusion
                       for _ in range(8)]
               for sigma in BOUNDED_SIGMAS}
    out = {}
    for sigma in BOUNDED_SIGMAS:
        cal = calculus(sigma, lang)
        out[sigma] = [(goal, prove(goal, cal))
                      for goal in goals + derived[sigma]]
    return out


def test_bounded_proofs_are_pinned():
    digests = {"bounded": hashlib.sha256(), "sets": hashlib.sha256()}
    proved = 0
    goal_lang = Language.preset("core")
    for sigma, verdicts in _bounded_verdicts().items():
        digest = digests["sets" if sigma == "wl,c" else "bounded"]
        for goal, res in verdicts:
            if isinstance(res, Proved):
                proved += 1
                assert check_proof(res.tree, calculus(sigma, goal_lang))
                digest.update(f"{sigma}\t{goal}\t"
                              f"{format_proof_sexp(res.tree)}\n".encode())
    assert proved == 53
    assert digests["bounded"].hexdigest() == BOUNDED_PROOF_DIGEST
    assert digests["sets"].hexdigest() == WL_C_PROOF_DIGEST


def test_countermodel_refutations_are_checked():
    from substrukt.algebra import VarietyId, check_variety, holds
    from substrukt.calculus import CalculusId
    from substrukt.sequents import encode_sequents, tau_equation
    from substrukt.search import _Search, _deepening
    refuted = {}
    for sigma, verdicts in _bounded_verdicts().items():
        cal = calculus(sigma, Language.preset("core"))
        variety = VarietyId("Msl", cal.sigma)
        for goal, res in verdicts:
            if not isinstance(res, Refuted) or res.countermodel is None:
                continue
            refuted[sigma] = refuted.get(sigma, 0) + 1
            a = res.countermodel.algebra
            assert a.n <= 3 and check_variety(a, variety).ok
            values = {name: a.elements.index(element)
                      for name, element in res.countermodel.assignment.items()}
            assert not holds(a, tau_equation(goal), values)
            # neither the bounded search nor FL_{sigma - c} proves it; under
            # sigma = {c} the search does not commit to invertible rules and
            # runs for minutes at bound 12, so a node cap ends it
            table, (encoded,) = encode_sequents((goal,))
            search = _Search(cal, table)
            search.node_cap = 5_000
            assert _deepening(search, search.canon(encoded), 12)[0] is None
            lower = _Search(CalculusId(cal.sigma - {"c"}, cal.lang), table)
            assert _deepening(lower, lower.canon(encoded), 10 ** 9)[0] is None
    assert refuted == {"c": 11, "e,c": 11, "wr,c": 14, "e,wr,c": 14}


def test_a_language_without_a_variety_skips_the_countermodel():
    core = Language.preset("core")
    res = prove(parse_sequent("p, p => p", core), calculus("c", core), bound=4)
    assert isinstance(res, Refuted) and res.countermodel.algebra.n == 3
    # join, fusion and the implications: no named family has these
    lang = Language.of("rimp", "limp")
    res = prove(parse_sequent("p, p => p", lang), calculus("c", lang), bound=4)
    assert isinstance(res, Unknown)


# -- verdict and its kernel re-check ----------------------------------------

CORE = Language.preset("core")
CORE_FL = calculus("", CORE)


def _values(found):
    a = found.algebra
    return {name: a.elements.index(element)
            for name, element in found.assignment.items()}


def _assignments(a, names):
    for values in itertools.product(range(a.n), repeat=len(names)):
        yield dict(zip(names, values))


def _with_assignment(found, values):
    a = found.algebra
    return Refuted(countermodel=Found(
        a, {name: a.elements[i] for name, i in values.items()}))


def test_prove_rejects_a_bound_below_one():
    # the empty deepening loop closed with no flag: p => p was Refuted
    for sigma in ("", "e,wl,c", "c"):
        with pytest.raises(ValueError):
            prove(parse_sequent("p => p"), calculus(sigma), bound=0)
    assert isinstance(prove(parse_sequent("p => p"), FL, bound=1), Proved)


def test_the_bound_acts_only_in_the_bounded_regime():
    # the proof without c is two steps deep; the decided sigma ignore bound
    goal = parse_sequent("p, q => q * p \\/ p * q")
    for sigma in ("", "e", "wl,c"):
        cal = calculus(sigma)
        res = prove(goal, cal, bound=1)
        assert isinstance(res, Proved) and res == prove(goal, cal)
    contracted = parse_sequent("p => p * p")
    assert isinstance(prove(contracted, calculus("c")), Proved)
    assert prove(contracted, calculus("c"), bound=1) == \
        Unknown("depth-exhausted")


def test_verdict_refutes_a_consequence_with_a_checked_countermodel():
    goal = parse_sequent("q => p", CORE)
    hyps = {parse_sequent("p => q", CORE)}
    # the bounded search with cut never refutes
    assert isinstance(prove_with_hyps(goal, hyps, CORE_FL), Unknown)
    res = verdict(goal, CORE_FL, hyps, max_size=4)
    assert isinstance(res, Refuted)
    a, values = res.countermodel.algebra, _values(res.countermodel)
    assert check_variety(a, VarietyId("Msl")).ok
    assert holds(a, tau_equation(*hyps), values)
    assert not holds(a, tau_equation(goal), values)
    # no scan: the search's own verdict, with its reason
    assert verdict(goal, CORE_FL, hyps) == prove_with_hyps(goal, hyps, CORE_FL)


def test_verdict_scans_only_where_the_search_has_no_countermodel():
    # decided, then a countermodel of the scan
    res = verdict(parse_sequent("p => p * p", CORE), CORE_FL, max_size=4)
    assert isinstance(res, Refuted) and res.countermodel.algebra.n == 3
    # no scan below the smallest countermodel, nor without max_size
    for size in (None, 2):
        assert verdict(parse_sequent("p => p * p", CORE), CORE_FL,
                       max_size=size) == Refuted()
    # the bounded regime's countermodel is kept, above max_size too
    res = verdict(parse_sequent("p, p => p", CORE), calculus("c", CORE),
                  max_size=1, bound=4)
    assert res.countermodel.algebra.n == 3
    # a language that names no variety is not scanned
    lang = Language.of("meet", "rneg")
    assert verdict(parse_sequent("p => q", lang), calculus("", lang),
                   max_size=4) == Refuted()


def _refutation(goal_text, hyp_texts=()):
    goal = parse_sequent(goal_text, CORE)
    hyps = frozenset(parse_sequent(h, CORE) for h in hyp_texts)
    res = verdict(goal, CORE_FL, hyps, max_size=4)
    assert res.countermodel is not None
    return goal, hyps, res.countermodel


def test_check_verdict_rejects_a_proof_with_a_premise_swapped():
    goal = parse_sequent("(p \\/ q) * r => (p * r) \\/ (q * r)")
    tree = verdict(goal, FL).tree
    other = prove(parse_sequent("q => q"), FL).tree
    assert tree.premises and tree.premises[0].conclusion != other.conclusion
    bad = ProofTree(tree.conclusion, tree.rule,
                    (other,) + tree.premises[1:], tree.data)
    with pytest.raises(RuntimeError):
        check_verdict(goal, FL, Proved(bad))
    assert check_verdict(goal, FL, Proved(tree)) == Proved(tree)


def test_check_verdict_rejects_a_proof_of_another_sequent():
    proved = verdict(parse_sequent("p => p \\/ q"), FL)
    with pytest.raises(RuntimeError):
        check_verdict(parse_sequent("q => p \\/ q"), FL, proved)
    # a hypothesis leaf needs its hypothesis
    hyps = {parse_sequent("p => q")}
    proved = verdict(parse_sequent("p => q \\/ r"), FL, hyps)
    assert isinstance(proved, Proved)
    with pytest.raises(RuntimeError):
        check_verdict(parse_sequent("p => q \\/ r"), FL, proved)


def test_check_verdict_rejects_a_countermodel_outside_the_variety():
    goal, _, found = _refutation("p => p * p")
    a = found.algebra
    variety = VarietyId("Msl")
    mutants = 0
    for x, y, z in itertools.product(range(a.n), repeat=3):
        fus_table = [list(row) for row in a.ops["fus"]]
        if fus_table[x][y] == z:
            continue
        fus_table[x][y] = z
        b = FiniteAlgebra(a.name, a.elements, dict(a.ops, fus=fus_table),
                          a.zero, a.one)
        if check_variety(b, variety).ok or \
                holds(b, tau_equation(goal), _values(found)):
            continue
        mutants += 1
        with pytest.raises(RuntimeError):
            check_verdict(goal, CORE_FL,
                          Refuted(countermodel=Found(b, found.assignment)))
    assert mutants
    assert check_verdict(goal, CORE_FL, Refuted(found)).countermodel is found


def test_check_verdict_rejects_an_assignment_that_satisfies_the_goal():
    goal, _, found = _refutation("p => p * p")
    a = found.algebra
    kept = [v for v in _assignments(a, ["p"])
            if holds(a, tau_equation(goal), v)]
    assert kept
    for values in kept:
        with pytest.raises(RuntimeError):
            check_verdict(goal, CORE_FL, _with_assignment(found, values))


def test_check_verdict_rejects_a_countermodel_that_fails_a_hypothesis():
    goal, hyps, found = _refutation("q => p", ["q => r"])
    a = found.algebra
    bad = [v for v in _assignments(a, ["p", "q", "r"])
           if not holds(a, tau_equation(goal), v)
           and not holds(a, tau_equation(*hyps), v)]
    assert bad
    for values in bad:
        with pytest.raises(RuntimeError):
            check_verdict(goal, CORE_FL, _with_assignment(found, values),
                          hyps)
    # without the hypothesis the same assignments refute the goal
    check_verdict(goal, CORE_FL, _with_assignment(found, bad[0]))


def test_check_verdict_rejects_a_plain_refutation_with_hypotheses():
    goal, hyp = parse_sequent("q => p", CORE), parse_sequent("p => q", CORE)
    with pytest.raises(RuntimeError):
        check_verdict(goal, CORE_FL, Refuted(), {hyp})
    assert check_verdict(goal, CORE_FL, Refuted()) == Refuted()
    assert check_verdict(goal, CORE_FL, Unknown("node-cap"),
                         {goal}) == Unknown("node-cap")
