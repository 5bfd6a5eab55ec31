import random

import pytest

from substrukt.syntax import Language, var
from substrukt.sequents import parse_sequent, rho, rho_prime, seq, tau
from substrukt.calculus import calculus, check_proof
from substrukt.search import (Proved, Refuted, Unknown, exchange_chain,
                              external_entails, prove, prove_with_hyps)
from substrukt.corpus import random_derivation, random_sequent

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
    # with c and wl: refutation carries the loop-check caveat
    res = P("p => q", calculus("wl,c"))
    assert isinstance(res, Refuted) and res.caveat
    # with c but no wl: closed spaces degrade to Unknown
    res = P("p => q", calculus("c"))
    assert isinstance(res, Unknown)
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


def test_external_entails():
    from substrukt.syntax import fus, meet, ONE, ZERO
    assert isinstance(external_entails(set(), ONE, FL), Proved)
    assert isinstance(external_entails({p, q}, fus(p, q), FL), Proved)
    # {p} entails p /\ 1 (adjunction-unit analogue)
    assert isinstance(external_entails({p}, meet(p, ONE), FLE), Proved)
    # refutation comes from the countermodel side
    res = external_entails(set(), ZERO, calculus("", Language.preset("core")))
    assert isinstance(res, Refuted)


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
        verdict = prove(s, cal)
        witness = countermodel(s, VarietyId("Msl"), 3)
        assert not (isinstance(verdict, Proved) and isinstance(witness, Found))


def test_unknown_names_the_limit_that_fired():
    # depth is unbounded without c: the sub-multiset cap cut this search
    goal = parse_sequent("p,p,p,p,p,p,p,p,p,p,p,q => p * (p \\/ q)")
    assert prove(goal, FLE) == Unknown("submultiset-cap")
    assert prove(parse_sequent("p * p => q"), calculus("c"),
                 bound=2) == Unknown("depth-exhausted")
    hyps = {parse_sequent("=> p")}
    res = prove_with_hyps(parse_sequent("=> q"), hyps, FL, node_cap=10)
    assert res == Unknown("depth-exhausted, node-cap")
    res = prove_with_hyps(parse_sequent("=> q"), hyps, FL)
    assert res == Unknown("depth-exhausted, antecedent-cap")
