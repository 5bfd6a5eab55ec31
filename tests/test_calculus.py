import random
import sys

import pytest

from substrukt.syntax import (Language, Neg, ZERO, ONE, check_language, fus,
                              join, meet, rimp, var)
from substrukt.sequents import (Sequent, mirror_sequent, parse_sequent, rho,
                                seq, tau)
from substrukt.calculus import (CalculusId, ProofTree, RuleId, _apply, calculus,
                                check_proof, derive_conclusion,
                                format_proof_sexp, lemma10_forward, lemma11,
                                lemma12_backward, lemma12_forward_main,
                                lemma12_roundtrip, mirror_proof,
                                parse_proof_sexp, parse_sigma, postorder,
                                rule_instances_backward, rules_of)
from substrukt.corpus import random_derivation

p, q, r = var("p"), var("q"), var("r")
FL = calculus("")
FLE = calculus("e")


def test_parse_sigma():
    assert parse_sigma("e,wl") == {"e", "wl"}
    assert parse_sigma("w") == {"wl", "wr"}
    assert parse_sigma("") == frozenset()
    with pytest.raises(ValueError):
        parse_sigma("x")


def test_rule_sets():
    core_rules = rules_of(calculus("", Language.preset("core")))
    assert RuleId.OR_L in core_rules and RuleId.FUS_R in core_rules
    assert RuleId.RIMP_L not in core_rules
    assert RuleId.WEAK_L not in core_rules
    assert RuleId.ZERO_R in core_rules  # kept in every calculus
    extended = rules_of(calculus("wl,wr", Language.preset("core")))
    assert RuleId.WEAK_L in extended and RuleId.WEAK_R in extended
    assert RuleId.ZERO_R in extended  # retained alongside (=>w)


def test_axiom_accepts():
    t = ProofTree(seq([p], p), RuleId.AXIOM)
    assert check_proof(t, FL)
    assert check_proof(t, calculus("e,wl,wr,c"))


def test_or_r1_over_one_r():
    leaf = ProofTree(seq([], ONE), RuleId.ONE_R)
    t = ProofTree(seq([], join(ONE, p)), RuleId.OR_R1, (leaf,), (p,))
    assert check_proof(t, FL)


def test_rule_not_in_calculus():
    inner = ProofTree(seq([p, p], fus(p, p)), RuleId.FUS_R,
                      (ProofTree(seq([p], p), RuleId.AXIOM),
                       ProofTree(seq([p], p), RuleId.AXIOM)), ())
    t = ProofTree(seq([p], fus(p, p)), RuleId.CONTR_L, (inner,), (0,))
    res = check_proof(t, FL)
    assert not res and "rule-not-in-calculus" in res.reason
    assert check_proof(t, calculus("c"))


def test_instance_mismatch_and_arity():
    bad = ProofTree(seq([p], join(p, q)), RuleId.OR_R1,
                    (ProofTree(seq([p], p), RuleId.AXIOM),), (r,))
    res = check_proof(bad, FL)
    assert not res and "instance mismatch" in res.reason
    bad2 = ProofTree(seq([p], p), RuleId.CUT, (), (0,))
    assert "arity" in check_proof(bad2, FL).reason


def test_hypothesis_declaration():
    t = ProofTree(seq([p], q), RuleId.HYPOTHESIS)
    assert not check_proof(t, FL)
    assert "hypothesis-not-declared" in check_proof(t, FL).reason
    assert check_proof(t, FL, {seq([p], q)})


def test_backward_includes_expected_instances():
    goal = seq([p, q], fus(p, q))
    found = rule_instances_backward(goal, FL)
    assert (RuleId.FUS_R, (), (seq([p], p), seq([q], q))) in found
    assert rule_instances_backward(seq([], ONE), FL) == [(RuleId.ONE_R, (), ())]
    zl = rule_instances_backward(seq([ZERO], None), FL)
    assert (RuleId.ZERO_L, (), ()) in zl


def test_backward_soundness():
    from substrukt.calculus import check_leaf
    rng = random.Random(5)
    for _ in range(60):
        tree = random_derivation(rng, FLE, height=4)
        goal = tree.conclusion
        for rule, data, prems in rule_instances_backward(goal, FLE):
            if rule.arity == 0:
                assert prems == () and check_leaf(rule, goal, set()) is None
            else:
                assert derive_conclusion(rule, data, prems) == goal


def test_backward_one_step_completeness():
    # forward-generate rule instances and invert them
    rng = random.Random(9)
    cal = calculus("e,wl,wr,c")
    for _ in range(120):
        tree = random_derivation(rng, cal, height=4)
        if tree.rule in (RuleId.AXIOM, RuleId.ONE_R, RuleId.ZERO_L,
                         RuleId.CUT, RuleId.HYPOTHESIS):
            continue
        prems = tuple(pr.conclusion for pr in tree.premises)
        found = rule_instances_backward(tree.conclusion, cal)
        assert (tree.rule, tree.data, prems) in found, tree.rule


def test_mirror_closure_of_rule_instances():
    # Lemma 2: the mirror of an instance is an instance of the partner rule
    rng = random.Random(11)
    cal = calculus("e,wl,wr,c")
    partner = {RuleId.RIMP_L: RuleId.LIMP_L, RuleId.LIMP_L: RuleId.RIMP_L,
               RuleId.RIMP_R: RuleId.LIMP_R, RuleId.LIMP_R: RuleId.RIMP_R,
               RuleId.RNEG_L: RuleId.LNEG_L, RuleId.LNEG_L: RuleId.RNEG_L,
               RuleId.RNEG_R: RuleId.LNEG_R, RuleId.LNEG_R: RuleId.RNEG_R}
    structural_or_additive = {RuleId.AXIOM, RuleId.ONE_R, RuleId.ZERO_L,
                              RuleId.OR_L, RuleId.OR_R1, RuleId.OR_R2,
                              RuleId.AND_L1, RuleId.AND_L2, RuleId.AND_R,
                              RuleId.FUS_L, RuleId.FUS_R, RuleId.ONE_L,
                              RuleId.ZERO_R, RuleId.EXCH_L, RuleId.WEAK_L,
                              RuleId.WEAK_R, RuleId.CONTR_L, RuleId.CUT}
    for _ in range(150):
        tree = random_derivation(rng, cal, height=4)
        m = mirror_proof(tree)
        assert check_proof(m, cal)
        expected = partner.get(tree.rule, tree.rule)
        assert m.rule == expected
        if tree.rule in structural_or_additive:
            assert m.rule == tree.rule


def test_mirror_proof_conclusion():
    rng = random.Random(3)
    for _ in range(40):
        tree = random_derivation(rng, FL, height=5)
        m = mirror_proof(tree)
        assert m.conclusion == mirror_sequent(tree.conclusion)
        assert mirror_proof(m).conclusion == tree.conclusion


def test_lemma11_tree():
    t = lemma11([p, q])
    assert t.conclusion == seq([p, q], fus(p, q))
    assert t.rule == RuleId.FUS_R
    assert check_proof(t, FL)
    assert lemma11([]).conclusion == seq([], ONE)


def test_lemma10_forward_shape():
    t = lemma10_forward(p, q)
    assert t.conclusion == seq([join(p, q)], q)
    assert check_proof(t, FL, {seq([p], q)})


def test_lemma12_examples():
    # forward: (p \/ q => q) from the hypothesis (p => q)
    s = seq([p], q)
    t = lemma12_forward_main(s)
    assert t.conclusion == seq([join(p, q)], q)
    assert check_proof(t, FL, {s})
    # backward for an empty succedent uses (0 =>) and Cut
    s2 = seq([p], None)
    t2 = lemma12_backward(s2)
    assert t2.conclusion == s2
    hyps = rho(next(iter(tau(s2))))
    assert check_proof(t2, FL, hyps)
    rules_used = set()

    def collect(node):
        rules_used.add(node.rule)
        for pr in node.premises:
            collect(pr)
    collect(t2)
    assert RuleId.ZERO_L in rules_used and RuleId.CUT in rules_used


@pytest.mark.parametrize("text", ["p, q => r", "p =>", "=>", "=> p \\/ q",
                                  "p, p, q =>"])
def test_lemma12_roundtrip(text):
    from substrukt.sequents import parse_sequent
    s = parse_sequent(text)
    forward, backward = lemma12_roundtrip(s)
    expected = rho(next(iter(tau(s))))
    assert {t.conclusion for t in forward} == expected
    for t in forward:
        assert check_proof(t, FL, {s})
    assert backward.conclusion == s
    assert check_proof(backward, FL, expected)


def test_sexp_roundtrip():
    rng = random.Random(21)
    for _ in range(30):
        tree = random_derivation(rng, FLE, height=4)
        text = format_proof_sexp(tree)
        back = parse_proof_sexp(text)
        assert back.conclusion == tree.conclusion
        assert check_proof(back, FLE)


# ---------------------------------------------------------------------------
# check_proof and format_proof_sexp walk each formula object once
# ---------------------------------------------------------------------------

CORE_E = calculus("e", Language.preset("core"))


def _exchanges(tree, steps):
    """`steps` exch-l steps below `tree`, each swapping the first two
    antecedent formulas back."""
    for _ in range(steps):
        a = tree.conclusion.antecedent
        tree = ProofTree(Sequent((a[1], a[0]) + a[2:],
                                 tree.conclusion.succedent),
                         RuleId.EXCH_L, (tree,), (0,))
    return tree


def _cut_below_exchanges(steps, chi, chi_copy):
    """p, q => p * q by cut on chi from two undischarged premises
    (p, q => chi and chi_copy => p * q, as Hypothesis leaves), below
    `steps` exchanges that share the formula objects p, q and p * q."""
    pq = fus(p, q)
    cut = ProofTree(seq([p, q], pq), RuleId.CUT,
                    (ProofTree(seq([p, q], chi), RuleId.HYPOTHESIS),
                     ProofTree(seq([chi_copy], pq), RuleId.HYPOTHESIS)),
                    (0,))
    return _exchanges(cut, steps)


def _result(res):
    return res.ok, res.reason, res.path, res.node


def _count_language_checks(monkeypatch):
    """The formula objects check_proof hands to check_language, in order."""
    checked = []

    def counting(f, lang):
        checked.append(f)
        return check_language(f, lang)

    monkeypatch.setattr(sys.modules["substrukt.calculus"], "check_language",
                        counting)
    return checked


def test_check_proof_rejects_the_first_deep_node_outside_the_language(
        monkeypatch):
    chi = Neg("rneg", p)
    tree = _cut_below_exchanges(40, chi, Neg("rneg", p))
    checked = _count_language_checks(monkeypatch)
    assert _result(check_proof(tree, CORE_E)) == (
        False, "conclusion outside language: rneg not in language",
        (0,) * 41, seq([p, q], chi))
    # the 41 nodes above share p, q and p * q: each is checked once
    assert len(checked) == len({id(f) for f in checked}) == 4
    # in the full language the same tree fails only at its leaves
    assert _result(check_proof(tree, FLE)) == (
        False, "hypothesis-not-declared", (0,) * 41, seq([p, q], chi))


def test_check_proof_checks_each_distinct_formula_once(monkeypatch):
    # every node parses its own sequent, and equal formulas are one object
    def node(text, rule, premises=(), data=()):
        return ProofTree(parse_sequent(text), rule, premises, data)

    tree = node("p, q => p * q", RuleId.CUT,
                (node("p, q => p /\\ q", RuleId.HYPOTHESIS),
                 node("p /\\ q => p * q", RuleId.HYPOTHESIS)), (0,))
    for text in ["q, p => p * q", "p, q => p * q"] * 20:
        tree = node(text, RuleId.EXCH_L, (tree,), (0,))
    checked = _count_language_checks(monkeypatch)
    assert _result(check_proof(tree, CORE_E)) == (
        False, "conclusion outside language: meet not in language",
        (0,) * 41, parse_sequent("p, q => p /\\ q"))
    # the 42 nodes down to the offending one hold 4 distinct formulas:
    # p, q, p * q and p /\ q, each checked once
    assert checked == [p, q, fus(p, q), meet(p, q)]
    assert _result(check_proof(tree, FLE)) == (
        False, "hypothesis-not-declared", (0,) * 41,
        parse_sequent("p, q => p /\\ q"))


def test_format_proof_sexp_prints_a_deep_proof():
    pq = fus(p, q)
    start = ProofTree(seq([p, q], pq), RuleId.FUS_R,
                      (ProofTree(seq([p], p), RuleId.AXIOM),
                       ProofTree(seq([q], q), RuleId.AXIOM)))
    tree = _exchanges(start, 2000)
    assert check_proof(tree, FLE)
    text = format_proof_sexp(tree)
    expected = '(fus-r "p, q => p * q" (axiom "p => p") (axiom "q => q"))'
    for k in range(2000):
        sequent = "q, p => p * q" if k % 2 == 0 else "p, q => p * q"
        expected = f'(exch-l "{sequent}" {expected})'
    assert text == expected


# ---------------------------------------------------------------------------
# check_proof and format_proof_sexp take each distinct node once
# ---------------------------------------------------------------------------

def _shared_chain(depth):
    """p => p below `depth` and-r steps, each with one node object as both
    of its premises: depth + 1 distinct nodes, 2 ** (depth + 1) - 1 as a
    tree."""
    tree = ProofTree(seq([p], p), RuleId.AXIOM)
    for _ in range(depth):
        d = tree.conclusion.succedent
        tree = ProofTree(seq([p], meet(d, d)), RuleId.AND_R, (tree, tree))
    return tree


def _unshared(tree):
    """The proof with a node object of its own at every place."""
    return ProofTree(tree.conclusion, tree.rule,
                     tuple([_unshared(prem) for prem in tree.premises]),
                     tree.data)


def test_check_proof_derives_each_shared_node_once(monkeypatch):
    derived = []

    def counting(rule, data, premises):
        derived.append(rule)
        return derive_conclusion(rule, data, premises)

    monkeypatch.setattr(sys.modules["substrukt.calculus"],
                        "derive_conclusion", counting)
    # 4,095 and-r nodes as a tree, 12 distinct ones
    assert check_proof(_shared_chain(12), FL)
    assert derived == [RuleId.AND_R] * 12


def test_check_proof_rejects_one_of_two_nodes_with_one_conclusion():
    # both premises conclude the same sequent object, q => q \/ r; the
    # second claims a side formula its conclusion does not have
    concl = seq([q], join(q, r))
    good = ProofTree(concl, RuleId.OR_R1,
                     (ProofTree(seq([q], q), RuleId.AXIOM),), (r,))
    bad = ProofTree(concl, RuleId.OR_R1,
                    (ProofTree(seq([q], q), RuleId.AXIOM),), (p,))
    for premises, path in [((good, bad), (1,)), ((bad, good), (0,))]:
        tree = _apply(RuleId.AND_R, (), *premises)
        assert _result(check_proof(tree, FL)) == (
            False, "instance mismatch: conclusion differs", path, concl)


def test_check_proof_reports_a_shared_fault_at_its_first_preorder_path():
    # `bad` is the second premise of the root, and the premise of its first
    # premise: the preorder meets it first below the first premise, after
    # the root pushed it as its second
    bad = ProofTree(seq([p], q), RuleId.AXIOM)
    tree = _apply(RuleId.FUS_R, (), _apply(RuleId.OR_R1, (r,), bad), bad)
    assert _result(check_proof(tree, FL)) == (
        False, "axiom must be phi => phi", (0, 0), seq([p], q))
    deeper = _apply(RuleId.OR_R2, (r,), tree)
    assert _result(check_proof(deeper, FL)) == (
        False, "axiom must be phi => phi", (0, 0, 0), seq([p], q))


def test_format_proof_sexp_prints_shared_premises_in_place():
    leaf = ProofTree(seq([p], p), RuleId.AXIOM)
    left = _apply(RuleId.OR_R1, (q,), leaf)
    dags = [_shared_chain(5),
            _apply(RuleId.FUS_R, (), left, leaf),
            _apply(RuleId.AND_R, (), left, left)]
    for dag in dags:
        tree = _unshared(dag)
        assert tree == dag
        assert format_proof_sexp(dag) == format_proof_sexp(tree)
    assert format_proof_sexp(dags[1]) == (
        '(fus-r "p, p => (p \\/ q) * p" (or-r1 "p => p \\/ q" (axiom "p => p"))'
        ' (axiom "p => p"))')


def test_a_deep_proof_reads_back_mirrors_and_measures():
    pq = fus(p, q)
    start = ProofTree(seq([p, q], pq), RuleId.FUS_R,
                      (ProofTree(seq([p], p), RuleId.AXIOM),
                       ProofTree(seq([q], q), RuleId.AXIOM)))
    tree = _exchanges(start, 2000)
    assert parse_proof_sexp(format_proof_sexp(tree)) == tree
    assert tree.height() == 2002
    mirrored = mirror_proof(tree)
    assert mirrored.height() == 2002
    assert mirrored.conclusion == mirror_sequent(tree.conclusion)
    assert check_proof(mirrored, FLE)
    assert mirror_proof(mirrored) == tree


def test_postorder_combines_a_shared_premise_once():
    leaf = ProofTree(seq([p], p), RuleId.AXIOM)
    tree = ProofTree(seq([p, p], fus(p, p)), RuleId.FUS_R, (leaf, leaf))
    calls = []

    def copy(node, premises):
        calls.append(node.rule)
        return ProofTree(node.conclusion, node.rule, premises, node.data)

    copied = postorder(tree, lambda node: node.premises, copy)
    assert calls == [RuleId.AXIOM, RuleId.FUS_R]
    assert copied == tree and copied.premises[0] is copied.premises[1]


def test_postorder_folds_a_chain_deeper_than_the_recursion_limit():
    chain = None
    for k in range(10_000):
        chain = (k, chain)
    assert sys.getrecursionlimit() < 10_000
    total = postorder(chain, lambda node: node[1:] if node[1] else (),
                      lambda node, below: node[0] + sum(below))
    assert total == sum(range(10_000))


def test_postorder_keeps_its_values_in_done():
    # node n has the children 0, ..., n - 1, so its value is 2 ** n - 1
    calls, done = [], {}

    def combine(n, below):
        calls.append(n)
        return n + sum(below)

    assert postorder(3, range, combine, key=int, done=done) == 7
    assert calls == [0, 1, 2, 3] and done == {0: 0, 1: 1, 2: 3, 3: 7}
    calls.clear()
    assert postorder(5, range, combine, key=int, done=done) == 31
    assert calls == [4, 5]


def test_proof_equality_compares_every_node():
    leaf = ProofTree(seq([p], p), RuleId.AXIOM)
    other = ProofTree(seq([q], q), RuleId.AXIOM)
    a = ProofTree(seq([p, q], fus(p, q)), RuleId.FUS_R, (leaf, other))
    b = ProofTree(seq([p, q], fus(p, q)), RuleId.FUS_R, (leaf, leaf))
    assert a != b and a == ProofTree(a.conclusion, a.rule, (leaf, other))
    assert hash(a) == hash(ProofTree(a.conclusion, a.rule, (leaf, other)))
    assert _exchanges(a, 3) != _exchanges(b, 3)
