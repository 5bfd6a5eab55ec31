"""The facts each RuleId declares, checked against statements of the
calculus made here and against what the code does with them: the rules of
every calculus, the commit of the search, and the mirror images of proofs,
cut included, of deep formulas and under every sigma."""

import itertools
import random
import sys

from substrukt.syntax import (PRESET_NAMES, Bin, Const, Language, Neg, Var,
                              mirror_formula, var)
from substrukt.sequents import (encode_sequents, mirror_sequent, rho, seq,
                                tau)
from substrukt.calculus import (SIGMA_LETTERS, ProofTree, RuleId, calculus,
                                check_proof, lemma12_roundtrip, mirror_proof,
                                rules_of, table_instances_backward)
from substrukt.corpus import random_derivation, random_sequent

R = RuleId
ALL_SIGMAS = [frozenset(c) for k in range(len(SIGMA_LETTERS) + 1)
              for c in itertools.combinations(SIGMA_LETTERS, k)]

# FL_sigma[Psi] as the paper states it: the rules of every calculus, the
# left and right rules of each connective of Psi, one rule per code of sigma
EVERY_CALCULUS = {R.AXIOM, R.CUT, R.ONE_L, R.ONE_R, R.ZERO_L, R.ZERO_R}
CONNECTIVE_RULES = {
    "join": {R.OR_L, R.OR_R1, R.OR_R2},
    "meet": {R.AND_L1, R.AND_L2, R.AND_R},
    "fus": {R.FUS_L, R.FUS_R},
    "rimp": {R.RIMP_L, R.RIMP_R},
    "limp": {R.LIMP_L, R.LIMP_R},
    "rneg": {R.RNEG_L, R.RNEG_R},
    "lneg": {R.LNEG_L, R.LNEG_R},
}
STRUCTURAL_RULES = {"e": R.EXCH_L, "wl": R.WEAK_L, "wr": R.WEAK_R,
                    "c": R.CONTR_L}


def test_rule_sets_on_every_calculus():
    for name in PRESET_NAMES:
        lang = Language.preset(name)
        for sigma in ALL_SIGMAS:
            expected = set(EVERY_CALCULUS)
            for connective, rules in CONNECTIVE_RULES.items():
                if connective in lang:
                    expected |= rules
            expected |= {STRUCTURAL_RULES[code] for code in sigma}
            got = rules_of(calculus(sigma, lang))
            assert got == expected, (name, sorted(sigma))
            assert R.HYPOTHESIS not in got


def test_labels_read_back():
    for rule in RuleId:
        assert RuleId(rule.value) is rule and rule.label == rule.value
    assert RuleId("or-l") is R.OR_L and hash(R.OR_L) == object.__hash__(R.OR_L)


def test_each_member_is_bound_to_its_name_in_the_module():
    module = sys.modules[RuleId.__module__]
    for rule in RuleId:
        assert getattr(module, rule.name) is rule


# ---------------------------------------------------------------------------
# The commit of the search reads the invertible flags
# ---------------------------------------------------------------------------

# the rules that cut admissibility makes invertible in every sigma but {c}
INVERTIBLE = {R.OR_L, R.FUS_L, R.AND_R, R.RIMP_R, R.LIMP_R, R.RNEG_R,
              R.LNEG_R, R.ZERO_R, R.ONE_L}


def test_the_nine_invertible_rules():
    assert {rule for rule in RuleId if rule.invertible} == INVERTIBLE


def test_commit_keeps_the_leading_invertible_instances():
    """table_instances_backward lists the invertible rules first; with
    commit it stops after them.  So a committed list is the full list's
    run of leading instances whose rule is flagged invertible, or, when
    there is none, the full list; every instance has its rule's arity and
    one data slot per layout kind."""
    rng = random.Random(17)
    cal = calculus("e,wl,wr,c")
    rules = rules_of(cal)
    seen = set()
    for _ in range(400):
        goal = random_sequent(rng, depth=2, max_antecedent=3)
        table, (encoded,) = encode_sequents((goal,))
        for multiset in (False, True):
            if multiset:
                encoded = (tuple(sorted(encoded[0])), encoded[1])
            full, _ = table_instances_backward(table, encoded, rules, multiset)
            committed, _ = table_instances_backward(
                table, encoded, rules, multiset, commit=True)
            lead = next((k for k, inst in enumerate(full)
                         if not inst[0].invertible), len(full))
            assert committed == (full[:lead] if lead else full)
            for rule, data, _, premises in full:
                assert len(premises) == rule.arity
                assert len(data) == len(rule.layout)
            seen.update(inst[0] for inst in full[:lead])
    assert seen == INVERTIBLE


# ---------------------------------------------------------------------------
# Mirror images of proofs
# ---------------------------------------------------------------------------

# Lemma 2's partners: the implications and negations swap sides
PARTNER = {R.RIMP_L: R.LIMP_L, R.LIMP_L: R.RIMP_L, R.RIMP_R: R.LIMP_R,
           R.LIMP_R: R.RIMP_R, R.RNEG_L: R.LNEG_L, R.LNEG_L: R.RNEG_L,
           R.RNEG_R: R.LNEG_R, R.LNEG_R: R.RNEG_R}


def test_mirror_partners():
    for rule in RuleId:
        assert rule.mirror is PARTNER.get(rule, rule)


def _nodes(tree):
    stack, out = [tree], []
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.premises)
    return out


def test_mirror_of_cut_proofs():
    """The lemma 12 round trip proves with cut: its mirrored trees check
    under the mirrored hypotheses, and mirroring twice gives the tree
    back."""
    rng = random.Random(29)
    cal = calculus("")
    cuts = 0
    for _ in range(100):
        s = random_sequent(rng, depth=2, max_antecedent=3)
        forward, backward = lemma12_roundtrip(s)
        hyps = rho(next(iter(tau(s))))
        for tree, given in [(t, {s}) for t in forward] + [(backward, hyps)]:
            m = mirror_proof(tree)
            mirrored = {mirror_sequent(h) for h in given}
            assert check_proof(m, cal, mirrored), (s, check_proof(m, cal,
                                                                  mirrored))
            assert m.conclusion == mirror_sequent(tree.conclusion)
            assert mirror_proof(m) == tree
            cuts += sum(node.rule is R.CUT for node in _nodes(tree))
    assert cuts >= 100


def test_mirror_twice_is_the_identity_under_every_sigma():
    rng = random.Random(31)
    for name in ("core", "full"):
        lang = Language.preset(name)
        for sigma in ALL_SIGMAS:
            cal = calculus(sigma, lang)
            for _ in range(12):
                tree = random_derivation(rng, cal, height=4)
                m = mirror_proof(tree)
                assert check_proof(m, cal), (name, sorted(sigma))
                assert mirror_proof(m) == tree


def _chain(depth, f=None):
    """A formula `depth` connectives deep above `f` (p by default), cycling
    through rn, *, \\, ln and /, with the deep argument on the left of each
    binary connective."""
    p, q, r = var("p"), var("q"), var("r")
    f = p if f is None else f
    for k in range(depth):
        f = (Neg("rneg", f), Bin("fus", f, q), Bin("rimp", f, r),
             Neg("lneg", f), Bin("limp", f, p))[k % 5]
    return f


def _is_mirrored_chain(m, depth):
    """Whether m is the mirror of _chain(depth), checked one level at a
    time from the top (== on formulas recurses)."""
    p, q, r = Var("p"), Var("q"), Var("r")
    for k in reversed(range(depth)):
        kind = k % 5
        if kind in (0, 3):
            want = "lneg" if kind == 0 else "rneg"
            if not (isinstance(m, Neg) and m.op == want):
                return False
            m = m.child
            continue
        if not isinstance(m, Bin):
            return False
        if kind == 1:  # f * q mirrors to q' * f'
            if m.op != "fus" or m.left != q:
                return False
            m = m.right
        else:  # rimp(f, r), f\r, mirrors to limp(f', r), r/f'; and back
            want, other = ("limp", r) if kind == 2 else ("rimp", p)
            if m.op != want or m.right != other:
                return False
            m = m.left
    return m == p


def test_mirror_of_a_deep_formula():
    phi = _chain(3000)
    m = mirror_formula(phi)
    assert _is_mirrored_chain(m, 3000)
    tree = mirror_proof(ProofTree(seq([phi], phi), R.AXIOM))
    assert tree.rule is R.AXIOM
    (left,), right = tree.conclusion.antecedent, tree.conclusion.succedent
    assert _is_mirrored_chain(left, 3000) and _is_mirrored_chain(right, 3000)
    assert isinstance(mirror_formula(Const("zero")), Const)


def test_check_proof_compares_deep_axiom_sides_without_recursion():
    # the two sides of each axiom are built apart, 3,000 connectives deep;
    # equal formulas are one object, so comparing them walks nothing
    full = calculus("")
    copies = ProofTree(seq([_chain(3000)], _chain(3000)), R.AXIOM)
    assert check_proof(copies, full)
    phi = _chain(3000)
    mirrored = mirror_proof(ProofTree(seq([phi], phi), R.AXIOM))
    (left,), right = mirrored.conclusion.antecedent, mirrored.conclusion.succedent
    assert left is right
    assert check_proof(mirrored, full)
    # pairs that differ only at the bottom: in a variable, in a binary
    # connective, in a negation
    p, q = var("p"), var("q")
    for a, b in ((p, q), (Bin("fus", p, q), Bin("join", p, q)),
                 (Neg("rneg", p), Neg("lneg", p))):
        axiom = ProofTree(seq([_chain(3000, a)], _chain(3000, b)), R.AXIOM)
        result = check_proof(axiom, full)
        assert (result.ok, result.reason) == (False, "axiom must be phi => phi")
