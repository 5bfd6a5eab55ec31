"""Pins on the two searches that no other digest covers, and goals deeper
than Python's recursion limit."""

import hashlib
import random

import pytest

from substrukt.syntax import Language, lneg, rneg, var
from substrukt.sequents import seq
from substrukt.calculus import calculus, check_proof, format_proof_sexp
from substrukt.search import Proved, Refuted, prove, prove_with_hyps
from substrukt.corpus import random_derivation, random_formula, random_sequent
from verdict_text import verdict_text

p, q = var("p"), var("q")


# ---------------------------------------------------------------------------
# The sets regime: e, wl and c in sigma
# ---------------------------------------------------------------------------

# The sha256 of the verdicts and rebuilt proofs of `_sets_corpus`, as the
# set search and its recursive driver gave them.
SETS_DIGEST = ("e726c456196336e7eaaa51d5c8f8c53a"
               "ef41221918158a7fb7258aaec95651f9")


def _sets_corpus():
    """280 (goal, calculus) pairs under e,wl,c and e,wl,wr,c: random goals
    in core and full, and random derivations."""
    rng = random.Random(20261019)
    goals = []
    for preset in ("core", "full"):
        lang = Language.preset(preset)
        for sigma in ("e,wl,c", "e,wl,wr,c"):
            cal = calculus(sigma, lang)
            goals += [(random_sequent(rng, depth=3, lang=lang), cal)
                      for _ in range(60)]
    for sigma in ("e,wl,c", "e,wl,wr,c"):
        cal = calculus(sigma)
        goals += [(random_derivation(rng, cal).conclusion, cal)
                  for _ in range(20)]
    return goals


def test_set_proofs_are_pinned():
    digest = hashlib.sha256()
    verdicts = {}
    for goal, cal in _sets_corpus():
        res = prove(goal, cal)
        verdicts[type(res)] = verdicts.get(type(res), 0) + 1
        if isinstance(res, Proved):
            assert res.tree.conclusion == goal
            assert check_proof(res.tree, cal)
        digest.update(f"{goal}\t{verdict_text(res)}\n".encode())
    assert verdicts == {Proved: 127, Refuted: 153}
    assert digest.hexdigest() == SETS_DIGEST


# ---------------------------------------------------------------------------
# prove_with_hyps: hypothesis leaves, cut, the antecedent and node caps
# ---------------------------------------------------------------------------

# The sha256 of the verdicts and proofs of `_hyps_corpus`, as the search
# with its own budget loop gave them.  It pins the node count too: a goal
# that the node cap stops at another node ends with another verdict.
HYPS_DIGEST = ("d107960837b7d07318b6e40172106335"
               "d4e19f65d5153cd80b0140575562a4b1")


def _hyps_corpus():
    """40 (goal, hypotheses, calculus, bound) in core under four sigmas:
    random goals with random hypotheses, and a => c from a => b, b => c."""
    rng = random.Random(20261020)
    lang = Language.preset("core")
    out = []
    for sigma in ("", "e", "wl", "c"):
        cal = calculus(sigma, lang)
        for _ in range(5):
            goal = random_sequent(rng, depth=2, lang=lang)
            hyps = frozenset(random_sequent(rng, depth=2, lang=lang)
                             for _ in range(rng.randint(1, 2)))
            out.append((goal, hyps, cal, rng.choice((2, 4, 12))))
        for _ in range(5):
            a, b, c = (random_formula(rng, 2, lang=lang) for _ in range(3))
            out.append((seq([a], c), frozenset({seq([a], b), seq([b], c)}),
                        cal, 12))
    return out


def test_hypothesis_proofs_are_pinned():
    digest = hashlib.sha256()
    proved = 0
    for goal, hyps, cal, bound in _hyps_corpus():
        res = prove_with_hyps(goal, hyps, cal, bound, node_cap=3000)
        if isinstance(res, Proved):
            proved += 1
            assert res.tree.conclusion == goal
            assert check_proof(res.tree, cal, hyps)
        assert not isinstance(res, Refuted)
        hyp_text = sorted(str(h) for h in hyps)
        digest.update(f"{goal}\t{hyp_text}\t{verdict_text(res)}\n".encode())
    assert proved == 18
    assert digest.hexdigest() == HYPS_DIGEST


# ---------------------------------------------------------------------------
# Goals deeper than the recursion limit
# ---------------------------------------------------------------------------

def _tower(f, *negations, times):
    """`negations` applied to f, innermost last, `times` times over."""
    for _ in range(times):
        for neg in reversed(negations):
            f = neg(f)
    return f


@pytest.mark.parametrize("sigma", ["", "wl,c", "e,wl,c"])
def test_deep_negation_chain_is_refuted(sigma):
    goal = seq([_tower(p, rneg, times=500)], _tower(q, rneg, times=500))
    assert prove(goal, calculus(sigma)) == Refuted()


@pytest.mark.parametrize("sigma", ["", "e", "e,wl,c"])
def test_deep_proof_is_built_and_checked(sigma):
    cal = calculus(sigma)
    goal = seq([p], _tower(p, rneg, lneg, times=250))
    res = prove(goal, cal)
    assert isinstance(res, Proved)
    assert res.tree.conclusion == goal
    assert check_proof(res.tree, cal)


def test_a_deep_axiom_is_proved_and_printed():
    deep = _tower(p, rneg, times=3000)
    res = prove(seq([deep], deep), calculus(""))
    text = "rn(" * 3000 + "p" + ")" * 3000
    assert format_proof_sexp(res.tree) == f'(axiom "{text} => {text}")'
