"""The search's pruning by the two-element Boolean algebra B2: B2 is a
member of every variety K_sigma, the bit masks of `_boolean_model` are its
values as `eval_term` gives them, and pruning changes only the work done."""

import itertools
import random

import pytest

from substrukt import fixtures, search
from substrukt.algebra import (FAMILY_OPS, VarietyId, check_variety,
                               derive_pseudocomplements, derive_residuals,
                               eval_term, holds, language_of_family, reduct)
from substrukt.calculus import calculus
from substrukt.corpus import random_sequent
from substrukt.search import (_MODEL_VARIABLES, _Search, _boolean_model,
                              _falsified, prove)
from substrukt.sequents import encode_sequents, parse_sequent, tau_equation
from substrukt.syntax import Language
from verdict_text import verdict_text

SIGMAS = [frozenset(c) for k in range(5)
          for c in itertools.combinations(("e", "wl", "wr", "c"), k)]
C_FREE = [",".join(sorted(s)) for s in SIGMAS if "c" not in s]
# sigma = {c} is left out: its bounded search does not commit to invertible
# rules and runs for minutes on some of these goals
BOUNDED = ("e,c", "wr,c", "e,wr,c")


def _b2():
    """B2 with every operation of the full language."""
    return derive_pseudocomplements(derive_residuals(fixtures.boolean2()))


def test_b2_is_a_member_of_every_variety():
    b2 = _b2()
    checked = 0
    for family in FAMILY_OPS:
        a = reduct(b2, language_of_family(family))
        for sigma in SIGMAS:
            assert check_variety(a, VarietyId(family, sigma)).ok, \
                (family, sigma)
            checked += 1
    assert checked == 96


@pytest.mark.parametrize("preset", ["core", "full"])
def test_boolean_model_agrees_with_eval_term(preset):
    """Each formula's mask, bit by bit, is its value in B2 under the
    assignment that bit stands for; a goal is falsified exactly when some
    such assignment falsifies tau(goal)."""
    rng = random.Random(20261019)
    lang, b2 = Language.preset(preset), _b2()
    many = tuple(f"v{i}" for i in range(_MODEL_VARIABLES + 3))
    assignments = falsified = 0
    for k in range(200):
        variables = many if k % 10 == 0 else ("p", "q", "r")
        goal = random_sequent(rng, depth=rng.randint(0, 4), lang=lang,
                              variables=variables, max_antecedent=3)
        table, (encoded,) = encode_sequents((goal,))
        full, values = _boolean_model(table)
        names = [f.name for f, op in zip(table.formulas, table.op)
                 if op == "var"]
        fails = False
        for j in range(full.bit_length()):
            assignment = {name: values[i] >> j & 1
                          for i, name in enumerate(names)}
            for f, formula in enumerate(table.formulas):
                assert values[f] >> j & 1 == eval_term(b2, formula,
                                                       assignment)
            fails |= not holds(b2, tau_equation(goal), assignment)
            assignments += 1
        assert _falsified((full, values), encoded) == fails
        falsified += fails
    assert assignments > 1000 and 50 < falsified < 150


def test_mask_width_is_bounded():
    names = [f"v{i}" for i in range(20)]
    goal = parse_sequent(", ".join(names) + " => " + " * ".join(names))
    table, _ = encode_sequents((goal,))
    full, _ = _boolean_model(table)
    assert full == (1 << (1 << _MODEL_VARIABLES)) - 1


def _verdicts(goals, monkeypatch, pruned):
    """The verdict text of each (goal, calculus) by `prove`, and the goals
    expanded by its searches without c: all of them, and those of the
    FL_{sigma - c} fallback of the bounded regime.  Unpruned, each search
    has its model taken away."""
    expanded = {"all": 0, "fallback": 0}

    class Search(_Search):
        def __init__(self, cal, table, *args, **kwargs):
            super().__init__(cal, table, *args, **kwargs)
            # a search without c in a call with c is the FL_{sigma - c} step
            self.kind = (None if "c" in cal.sigma
                         else "fallback" if "c" in called.sigma else "all")
            if not pruned:
                self.model = None

        def _expand(self, goal):
            if self.kind == "fallback":
                expanded["fallback"] += 1
            if self.kind is not None:
                expanded["all"] += 1
            return super()._expand(goal)

    monkeypatch.setattr(search, "_Search", Search)
    texts = []
    for goal, called in goals:
        texts.append(verdict_text(prove(goal, called)))
    return texts, expanded


def _pruning_corpus():
    """Random goals in core and full under every sigma without c, goals
    with many variables, and core goals in the bounded regime."""
    rng = random.Random(20261020)
    goals = []
    for preset in ("core", "full"):
        lang = Language.preset(preset)
        for sigma in C_FREE:
            cal = calculus(sigma, lang)
            goals += [(random_sequent(rng, depth=rng.choice((3, 4)),
                                      lang=lang), cal) for _ in range(40)]
    names = [f"v{i}" for i in range(12)]
    wide = [", ".join(names) + " => " + " * ".join(names),
            ", ".join(names) + " => " + " * ".join(reversed(names)),
            " * ".join(names) + " => " + " \\/ ".join(names[1:]) + " * v0"]
    goals += [(parse_sequent(text), calculus(sigma))
              for text in wide for sigma in ("", "e", "wl")]
    lang = Language.preset("core")
    for sigma in BOUNDED:
        cal = calculus(sigma, lang)
        goals += [(random_sequent(rng, depth=rng.choice((2, 3)), lang=lang,
                                  max_antecedent=3), cal)
                  for _ in range(150)]
    return goals


def test_pruning_changes_only_the_work(monkeypatch):
    goals = _pruning_corpus()
    pruned, work = _verdicts(goals, monkeypatch, pruned=True)
    unpruned, full_work = _verdicts(goals, monkeypatch, pruned=False)
    for (goal, cal), a, b in zip(goals, pruned, unpruned):
        assert a == b, (str(goal), cal.sigma)
    assert sum(text.startswith("(") for text in pruned) > 150
    assert work["all"] < 0.5 * full_work["all"]
    assert 0 < work["fallback"] < full_work["fallback"]
