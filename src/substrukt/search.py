"""Backward cut-free proof search and hypothesis-admitting bounded search.

For sigma without contraction the search is a decision procedure: every
backward step strictly shrinks the goal, so exhaustion refutes.  With
contraction the search is depth-bounded and loop-checked; a search space
that closes under the loop check yields Refuted only together with
left-weakening, and carries a caveat flag.

With exchange in sigma, goals are normalized to multisets (sorted
antecedents) and two-premise splits range over sub-multisets; the returned
proof is rebuilt on sequences with explicit exchange steps so that it
passes check_proof.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .syntax import Bin, Neg, ONE, ZERO, formula_key, subformulas
from .sequents import (Sequent, check_sequent_language, rho_prime,
                       sequent_key)
from .calculus import (CalculusId, ProofTree, RuleId, rule_instances_backward,
                       rules_of)

DEFAULT_BOUND = 12
SUBMULTISET_CAP = 10

_PRUNED = 1
_BOUNDED = 2


@dataclass(frozen=True)
class Proved:
    tree: ProofTree


@dataclass(frozen=True)
class Refuted:
    caveat: Optional[str] = None


@dataclass(frozen=True)
class Unknown:
    reason: str = "depth-exhausted"


_PRIORITY = {
    RuleId.OR_L: 1, RuleId.FUS_L: 2, RuleId.AND_R: 3, RuleId.RIMP_R: 4,
    RuleId.LIMP_R: 5, RuleId.RNEG_R: 6, RuleId.LNEG_R: 7, RuleId.ZERO_R: 8,
    RuleId.ONE_L: 9,
    RuleId.OR_R1: 10, RuleId.OR_R2: 11, RuleId.AND_L1: 12, RuleId.AND_L2: 13,
    RuleId.FUS_R: 14, RuleId.RIMP_L: 15, RuleId.LIMP_L: 16, RuleId.RNEG_L: 17,
    RuleId.LNEG_L: 18,
    RuleId.WEAK_R: 19, RuleId.WEAK_L: 20, RuleId.CONTR_L: 21,
    RuleId.EXCH_L: 22, RuleId.CUT: 23,
}

_INVERTIBLE = frozenset({
    RuleId.OR_L, RuleId.FUS_L, RuleId.AND_R, RuleId.RIMP_R, RuleId.LIMP_R,
    RuleId.RNEG_R, RuleId.LNEG_R, RuleId.ZERO_R, RuleId.ONE_L,
})


def _sorted_ant(ant):
    return tuple(sorted(ant, key=formula_key))


def _remove_once(ant, f):
    out = list(ant)
    out.remove(f)
    return tuple(out)


def _sub_multisets(ant):
    """Distinct sub-multisets of a sorted tuple, as sorted tuples."""
    groups = [(f, len(list(g))) for f, g in itertools.groupby(ant)]
    counts = [range(c + 1) for _, c in groups]
    for pick in itertools.product(*counts):
        chosen = []
        for (f, _), k in zip(groups, pick):
            chosen.extend([f] * k)
        yield tuple(chosen)


def exchange_chain(tree: ProofTree, target_ant) -> ProofTree:
    """Permute the antecedent of a proved sequent into `target_ant` by a
    chain of adjacent exchanges."""
    cur = list(tree.conclusion.antecedent)
    target = list(target_ant)
    if cur == target:
        return tree
    succ = tree.conclusion.succedent
    for pos in range(len(target)):
        if cur[pos] == target[pos]:
            continue
        k = next(j for j in range(pos + 1, len(cur)) if cur[j] == target[pos])
        for j in range(k, pos, -1):
            cur[j - 1], cur[j] = cur[j], cur[j - 1]
            tree = ProofTree(Sequent(tuple(cur), succ), RuleId.EXCH_L,
                             (tree,), (j - 1,))
    return tree


class _Search:
    def __init__(self, cal: CalculusId, hyps=(), cut_formulas=None,
                 max_antecedent=None, by_height=False):
        self.cal = cal
        self.rules = rules_of(cal)
        self.multiset = "e" in cal.sigma
        self.collapse_dups = "c" in cal.sigma
        # invertibility relies on cut admissibility, which FL_{c} alone lacks
        self.commit = cal.sigma != frozenset({"c"})
        self.cut_formulas = cut_formulas  # None: cut-free
        self.max_antecedent = max_antecedent
        # by_height: no loop check; "provable within height b" is a pure
        # function of (goal, b), so failures memoize soundly by budget
        self.by_height = by_height
        # exact canonical matching: the duplicate-collapsed key is only for
        # the ancestor loop check, never for hypothesis closure
        self.hyp_by_key = {}
        for h in sorted(hyps, key=sequent_key):
            self.hyp_by_key.setdefault(self.canon(h), h)
        self.success = {}
        self.abs_fail = set()
        self.bounded_fail = {}
        self.nodes = 0
        self.node_cap = None  # deterministic effort cap; None = unlimited

    def canon(self, s: Sequent) -> Sequent:
        if self.multiset:
            return Sequent(_sorted_ant(s.antecedent), s.succedent)
        return s

    def _canon_key(self, s: Sequent):
        ant = s.antecedent
        if self.collapse_dups:
            out = []
            for f in ant:
                if len(out) >= 2 and out[-1] == f and out[-2] == f:
                    continue
                out.append(f)
            ant = tuple(out)
        return (ant, s.succedent)

    # -- instance enumeration -------------------------------------------

    def instances(self, goal: Sequent):
        """(instances, complete) for a canonical goal.  An instance is
        (rule, data, concrete conclusion, ((concrete premise, canonical
        premise), ...)); the concrete parts form a genuine sequence-level
        rule instance."""
        if not self.multiset:
            plain = rule_instances_backward(goal, self.cal)
            inst = [(rule, data, goal, tuple((p, p) for p in prems))
                    for rule, data, prems in plain]
            inst.extend(self._cut_instances_seq(goal))
            complete = True
        else:
            inst, complete = self._multiset_instances(goal)
        if self.max_antecedent is not None:
            kept = [rec for rec in inst
                    if all(len(p.antecedent) <= self.max_antecedent
                           for p, _ in rec[3])]
            if len(kept) != len(inst):
                complete = False
            inst = kept
        inst.sort(key=lambda rec: _PRIORITY[rec[0]])
        return inst, complete

    def _cut_instances_seq(self, goal):
        if self.cut_formulas is None or RuleId.CUT not in self.rules:
            return []
        a, d = goal.antecedent, goal.succedent
        out = []
        for chi in self.cut_formulas:
            for i in range(len(a) + 1):
                for j in range(i, len(a) + 1):
                    p1 = Sequent(a[i:j], chi)
                    p2 = Sequent(a[:i] + (chi,) + a[j:], d)
                    out.append((RuleId.CUT, (i,),
                                goal, ((p1, p1), (p2, p2))))
        return out

    def _multiset_instances(self, goal):
        a, d = goal.antecedent, goal.succedent
        rules = self.rules
        out = []
        complete = True
        seen = set()

        def emit(rule, data, concl, prems):
            rec = (rule, data, tuple(sequent_key(c) for _, c in prems))
            if rec in seen:
                return
            seen.add(rec)
            out.append((rule, data, concl, tuple(prems)))

        def canonp(s):
            return (s, self.canon(s))

        split_ok = len(a) <= SUBMULTISET_CAP
        for f in sorted(set(a), key=formula_key):
            rest = _remove_once(a, f)
            tail = Sequent(rest + (f,), d)
            if isinstance(f, Bin):
                if f.op == "join" and RuleId.OR_L in rules:
                    emit(RuleId.OR_L, (len(rest),), tail,
                         [canonp(Sequent(rest + (f.left,), d)),
                          canonp(Sequent(rest + (f.right,), d))])
                elif f.op == "meet" and RuleId.AND_L1 in rules:
                    emit(RuleId.AND_L1, (len(rest), f.right), tail,
                         [canonp(Sequent(rest + (f.left,), d))])
                    emit(RuleId.AND_L2, (len(rest), f.left), tail,
                         [canonp(Sequent(rest + (f.right,), d))])
                elif f.op == "fus" and RuleId.FUS_L in rules:
                    emit(RuleId.FUS_L, (len(rest),), tail,
                         [canonp(Sequent(rest + (f.left, f.right), d))])
                elif f.op == "rimp" and RuleId.RIMP_L in rules:
                    if split_ok:
                        for x in _sub_multisets(rest):
                            y = _multiset_minus(rest, x)
                            emit(RuleId.RIMP_L, (len(y),),
                                 Sequent(y + x + (f,), d),
                                 [canonp(Sequent(x, f.left)),
                                  canonp(Sequent(y + (f.right,), d))])
                    else:
                        complete = False
                elif f.op == "limp" and RuleId.LIMP_L in rules:
                    if split_ok:
                        for x in _sub_multisets(rest):
                            y = _multiset_minus(rest, x)
                            emit(RuleId.LIMP_L, (len(y),),
                                 Sequent(y + (f,) + x, d),
                                 [canonp(Sequent(x, f.left)),
                                  canonp(Sequent(y + (f.right,), d))])
                    else:
                        complete = False
            if f == ONE:
                emit(RuleId.ONE_L, (len(rest),), tail,
                     [canonp(Sequent(rest, d))])
            if RuleId.WEAK_L in rules:
                emit(RuleId.WEAK_L, (len(rest), f), tail,
                     [canonp(Sequent(rest, d))])
            if RuleId.CONTR_L in rules:
                emit(RuleId.CONTR_L, (len(rest),), tail,
                     [canonp(Sequent(rest + (f, f), d))])
            if d is None and isinstance(f, Neg):
                if f.op == "rneg" and RuleId.RNEG_L in rules:
                    emit(RuleId.RNEG_L, (), tail,
                         [canonp(Sequent(rest, f.child))])
                if f.op == "lneg" and RuleId.LNEG_L in rules:
                    emit(RuleId.LNEG_L, (), Sequent((f,) + rest, d),
                         [canonp(Sequent(rest, f.child))])

        if d is not None:
            if isinstance(d, Bin):
                if d.op == "join" and RuleId.OR_R1 in rules:
                    emit(RuleId.OR_R1, (d.right,), goal,
                         [canonp(Sequent(a, d.left))])
                    emit(RuleId.OR_R2, (d.left,), goal,
                         [canonp(Sequent(a, d.right))])
                elif d.op == "meet" and RuleId.AND_R in rules:
                    emit(RuleId.AND_R, (), goal,
                         [canonp(Sequent(a, d.left)),
                          canonp(Sequent(a, d.right))])
                elif d.op == "fus" and RuleId.FUS_R in rules:
                    if split_ok:
                        for x in _sub_multisets(a):
                            y = _multiset_minus(a, x)
                            emit(RuleId.FUS_R, (), Sequent(x + y, d),
                                 [canonp(Sequent(x, d.left)),
                                  canonp(Sequent(y, d.right))])
                    else:
                        complete = False
                elif d.op == "rimp" and RuleId.RIMP_R in rules:
                    emit(RuleId.RIMP_R, (), goal,
                         [canonp(Sequent((d.left,) + a, d.right))])
                elif d.op == "limp" and RuleId.LIMP_R in rules:
                    emit(RuleId.LIMP_R, (), goal,
                         [canonp(Sequent(a + (d.left,), d.right))])
            elif isinstance(d, Neg):
                if d.op == "rneg" and RuleId.RNEG_R in rules:
                    emit(RuleId.RNEG_R, (), goal,
                         [canonp(Sequent((d.child,) + a, None))])
                if d.op == "lneg" and RuleId.LNEG_R in rules:
                    emit(RuleId.LNEG_R, (), goal,
                         [canonp(Sequent(a + (d.child,), None))])
            if d == ZERO:
                emit(RuleId.ZERO_R, (), goal, [canonp(Sequent(a, None))])
            if RuleId.WEAK_R in rules:
                emit(RuleId.WEAK_R, (d,), goal, [canonp(Sequent(a, None))])

        if self.cut_formulas is not None and RuleId.CUT in self.rules:
            if split_ok:
                for chi in self.cut_formulas:
                    for x in _sub_multisets(a):
                        y = _multiset_minus(a, x)
                        emit(RuleId.CUT, (len(y),), Sequent(y + x, d),
                             [canonp(Sequent(x, chi)),
                              canonp(Sequent(y + (chi,), d))])
            else:
                complete = False
        return out, complete

    # -- the search proper ----------------------------------------------

    def solve(self, goal: Sequent, ancestors, budget):
        """goal must be canonical.  Returns (tree proving goal or None,
        flags), flags a bitmask of _PRUNED/_BOUNDED over the subtree."""
        if self.node_cap is not None:
            self.nodes += 1
            if self.nodes > self.node_cap:
                return None, _BOUNDED
        if not self.by_height:
            key = self._canon_key(goal)
            if key in ancestors:
                return None, _PRUNED
        memo = self.success.get(goal)
        if memo is not None:
            return memo, 0
        if goal in self.abs_fail:
            return None, 0
        bounded_at = self.bounded_fail.get(goal)
        if bounded_at is not None and budget <= bounded_at:
            return None, _BOUNDED

        leaf = self._leaf(goal)
        if leaf is not None:
            self.success[goal] = leaf
            return leaf, 0

        if budget <= 0:
            return None, _BOUNDED

        instances, complete = self.instances(goal)
        flags = 0 if complete else _BOUNDED
        if self.commit:
            for rec in instances:
                if rec[0] in _INVERTIBLE:
                    instances = [rec]
                    flags = 0
                    break
        if not self.by_height:
            ancestors = ancestors | {key}
        for rule, data, concl, prems in instances:
            trees = []
            inst_flags = 0
            for concrete, canonical in prems:
                sub, sub_flags = self.solve(canonical, ancestors, budget - 1)
                if sub is None:
                    inst_flags = sub_flags
                    trees = None
                    break
                trees.append(exchange_chain(sub, concrete.antecedent))
            if trees is None:
                flags |= inst_flags
                continue
            node = ProofTree(concl, rule, tuple(trees), data)
            node = exchange_chain(node, goal.antecedent)
            self.success[goal] = node
            return node, 0
        if flags == 0:
            # exhausted without ever hitting the budget: absolute failure
            self.abs_fail.add(goal)
        elif not flags & _PRUNED:
            prev = self.bounded_fail.get(goal, -1)
            self.bounded_fail[goal] = max(prev, budget)
        return None, flags

    def _leaf(self, goal):
        a, d = goal.antecedent, goal.succedent
        hyp = self.hyp_by_key.get(goal)
        if hyp is not None:
            return exchange_chain(ProofTree(hyp, RuleId.HYPOTHESIS),
                                  goal.antecedent)
        if len(a) == 1 and d == a[0]:
            return ProofTree(goal, RuleId.AXIOM)
        if a == () and d == ONE:
            return ProofTree(goal, RuleId.ONE_R)
        if a == (ZERO,) and d is None:
            return ProofTree(goal, RuleId.ZERO_L)
        return None


def _deepening(search: _Search, start: Sequent, bound):
    """Iterative deepening: shallow proofs are found before deep failures
    are explored; stops early when the space closes below the bound."""
    if bound >= 10 ** 6:
        return search.solve(start, frozenset(), bound)
    flags = 0
    for budget in range(1, bound + 1):
        tree, flags = search.solve(start, frozenset(), budget)
        if tree is not None:
            return tree, 0
        if not flags & _BOUNDED:
            return None, flags
    return None, flags


def prove(goal: Sequent, cal: CalculusId, bound=None):
    """Cut-free backward search.  Decides derivability when c is not in
    sigma; with c the search is bounded and Refuted carries a caveat (or
    degrades to Unknown without wl)."""
    check_sequent_language(goal, cal.lang)
    contraction = "c" in cal.sigma
    if bound is None:
        bound = DEFAULT_BOUND if contraction else 10 ** 9
    search = _Search(cal)
    start = search.canon(goal)
    tree, flags = _deepening(search, start, bound)
    if tree is not None:
        return Proved(exchange_chain(tree, goal.antecedent))
    if flags & _BOUNDED:
        return Unknown("depth-exhausted")
    if not contraction:
        return Refuted()
    if "wl" in cal.sigma:
        return Refuted(caveat="search space closed under the loop check; "
                              "refutation with contraction relies on it")
    return Unknown("search space closed under loop check; refutation is "
                   "not claimed for contraction without left-weakening")


def prove_with_hyps(goal: Sequent, hyps, cal: CalculusId, bound=DEFAULT_BOUND,
                    max_antecedent=None, node_cap=50_000):
    """Backward search with hypothesis leaves and Cut enabled, cut formulas
    restricted to subformulas of the goal and hypotheses.  Semidecision:
    never claims Refuted.  Antecedent growth is capped (a little above the
    goal and hypothesis lengths by default) to keep the cut space finite,
    and a deterministic node cap bounds the total effort."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    check_sequent_language(goal, cal.lang)
    hyps = frozenset(hyps)
    universe = set()
    lengths = [len(goal.antecedent)]
    for s in list(hyps) + [goal]:
        lengths.append(len(s.antecedent))
        for f in s.antecedent:
            universe |= subformulas(f)
        if s.succedent is not None:
            universe |= subformulas(s.succedent)
    cuts = tuple(sorted(universe, key=formula_key))
    if max_antecedent is None:
        max_antecedent = max(max(lengths) + 4, 6)
    search = _Search(cal, hyps=hyps, cut_formulas=cuts,
                     max_antecedent=max_antecedent, by_height=True)
    search.node_cap = node_cap
    start = search.canon(goal)
    tree = None
    for budget in range(1, bound + 1):
        tree, _ = search.solve(start, frozenset(), budget)
        if tree is not None or search.nodes > (node_cap or 0) > 0:
            break
    if tree is not None:
        return Proved(exchange_chain(tree, goal.antecedent))
    return Unknown()


def external_entails(premises, conclusion, cal: CalculusId,
                     bound=DEFAULT_BOUND, max_model_size=4):
    """Hilbert-style derivability through the sequent system: premises as
    theoremhood sequents.  Refuted only via an algebraic countermodel."""
    goal = rho_prime(conclusion)
    hyp_seqs = frozenset(rho_prime(f) for f in premises)
    result = prove_with_hyps(goal, hyp_seqs, cal, bound)
    if isinstance(result, Proved):
        return result
    from . import bridge
    from .algebra import AlgebraError, VarietyId, family_of_language
    try:
        variety = VarietyId(family_of_language(cal.lang), cal.sigma)
    except AlgebraError:
        # no named variety matches this language; no countermodel source
        return Unknown("no countermodel search for this language")
    sem = bridge.entails_semantically(hyp_seqs, goal, variety, max_model_size)
    if isinstance(sem, bridge.SemRefuted):
        return Refuted()
    return Unknown()


def _multiset_minus(whole, part):
    out = list(whole)
    for f in part:
        out.remove(f)
    return tuple(out)
