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

Cut-free proofs have the subformula property, so each call compiles the
goal (and the hypotheses) once into a `SubformulaTable` and searches on
table sequents: a tuple of formula numbers and a number for the succedent,
-1 when it is empty.  Numbers sort as formulas do under `formula_key`, so
sorting a table antecedent sorts the multiset in the same order as sorting
the formulas.  The memos keep, for each proved goal, the instance that
proved it; the ProofTree is decoded from them once, at the end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .sequents import (Sequent, check_sequent_language, decode_sequent,
                       encode_sequents, rho_prime)
from .calculus import (CalculusId, ProofTree, RuleId, decode_data, rules_of,
                       table_instances_backward)

DEFAULT_BOUND = 12
SUBMULTISET_CAP = 10

# Flags of a failed search below a goal.  A failure is bounded when one of
# the limits cut it; the bits name the limits, so Unknown can say which.
_PRUNED = 1
_DEPTH = 2
_SPLIT_CAP = 4
_ANTECEDENT_CAP = 8
_NODE_CAP = 16
_BOUNDED = _DEPTH | _SPLIT_CAP | _ANTECEDENT_CAP | _NODE_CAP

_LIMIT_NAMES = ((_DEPTH, "depth-exhausted"),
                (_SPLIT_CAP, "submultiset-cap"),
                (_ANTECEDENT_CAP, "antecedent-cap"),
                (_NODE_CAP, "node-cap"))


def _limits(flags) -> str:
    """The limits named by the flags of a bounded failure, comma-separated."""
    return ", ".join(name for bit, name in _LIMIT_NAMES if flags & bit)


@dataclass(frozen=True)
class Proved:
    tree: ProofTree


@dataclass(frozen=True)
class Refuted:
    caveat: Optional[str] = None


@dataclass(frozen=True)
class Unknown:
    """No verdict.  When a limit cut the search, the reason names each
    limit that fired: depth-exhausted (the depth bound),
    submultiset-cap (an antecedent longer than SUBMULTISET_CAP, whose
    sub-multiset splits were not enumerated), antecedent-cap or node-cap
    (prove_with_hyps)."""
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


def _priority(rec):
    return _PRIORITY[rec[0]]


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


def _multiset_minus(whole, part):
    out = list(whole)
    for f in part:
        out.remove(f)
    return tuple(out)


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
    """One search over the table sequents of one SubformulaTable.

    A proved goal's memo is a proof record (rule, data, conclusion, goal
    antecedent, premises): the instance that proved it, with the concrete
    conclusion, and for each premise its concrete antecedent and the record
    that proved its canonical form.  Records refer to records, so a goal
    proved again later (search by height has no loop check) does not change
    the proofs already built on it."""

    def __init__(self, cal: CalculusId, table, hyps=(), cut_formulas=None,
                 max_antecedent=None, by_height=False):
        self.table = table
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
        # the ancestor loop check, never for hypothesis closure; of two
        # hypotheses with one canonical form, the first in sorted order wins
        self.hyp_by_key = {}
        for h in sorted(hyps):
            self.hyp_by_key.setdefault(self.canon(h), h)
        self.success = {}
        self.abs_fail = set()
        self.bounded_fail = {}   # goal -> (budget, limit flags)
        self.nodes = 0
        self.node_cap = None  # deterministic effort cap; None = unlimited

    def canon(self, s):
        if self.multiset:
            return (tuple(sorted(s[0])), s[1])
        return s

    def _canon_key(self, s):
        if not self.collapse_dups:
            return s
        out = []
        for f in s[0]:
            if len(out) >= 2 and out[-1] == f and out[-2] == f:
                continue
            out.append(f)
        return (tuple(out), s[1])

    # -- instance enumeration -------------------------------------------

    def instances(self, goal):
        """(instances, limit flags) for a canonical goal.  An instance is
        (rule, data, concrete conclusion, ((concrete premise, canonical
        premise), ...)); the concrete parts form a genuine sequence-level
        rule instance.  The flags name the limits that left instances out."""
        if not self.multiset:
            inst = [(rule, data, goal, tuple([(p, p) for p in prems]))
                    for rule, data, prems in table_instances_backward(
                        self.table, goal, self.rules)]
            inst.extend(self._cut_instances_seq(goal))
            flags = 0
        else:
            inst, flags = self._multiset_instances(goal)
        if self.max_antecedent is not None:
            kept = [rec for rec in inst
                    if all(len(p[0]) <= self.max_antecedent
                           for p, _ in rec[3])]
            if len(kept) != len(inst):
                flags |= _ANTECEDENT_CAP
            inst = kept
        inst.sort(key=_priority)
        return inst, flags

    def _cut_instances_seq(self, goal):
        if self.cut_formulas is None or RuleId.CUT not in self.rules:
            return []
        a, d = goal
        out = []
        for chi in self.cut_formulas:
            for i in range(len(a) + 1):
                for j in range(i, len(a) + 1):
                    p1 = (a[i:j], chi)
                    p2 = (a[:i] + (chi,) + a[j:], d)
                    out.append((RuleId.CUT, (i,),
                                goal, ((p1, p1), (p2, p2))))
        return out

    def _multiset_instances(self, goal):
        a, d = goal
        op, left, right = self.table.op, self.table.left, self.table.right
        rules = self.rules
        out = []
        flags = 0
        seen = set()

        def emit(rule, data, concl, *prems):
            canonical = tuple([(tuple(sorted(p[0])), p[1]) for p in prems])
            rec = (rule, data, canonical)
            if rec in seen:
                return
            seen.add(rec)
            out.append((rule, data, concl, tuple(zip(prems, canonical))))

        split_ok = len(a) <= SUBMULTISET_CAP
        for f in sorted(set(a)):
            rest = _remove_once(a, f)
            tail = (rest + (f,), d)
            o = op[f]
            if o == "join" and RuleId.OR_L in rules:
                emit(RuleId.OR_L, (len(rest),), tail,
                     (rest + (left[f],), d), (rest + (right[f],), d))
            elif o == "meet" and RuleId.AND_L1 in rules:
                emit(RuleId.AND_L1, (len(rest), right[f]), tail,
                     (rest + (left[f],), d))
                emit(RuleId.AND_L2, (len(rest), left[f]), tail,
                     (rest + (right[f],), d))
            elif o == "fus" and RuleId.FUS_L in rules:
                emit(RuleId.FUS_L, (len(rest),), tail,
                     (rest + (left[f], right[f]), d))
            elif o == "rimp" and RuleId.RIMP_L in rules:
                if split_ok:
                    for x in _sub_multisets(rest):
                        y = _multiset_minus(rest, x)
                        emit(RuleId.RIMP_L, (len(y),), (y + x + (f,), d),
                             (x, left[f]), (y + (right[f],), d))
                else:
                    flags |= _SPLIT_CAP
            elif o == "limp" and RuleId.LIMP_L in rules:
                if split_ok:
                    for x in _sub_multisets(rest):
                        y = _multiset_minus(rest, x)
                        emit(RuleId.LIMP_L, (len(y),), (y + (f,) + x, d),
                             (x, left[f]), (y + (right[f],), d))
                else:
                    flags |= _SPLIT_CAP
            elif o == "one":
                emit(RuleId.ONE_L, (len(rest),), tail, (rest, d))
            if RuleId.WEAK_L in rules:
                emit(RuleId.WEAK_L, (len(rest), f), tail, (rest, d))
            if RuleId.CONTR_L in rules:
                emit(RuleId.CONTR_L, (len(rest),), tail, (rest + (f, f), d))
            if d < 0:
                if o == "rneg" and RuleId.RNEG_L in rules:
                    emit(RuleId.RNEG_L, (), tail, (rest, left[f]))
                if o == "lneg" and RuleId.LNEG_L in rules:
                    emit(RuleId.LNEG_L, (), ((f,) + rest, d), (rest, left[f]))

        if d >= 0:
            o = op[d]
            if o == "join" and RuleId.OR_R1 in rules:
                emit(RuleId.OR_R1, (right[d],), goal, (a, left[d]))
                emit(RuleId.OR_R2, (left[d],), goal, (a, right[d]))
            elif o == "meet" and RuleId.AND_R in rules:
                emit(RuleId.AND_R, (), goal, (a, left[d]), (a, right[d]))
            elif o == "fus" and RuleId.FUS_R in rules:
                if split_ok:
                    for x in _sub_multisets(a):
                        y = _multiset_minus(a, x)
                        emit(RuleId.FUS_R, (), (x + y, d),
                             (x, left[d]), (y, right[d]))
                else:
                    flags |= _SPLIT_CAP
            elif o == "rimp" and RuleId.RIMP_R in rules:
                emit(RuleId.RIMP_R, (), goal, ((left[d],) + a, right[d]))
            elif o == "limp" and RuleId.LIMP_R in rules:
                emit(RuleId.LIMP_R, (), goal, (a + (left[d],), right[d]))
            elif o == "rneg" and RuleId.RNEG_R in rules:
                emit(RuleId.RNEG_R, (), goal, ((left[d],) + a, -1))
            elif o == "lneg" and RuleId.LNEG_R in rules:
                emit(RuleId.LNEG_R, (), goal, (a + (left[d],), -1))
            elif o == "zero":
                emit(RuleId.ZERO_R, (), goal, (a, -1))
            if RuleId.WEAK_R in rules:
                emit(RuleId.WEAK_R, (d,), goal, (a, -1))

        if self.cut_formulas is not None and RuleId.CUT in rules:
            if split_ok:
                for chi in self.cut_formulas:
                    for x in _sub_multisets(a):
                        y = _multiset_minus(a, x)
                        emit(RuleId.CUT, (len(y),), (y + x, d),
                             (x, chi), (y + (chi,), d))
            else:
                flags |= _SPLIT_CAP
        return out, flags

    # -- the search proper ----------------------------------------------

    def solve(self, goal, ancestors, budget):
        """goal must be canonical.  Returns (proof record of goal or None,
        flags), flags a bitmask of _PRUNED and the limit bits over the
        subtree."""
        if self.node_cap is not None:
            self.nodes += 1
            if self.nodes > self.node_cap:
                return None, _NODE_CAP
        if not self.by_height:
            key = self._canon_key(goal)
            if key in ancestors:
                return None, _PRUNED
        memo = self.success.get(goal)
        if memo is not None:
            return memo, 0
        if goal in self.abs_fail:
            return None, 0
        bounded = self.bounded_fail.get(goal)
        if bounded is not None and budget <= bounded[0]:
            return None, bounded[1]

        leaf = self._leaf(goal)
        if leaf is not None:
            self.success[goal] = leaf
            return leaf, 0

        if budget <= 0:
            return None, _DEPTH

        instances, flags = self.instances(goal)
        if self.commit:
            for rec in instances:
                if rec[0] in _INVERTIBLE:
                    instances = [rec]
                    flags = 0
                    break
        if not self.by_height:
            ancestors = ancestors | {key}
        for rule, data, concl, prems in instances:
            subs = []
            for concrete, canonical in prems:
                sub, sub_flags = self.solve(canonical, ancestors, budget - 1)
                if sub is None:
                    flags |= sub_flags
                    break
                subs.append((concrete[0], sub))
            else:
                record = (rule, data, concl, goal[0], tuple(subs))
                self.success[goal] = record
                return record, 0
        if flags == 0:
            # exhausted without ever hitting the budget: absolute failure
            self.abs_fail.add(goal)
        elif not flags & _PRUNED:
            prev = self.bounded_fail.get(goal)
            if prev is None or budget > prev[0]:
                self.bounded_fail[goal] = (budget, flags)
        return None, flags

    def _leaf(self, goal):
        a, d = goal
        if self.hyp_by_key:
            hyp = self.hyp_by_key.get(goal)
            if hyp is not None:
                return (RuleId.HYPOTHESIS, (), hyp, a, ())
        if len(a) == 1 and d == a[0]:
            return (RuleId.AXIOM, (), goal, a, ())
        op = self.table.op
        if not a and d >= 0 and op[d] == "one":
            return (RuleId.ONE_R, (), goal, a, ())
        if len(a) == 1 and d < 0 and op[a[0]] == "zero":
            return (RuleId.ZERO_L, (), goal, a, ())
        return None

    # -- decoding the proof ---------------------------------------------

    def proof_tree(self, record, target_ant) -> ProofTree:
        """The ProofTree of a proof record, its antecedent permuted into the
        table antecedent `target_ant`.  A record used twice gives one shared
        subtree."""
        built = {}
        return self._arrange(self._build(record, built), record[3],
                             target_ant)

    def _build(self, record, built):
        tree = built.get(id(record))
        if tree is None:
            rule, data, concl, goal_ant, premises = record
            subtrees = tuple(self._arrange(self._build(sub, built), sub[3],
                                           ant)
                             for ant, sub in premises)
            tree = ProofTree(decode_sequent(self.table, concl), rule,
                             subtrees, decode_data(self.table, rule, data))
            tree = self._arrange(tree, concl[0], goal_ant)
            built[id(record)] = tree
        return tree

    def _arrange(self, tree, ant, target_ant):
        """exchange_chain from the table antecedent `ant` of tree's
        conclusion to `target_ant`."""
        if ant == target_ant:
            return tree
        formulas = self.table.formulas
        return exchange_chain(tree, [formulas[i] for i in target_ant])


def _deepening(search: _Search, start, bound):
    """Iterative deepening: shallow proofs are found before deep failures
    are explored; stops early when the space closes below the bound."""
    if bound >= 10 ** 6:
        return search.solve(start, frozenset(), bound)
    flags = 0
    for budget in range(1, bound + 1):
        record, flags = search.solve(start, frozenset(), budget)
        if record is not None:
            return record, 0
        if not flags & _BOUNDED:
            return None, flags
    return None, flags


def prove(goal: Sequent, cal: CalculusId, bound=None):
    """Cut-free backward search.  Decides derivability when c is not in
    sigma; with c the search is bounded and Refuted carries a caveat (or
    degrades to Unknown without wl).  Unknown names the limits that cut
    the search."""
    check_sequent_language(goal, cal.lang)
    contraction = "c" in cal.sigma
    if bound is None:
        bound = DEFAULT_BOUND if contraction else 10 ** 9
    table, (encoded,) = encode_sequents((goal,))
    search = _Search(cal, table)
    record, flags = _deepening(search, search.canon(encoded), bound)
    if record is not None:
        return Proved(search.proof_tree(record, encoded[0]))
    if flags & _BOUNDED:
        return Unknown(_limits(flags))
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
    and a deterministic node cap bounds the total effort.  Unknown names
    the limits that cut the last round of the search."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    check_sequent_language(goal, cal.lang)
    sequents = (goal,) + tuple(frozenset(hyps))
    # the table holds exactly the subformulas of the goal and hypotheses,
    # numbered in formula_key order: all of them are the cut formulas
    table, encoded = encode_sequents(sequents)
    if max_antecedent is None:
        max_antecedent = max(max(len(s.antecedent) for s in sequents) + 4, 6)
    search = _Search(cal, table, hyps=encoded[1:],
                     cut_formulas=tuple(range(len(table))),
                     max_antecedent=max_antecedent, by_height=True)
    search.node_cap = node_cap
    start = search.canon(encoded[0])
    record, flags = None, 0
    for budget in range(1, bound + 1):
        record, flags = search.solve(start, frozenset(), budget)
        if record is not None or search.nodes > (node_cap or 0) > 0:
            break
    if record is not None:
        return Proved(search.proof_tree(record, encoded[0][0]))
    if flags & _BOUNDED:
        return Unknown(_limits(flags))
    return Unknown("search space closed without a proof; refutation is "
                   "not claimed with hypotheses and cut")


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

