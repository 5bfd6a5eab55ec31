"""The benchmark's four workloads: seeded op lists, the ops themselves, and
the checks on every output.

Every call into the program goes through a module attribute (``lib.search.
prove``), never through a name bound at import, so that a traced run's
patches take effect.  An op returns a one-letter verdict for the behaviour
fingerprint and raises ``CheckFailed`` when an output is wrong.
"""

from __future__ import annotations

import bisect
import itertools
import random
import signal
from dataclasses import dataclass, field

SIGMA_CODES = ("e", "wl", "wr", "c")
ALL_SIGMAS = tuple(frozenset(c) for k in range(len(SIGMA_CODES) + 1)
                   for c in itertools.combinations(SIGMA_CODES, k))
FAMILIES = ("Msl", "Ml", "PMsl", "PMl", "FL")

# A contraction or decide op is a batch of four goals.  There, latencies of
# single goals spread over four decades, and in contraction whether a goal
# hits the time limit depends mostly on the goal, so the median and tail of
# single goals move by about a fifth from seed to seed; those of batches by
# a few percent.  A prove op is one goal: most prove goals take a fraction
# of a millisecond, and batches would put the tail among the few batches
# that hold a slow goal.
GOALS_PER_OP = 4

# Every prover call runs under a per-goal time limit, in seconds at the
# reference host speed (see hostspeed): the harness stretches it by the
# host's measured slowness, so that which goals hit it does not depend on
# how busy the host is.  In contraction it keeps goals that run for minutes
# in the op list without letting them dominate it.  In prove and decide
# every goal ends, but a handful per thousand take half a second or more;
# uncapped, they alone would set the throughput, and which seed draws them
# would decide the result.
DECIDABLE_TIME_LIMIT_S = 0.1
CONTRACTION_TIME_LIMIT_S = 0.01

# prove: the decidable regime (no c).  9,600 goals: below 10,000, so the
# tail metric is p99 (96 goals beyond); at p99.9 it would read the time
# limit, which 0.1-0.2% of the goals reach.
PROVE_LANGS = ("core", "full")
PROVE_SIGMAS = ("", "e", "wl", "wl,wr")
PROVE_PER_GROUP = 1100         # random goals per (language, sigma)
MIRROR_PER_SIGMA = 200         # mirrored derivations per sigma
# A goal's cost grows with its size (log latency and text length correlate
# at 0.85), and the slowest 1% are almost all among the longest tenth of
# the goals.  So that the tail does not depend on how many long goals a
# seed happens to draw, random goals are drawn by length stratum: the
# strata are the quantiles below of the generator's text lengths (taken
# from a fixed-seed pilot sample), and each (language, sigma) gets the same
# share of its goals from each stratum, whatever the seed.
PROVE_STRATA = (0.5, 0.8, 0.9, 0.95, 0.98, 0.99)
PROVE_PILOT_SEED = 0
PROVE_PILOT_GOALS = 2000       # per language

# contraction: the bounded regime; each goal proved under all five sigmas
CONTRACTION_SIGMAS = ("c", "e,c", "wl,c", "e,wl,c", "e,wl,wr,c")
CONTRACTION_GOALS = 500

# decide: prover plus countermodel search over the matching variety
DECIDE_LANGS = (("core", "Msl"), ("core-meet", "Ml"), ("full", "FL"))
DECIDE_SIGMAS = ("", "e", "wl")
DECIDE_PER_GROUP = 400
DECIDE_MAX_SIZE = 4

# filters: the algebra-file verbs over enumerated algebras
FILTERS_MAX_SIZE = 3
COMPLETION_MAX_SIZE = 4


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


class GoalTimeout(BaseException):
    """Raised in the main thread when a goal's time limit expires.  A
    BaseException, so that no ``except Exception`` in the program can
    swallow it."""


def _raise_timeout(signum, frame):
    raise GoalTimeout()


class deadline:
    """Interrupts the enclosed block after `seconds` with GoalTimeout,
    using the real-time interval timer of the main thread.  The benchmark
    owns SIGALRM, so the handler stays installed: a signal that arrives
    after the block's last statement still lands inside the caller's
    ``except GoalTimeout``."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


def sigma_label(sigma):
    return "+".join(s for s in SIGMA_CODES if s in sigma) or "0"


@dataclass(frozen=True)
class Query:
    """One goal for one calculus; with a variety, also a countermodel
    search (the decide verb)."""
    group: str                 # fingerprint group, e.g. "core/e"
    text: str                  # the goal as the program receives it
    goal: object               # the Sequent the text must parse to
    cal: object                # the CalculusId
    variety: object = None
    derived: bool = False      # derivable by construction


@dataclass(frozen=True)
class SequentOp:
    """Queries run in turn; the op's verdict has one letter per query."""
    queries: tuple
    time_limit: float          # seconds for each prover call

    @property
    def groups(self):
        return tuple(q.group for q in self.queries)


@dataclass(frozen=True)
class AlgebraOp:
    groups: tuple              # ("correspondence",) or ("completion",)
    algebra: object
    variety: object


@dataclass
class PassState:
    """What one pass over a workload's op list accumulates."""
    totals: dict = field(default_factory=dict)
    verified: dict = field(default_factory=dict)   # countermodels checked
    limit_scale: float = 1.0   # wall seconds per second of a time limit


@dataclass
class Workload:
    name: str
    ops: list
    fixed: dict                # seed-independent fingerprint parts
    cold_caches: bool = False  # decide: enumeration cache cold each pass


# ---------------------------------------------------------------------------
# Op lists
# ---------------------------------------------------------------------------

def _query(lib, group, goal, cal, **kw):
    return Query(group, lib.sequents.format_sequent(goal), goal, cal, **kw)


def _batches(queries, size):
    return [tuple(queries[i:i + size]) for i in range(0, len(queries), size)]


def _random_goal(lib, rng, lang):
    goal = lib.corpus.random_sequent(rng, depth=rng.choice((3, 4)), lang=lang)
    return goal, len(lib.sequents.format_sequent(goal))


def _stratified_goals(lib, rng, lang, bounds, count):
    """`count` random goals, the same share of them from each length
    stratum (`bounds` split the strata) as `PROVE_STRATA` gives."""
    cuts = [round(q * count) for q in PROVE_STRATA] + [count]
    quota = [b - a for a, b in zip([0] + cuts, cuts)]
    goals = []
    while len(goals) < count:
        goal, length = _random_goal(lib, rng, lang)
        k = bisect.bisect_left(bounds, length)
        if quota[k]:
            quota[k] -= 1
            goals.append(goal)
    return goals


def _length_bounds(lib, lang):
    pilot = random.Random(PROVE_PILOT_SEED)
    lengths = sorted(_random_goal(lib, pilot, lang)[1]
                     for _ in range(PROVE_PILOT_GOALS))
    return [lengths[int(q * len(lengths))] for q in PROVE_STRATA]


def build_prove(lib, seed):
    rng = random.Random(seed)
    queries = []
    for lang_name in PROVE_LANGS:
        lang = lib.syntax.Language.preset(lang_name)
        bounds = _length_bounds(lib, lang)
        for sigma in PROVE_SIGMAS:
            cal = lib.calculus.calculus(sigma, lang)
            group = f"{lang_name}/{sigma_label(cal.sigma)}"
            for goal in _stratified_goals(lib, rng, lang, bounds,
                                          PROVE_PER_GROUP):
                queries.append(_query(lib, group, goal, cal))
    for sigma in PROVE_SIGMAS:
        cal = lib.calculus.calculus(sigma)
        group = f"mirror/{sigma_label(cal.sigma)}"
        for _ in range(MIRROR_PER_SIGMA):
            tree = lib.corpus.random_derivation(rng, cal, height=5)
            goal = lib.sequents.mirror_sequent(tree.conclusion)
            queries.append(_query(lib, group, goal, cal, derived=True))
    rng.shuffle(queries)   # a run's last, partial pass is a fair sample
    ops = [SequentOp((q,), DECIDABLE_TIME_LIMIT_S) for q in queries]
    return Workload("prove", ops, {})


def build_contraction(lib, seed):
    rng = random.Random(seed)
    lang = lib.syntax.Language.preset("core")
    cals = [lib.calculus.calculus(s, lang) for s in CONTRACTION_SIGMAS]
    queries = []
    for _ in range(CONTRACTION_GOALS):
        goal = lib.corpus.random_sequent(rng, depth=3, lang=lang)
        queries += [_query(lib, f"core/{sigma_label(cal.sigma)}", goal, cal)
                    for cal in cals]
    ops = [SequentOp(batch, CONTRACTION_TIME_LIMIT_S)
           for batch in _batches(queries, GOALS_PER_OP * len(cals))]
    return Workload("contraction", ops, {})


def build_decide(lib, seed):
    rng = random.Random(seed)
    queries = []
    for lang_name, family in DECIDE_LANGS:
        lang = lib.syntax.Language.preset(lang_name)
        for sigma in DECIDE_SIGMAS:
            cal = lib.calculus.calculus(sigma, lang)
            variety = lib.algebra.VarietyId(family, cal.sigma)
            group = f"{family}/{sigma_label(cal.sigma)}"
            for _ in range(DECIDE_PER_GROUP):
                goal = lib.corpus.random_sequent(rng, depth=3, lang=lang)
                queries.append(_query(lib, group, goal, cal, variety=variety))
    rng.shuffle(queries)
    ops = [SequentOp(batch, DECIDABLE_TIME_LIMIT_S)
           for batch in _batches(queries, GOALS_PER_OP)]
    return Workload("decide", ops, {}, cold_caches=True)


def build_filters(lib, seed):
    VarietyId = lib.algebra.VarietyId
    ops = []
    algebras = {}
    for family in FAMILIES:
        for sigma in ALL_SIGMAS:
            variety = VarietyId(family, sigma)
            for size in range(1, FILTERS_MAX_SIZE + 1):
                found = list(lib.algebra.enumerate_algebras(variety, size))
                algebras[f"algebras/{family}/{sigma_label(sigma)}/{size}"] = \
                    len(found)
                ops.extend(AlgebraOp(("correspondence",), a, variety)
                           for a in found)
    msl = VarietyId("Msl")
    for size in range(1, COMPLETION_MAX_SIZE + 1):
        found = list(lib.algebra.enumerate_algebras(msl, size))
        algebras[f"algebras/Msl/0/{size}"] = len(found)
        ops.extend(AlgebraOp(("completion",), a, msl) for a in found)
    random.Random(seed).shuffle(ops)
    return Workload("filters", ops, algebras)


BUILDERS = {
    "prove": build_prove,
    "contraction": build_contraction,
    "decide": build_decide,
    "filters": build_filters,
}


# ---------------------------------------------------------------------------
# Running one op
# ---------------------------------------------------------------------------

def _count(totals, key, k=1):
    totals[key] = totals.get(key, 0) + k


def _check_proved(lib, cal, goal, tree):
    report = lib.calculus.check_proof(tree, cal)
    if not report.ok:
        raise CheckFailed(f"proof rejected by check_proof: {report.reason}")
    if tree.conclusion != goal:
        raise CheckFailed("proof concludes a different sequent")
    lib.calculus.format_proof_sexp(tree)


def _verify_countermodel(lib, q, goal, found, state):
    """A Found countermodel must be in the variety and falsify tau(goal)
    under the assignment it reports."""
    a = found.algebra
    key = (q.variety, id(a))
    if key not in state.verified:
        state.verified[key] = (a, lib.algebra.check_variety(a, q.variety).ok)
    if not state.verified[key][1]:
        raise CheckFailed(f"countermodel {a.name} is not in {q.variety}")
    (eq,) = lib.sequents.tau(goal)
    values = {name: a.elements.index(elem)
              for name, elem in found.assignment.items()}
    if lib.algebra.holds(a, eq, values):
        raise CheckFailed("countermodel satisfies tau(goal)")
    _count(state.totals, f"found/{q.variety}/{a.n}")


def run_sequent_op(lib, op, state):
    return "".join(_run_query(lib, op, q, state) for q in op.queries)


def _run_query(lib, op, q, state):
    goal = lib.sequents.parse_sequent(q.text, q.cal.lang)
    if goal != q.goal:
        raise CheckFailed("parse_sequent changed the goal")
    try:
        with deadline(op.time_limit * state.limit_scale):
            result = lib.search.prove(goal, q.cal)
    except GoalTimeout:
        result = None
    if result is None:
        verdict = "T"
    elif isinstance(result, lib.search.Proved):
        _check_proved(lib, q.cal, goal, result.tree)
        verdict = "P"
    elif isinstance(result, lib.search.Refuted):
        if q.derived:
            raise CheckFailed("a derivable goal was refuted")
        verdict = "R"
    elif isinstance(result, lib.search.Unknown):
        verdict = "U"
    else:
        raise CheckFailed(f"prove returned {type(result).__name__}")
    if q.variety is not None:
        found = lib.bridge.countermodel(goal, q.variety, DECIDE_MAX_SIZE)
        if isinstance(found, lib.bridge.Found):
            if verdict == "P":
                raise CheckFailed("proved goal has a countermodel")
            _verify_countermodel(lib, q, goal, found, state)
            verdict = "R"
    return verdict


def run_algebra_op(lib, op, state):
    if op.groups == ("correspondence",):
        report = lib.bridge.filter_congruence_correspondence(op.algebra,
                                                             op.variety)
        if not report.ok:
            raise CheckFailed(f"correspondence failed: {report.failures[:1]}")
        _count(state.totals, "filters", report.n_filters)
        _count(state.totals, "congruences", report.n_congruences)
    else:
        completion, embedding = lib.completion.ideal_completion(op.algebra)
        report = lib.completion.verify_embedding(op.algebra, completion,
                                                 embedding)
        if not report.ok:
            raise CheckFailed(f"embedding failed: {report.failures[:1]}")
        _count(state.totals, "embeddings")
    return "D"


def run_op(lib, op, state):
    if isinstance(op, SequentOp):
        return run_sequent_op(lib, op, state)
    return run_algebra_op(lib, op, state)
