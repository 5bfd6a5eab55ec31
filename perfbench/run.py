#!/usr/bin/env python3
"""Run one workload of the substrukt benchmark and print its metrics.

    python3 perfbench/run.py --workload prove --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
harness is a closed loop in one thread: it issues the workload's seeded op
list one op after another, pass after pass, until ``--seconds`` have passed
(the first pass whole, later ones cut at the deadline), and checks every
output.  Between ops it times a fixed block of pure Python, and scales every
time it reports to the reference host speed (see ``hostspeed``).  With
``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
measures the same untraced phase, then wraps the program's layers (see
``spans.TARGETS``) and traces one set-up build and one pass, and reports the
per-layer metrics.

The last line of standard output is the result JSON.  A fuller record (the
tail percentile and its sample count, timed-out goals, failures, verdict
counts, the context of the run, raw spans) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import hostspeed
import spans
import summary
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
REFERENCE_DIR = HERE / "reference"
PROGRAM_MODULES = ("syntax", "sequents", "calculus", "search", "algebra",
                   "bridge", "completion", "corpus")
# Set-up builds the op list at least this many times, and keeps building
# until this much time has passed, so that cheap set-ups get a steadier
# median.
SETUP_MIN_BUILDS = 3
SETUP_MIN_SECONDS = 2.0
MAX_RECORDED = 50   # failures and fingerprint problems kept in the record

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("decided_ratio", "ratio"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

# (layer metric, unit); "<span>.calls" and "<span>.self_s" come from spans
PER_LAYER = (
    ("search.prove.calls", "count"),
    ("search.prove.self_s", "s"),
    ("search.exchange_chain.calls", "count"),
    ("search.exchange_chain.self_s", "s"),
    ("calculus.rule_instances_backward.calls", "count"),
    ("calculus.rule_instances_backward.self_s", "s"),
    ("search.verdict.proved", "count"),
    ("search.verdict.refuted", "count"),
    ("search.verdict.unknown", "count"),
    ("search.verdict.timeout", "count"),
    ("calculus.check_proof.calls", "count"),
    ("calculus.check_proof.self_s", "s"),
    ("calculus.proof_nodes", "count"),
    ("calculus.format_proof_sexp.self_s", "s"),
    ("sequents.parse_sequent.calls", "count"),
    ("sequents.parse_sequent.self_s", "s"),
    ("algebra.enumerate_algebras.calls", "count"),
    ("algebra.enumerate_algebras.self_s", "s"),
    ("algebra.enumerate_algebras.yielded", "count"),
    ("algebra.monoid_tables.yielded", "count"),
    ("algebra.monoid_tables.self_s", "s"),
    ("algebra.canonical_key.calls", "count"),
    ("algebra.canonical_key.self_s", "s"),
    ("algebra.enum_yield_ratio", "ratio"),
    ("algebra.check_variety.calls", "count"),
    ("algebra.check_variety.self_s", "s"),
    ("algebra.check_variety.ok_ratio", "ratio"),
    ("algebra.holds.calls", "count"),
    ("algebra.holds.self_s", "s"),
    ("bridge.countermodel.calls", "count"),
    ("bridge.countermodel.self_s", "s"),
    ("bridge.countermodel.found_ratio", "ratio"),
    ("bridge.filter_closure.calls", "count"),
    ("bridge.filter_closure.self_s", "s"),
    ("bridge.closure_yield_ratio", "ratio"),
    ("bridge.all_filters.self_s", "s"),
    ("bridge.k_congruences.self_s", "s"),
    ("bridge.leibniz_congruence.self_s", "s"),
    ("completion.nucleus_completion.calls", "count"),
    ("completion.nucleus_completion.self_s", "s"),
    ("completion.verify_embedding.calls", "count"),
    ("completion.verify_embedding.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def load_program():
    """Import the program from the checkout's src/; returns (lib, seconds)."""
    if not (SRC / "substrukt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    lib = SimpleNamespace(**{name: importlib.import_module(f"substrukt.{name}")
                             for name in PROGRAM_MODULES})
    seconds = time.perf_counter() - start
    if not Path(lib.search.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: substrukt imported from "
                         f"{lib.search.__file__}, not from {SRC}")
    return lib, seconds


def clear_caches(lib):
    """Make the algebra caches cold, as they are for each CLI invocation:
    every memoized function is cleared, and every module-level dict or set
    whose name says it is a cache."""
    for mod in (lib.algebra, lib.bridge, lib.completion):
        for name, value in list(vars(mod).items()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif "CACHE" in name.upper() and isinstance(value, (dict, set)):
                value.clear()


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class Phase:
    """Latencies, verdicts and failures of consecutive passes."""

    def __init__(self):
        self.latencies = []
        self.codes = []          # verdict letters, in op order
        self.failures = []       # (pass, op index, message)
        self.timed_out = []      # "op index/group" cut by the limit, first pass
        self.fingerprints = []
        self.passes = 0          # complete passes
        self.wall_s = 0.0
        self.meter = hostspeed.Meter()
        for _ in range(hostspeed.FIRST_BLOCKS):
            self.meter.measure()

    @property
    def ops(self):
        return len(self.latencies)


def run_pass(lib, workload, phase, stop_at=math.inf):
    """One pass over the op list.  A pass after the first stops before the
    next op once the clock reads `stop_at`; such a partial pass leaves no
    fingerprint."""
    if workload.cold_caches:
        clear_caches(lib)
    state = workloads.PassState()
    verdicts = {}
    clock = time.perf_counter
    for i, op in enumerate(workload.ops):
        if phase.passes and clock() >= stop_at:
            return
        state.limit_scale = 1.0 / phase.meter.scale()
        start = clock()
        try:
            code = workloads.run_op(lib, op, state)
        except Exception as exc:
            code = "X" * len(op.groups)
            phase.failures.append((phase.passes, i,
                                   f"{type(exc).__name__}: {exc}"))
        latency = clock() - start   # a cut goal: the limit, as measured
        phase.latencies.append(latency)
        phase.meter.after_op(latency)
        phase.codes.extend(code)
        for group, letter in zip(op.groups, code):
            verdicts.setdefault(group, []).append(letter)
            if letter == "T" and phase.passes == 0:
                phase.timed_out.append(f"{i}/{group}")
    phase.passes += 1
    phase.fingerprints.append({
        "verdicts": {g: "".join(v) for g, v in verdicts.items()},
        "totals": {**workload.fixed, **dict(sorted(state.totals.items()))},
    })


def run_phase(lib, workload, seconds, max_passes=None):
    """Passes over the op list until `seconds` have passed: the first pass
    whole, the others stopped at the deadline."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        run_pass(lib, workload, phase, start + seconds)
        phase.wall_s = time.perf_counter() - start
        if phase.wall_s >= seconds or phase.passes == max_passes:
            return phase


def fingerprint_problems(workload, seed, phase):
    """Problems against the committed reference for this seed (if any) and
    between the passes of this run; and the reference status."""
    problems = []
    first = phase.fingerprints[0]
    for k, later in enumerate(phase.fingerprints[1:], start=1):
        problems += [f"pass {k}: {p}"
                     for p in summary.compare_fingerprints(first, later)]
    refs = load_references(workload.name)
    ref = refs.get(str(seed), refs.get("*"))
    if ref is None:
        return problems, "absent"
    problems += [f"reference: {p}"
                 for p in summary.compare_fingerprints(ref, first)]
    return problems, "compared"


def load_references(name):
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)


def write_reference(workload, seed, phase):
    refs = load_references(workload.name)
    key = "*" if workload.name == "filters" else str(seed)
    refs[key] = phase.fingerprints[0]
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / f"{workload.name}.json", "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def decided_ratio(phase):
    """Share of verdicts that are definite: Proved or Refuted for a goal
    under one calculus, a completed report for an algebra op."""
    decided = sum(1 for c in phase.codes if c in "PRD")
    return decided / len(phase.codes)


def ops_per_op_s(phase):
    """Ops per second of op time: the time between ops (checks of the
    host's speed, cache clearing) is not counted."""
    return phase.ops / sum(phase.latencies)


def end_to_end_metrics(setup_s, workload, phase):
    """Every time is scaled to the reference host speed (see hostspeed)."""
    scale = phase.meter.scale()
    p, tail, beyond = summary.tail_percentile(
        phase.latencies, summary.tail_level(len(workload.ops)))
    p50 = statistics.median(phase.latencies)
    failed = len(phase.failures)
    values = {
        "setup_s": setup_s * scale,
        "ops_per_s": ops_per_op_s(phase) / scale,
        "op_p50_ms": p50 * 1000.0 * scale,
        "op_tail_ms": tail * 1000.0 * scale,
        "decided_ratio": decided_ratio(phase),
        "ok_ratio": 1.0 - failed / phase.ops,
        "peak_rss_mb": peak_rss_mb(),
    }
    measured = {"setup_s": setup_s, "ops_per_s": ops_per_op_s(phase),
                "op_p50_ms": p50 * 1000.0,
                "op_tail_ms": tail * 1000.0,
                "wall_ops_per_s": phase.ops / phase.wall_s}
    host = {"scale": scale, "blocks": len(phase.meter.times),
            "block_mean_s": phase.meter.mean_s(),
            "reference_block_s": hostspeed.REFERENCE_BLOCK_S,
            "measured": measured}
    tail_info = {"percentile": p, "samples": phase.ops, "beyond": beyond}
    return values, tail_info, host


def per_layer_metrics(tracer, traced, untraced):
    c = tracer.counts
    values = {}
    for name, _ in PER_LAYER:
        span, _, what = name.rpartition(".")
        if what == "calls":
            values[name] = c.get(name, 0)
        elif what == "self_s":
            values[name] = tracer.self_s(span)
        elif what == "yielded" or name == "calculus.proof_nodes":
            values[name] = c.get(name, 0)
    verdicts = {"proved": "P", "refuted": "R", "unknown": "U", "timeout": "T"}
    for word, letter in verdicts.items():
        values[f"search.verdict.{word}"] = traced.codes.count(letter)

    def ratio(num, den):
        return num / den if den else 0.0

    values["algebra.enum_yield_ratio"] = ratio(
        c.get("algebra.enumerate_algebras.yielded", 0),
        c.get("algebra.enumerate_algebras.candidates_ok", 0))
    values["algebra.check_variety.ok_ratio"] = ratio(
        c.get("algebra.check_variety.ok", 0),
        c.get("algebra.check_variety.calls", 0))
    values["bridge.countermodel.found_ratio"] = ratio(
        c.get("bridge.countermodel.found", 0),
        c.get("bridge.countermodel.calls", 0))
    values["bridge.closure_yield_ratio"] = ratio(
        c.get("bridge.all_filters.filters", 0),
        c.get("bridge.filter_closure.calls", 0))
    values["trace.overhead_ratio"] = ratio(
        ops_per_op_s(traced) / traced.meter.scale(),
        ops_per_op_s(untraced) / untraced.meter.scale())
    return values


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def context():
    uname = os.uname()
    return {
        "python": sys.version,
        "nproc": os.cpu_count(),
        "system": f"{uname.sysname} {uname.release}",
        "machine": uname.machine,
    }


# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's fingerprint as the reference for "
                         "its seed (a run with no failures only)")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    lib, import_s = load_program()
    build = workloads.BUILDERS[args.workload]

    setup_times = []
    while (len(setup_times) < SETUP_MIN_BUILDS
           or sum(setup_times) < SETUP_MIN_SECONDS):
        start = time.perf_counter()
        workload = build(lib, args.seed)
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)

    phase = run_phase(lib, workload, args.seconds)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "op_count": len(workload.ops), "passes": phase.passes,
        "ops_issued": phase.ops, "wall_s": phase.wall_s,
        "import_s": import_s, "setup_builds_s": setup_times,
        "context": context(),
    }
    if args.trace:
        tracer = spans.Tracer()
        with spans.Patches(tracer):
            start = time.perf_counter()
            workload = build(lib, args.seed)
            traced_setup_s = time.perf_counter() - start
            traced = run_phase(lib, workload, 0, max_passes=1)
        metrics = per_layer_metrics(tracer, traced, phase)
        units = dict(PER_LAYER)
        record.update(traced_setup_s=traced_setup_s,
                      layer_stats=tracer.stats, counts=tracer.counts,
                      spans_dropped=tracer.dropped, spans=tracer.spans)
        checked = [phase, traced]
    else:
        metrics, tail_info, host = end_to_end_metrics(setup_s, workload,
                                                      phase)
        units = dict(END_TO_END)
        record.update(tail=tail_info, host_speed=host)
        checked = [phase]

    problems, reference = fingerprint_problems(workload, args.seed, phase)
    if args.trace:
        problems += [f"traced pass: {p}" for p in summary.compare_fingerprints(
            phase.fingerprints[0], traced.fingerprints[0])]
    attempted = sum(p.ops for p in checked)
    failed = sum(len(p.failures) for p in checked)
    record.update(
        reference=reference, fingerprint_problems=problems[:MAX_RECORDED],
        failures=[f for p in checked for f in p.failures][:MAX_RECORDED],
        failed_ratio=failed / attempted,
        timed_out=phase.timed_out,
        verdict_counts=summary.verdict_counts(phase.fingerprints[0]),
        totals=phase.fingerprints[0]["totals"])
    correct = failed == 0 and not problems
    record.update(correct=correct, attempted=attempted, failed=failed,
                  metrics=metrics)
    if args.write_reference and correct and not args.trace:
        write_reference(workload, args.seed, phase)

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    for p in problems[:5]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
