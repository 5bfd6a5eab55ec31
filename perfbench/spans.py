"""Span tracing for the benchmark's traced runs.

A traced run wraps the public functions named in ``TARGETS`` (the layers).
Each call of a wrapped function, or each resumption of a wrapped generator,
is one span: (id, parent id, name, start, end).  A span's self time is its
duration minus the time its child spans cover.  The tracer sums calls and
self time per name as spans close, because the decide workload makes
millions of ``holds`` calls, and keeps the first ``keep`` spans raw so they
can be written out at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, function): each is patched in its own module and in every
# substrukt module that imported it by name.
TARGETS = (
    ("sequents", "parse_sequent"),
    ("search", "prove"),
    ("search", "exchange_chain"),
    ("calculus", "rule_instances_backward"),
    ("calculus", "check_proof"),
    ("calculus", "format_proof_sexp"),
    ("algebra", "enumerate_algebras"),
    ("algebra", "monoid_tables"),
    ("algebra", "canonical_key"),
    ("algebra", "check_variety"),
    ("algebra", "holds"),
    ("bridge", "countermodel"),
    ("bridge", "filter_closure"),
    ("bridge", "all_filters"),
    ("bridge", "k_congruences"),
    ("bridge", "leibniz_congruence"),
    ("completion", "nucleus_completion"),
    ("completion", "verify_embedding"),
)


class Tracer:
    """Collects spans from a single thread."""

    def __init__(self, clock=time.perf_counter, keep=50_000):
        self.clock = clock
        self.keep = keep
        self.spans = []    # the first `keep` spans: (id, parent, name, start, end)
        self.dropped = 0   # spans not kept raw (still in `stats`)
        self.stats = {}    # name -> [spans, total_s, self_s]
        self.counts = {}   # counter name -> int
        self._stack = []   # open spans: [id, name, start, child_s]
        self._next_id = 0

    def begin(self, name):
        self._next_id += 1
        frame = [self._next_id, name, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def end(self, frame):
        now = self.clock()
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
        elif any(f is frame for f in stack):
            # a span left open by an interrupt is dropped, not charged
            while stack.pop() is not frame:
                pass
        else:
            return  # already unwound by an outer span
        span_id, name, start, child = frame
        duration = now - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration
        st[2] += duration - child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent[0] if parent else None, name,
                               start, now))
        else:
            self.dropped += 1

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def count(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def self_s(self, name):
        st = self.stats.get(name)
        return st[2] if st else 0.0


def _wrap(tracer, fn, name, on_result):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            tracer.count(name + ".calls")
            gen = fn(*args, **kwargs)
            try:
                while True:
                    frame = tracer.begin(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(frame)
                    tracer.count(name + ".yielded")
                    yield item
            finally:
                gen.close()
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name + ".calls")
        frame = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(frame)
        if on_result is not None:
            on_result(tracer, result, args)
        return result
    return wrapper


def _on_check_variety(tracer, report, args):
    if report.ok:
        tracer.count("algebra.check_variety.ok")
        if tracer.parent_name() == "algebra.enumerate_algebras":
            tracer.count("algebra.enumerate_algebras.candidates_ok")


def _on_countermodel(tracer, result, args):
    if result:
        tracer.count("bridge.countermodel.found")


def _on_all_filters(tracer, filters, args):
    tracer.count("bridge.all_filters.filters", len(filters))


def _on_check_proof(tracer, result, args):
    stack = [args[0]]
    nodes = 0
    while stack:
        node = stack.pop()
        nodes += 1
        stack.extend(node.premises)
    tracer.count("calculus.proof_nodes", nodes)


HOOKS = {
    "algebra.check_variety": _on_check_variety,
    "bridge.countermodel": _on_countermodel,
    "bridge.all_filters": _on_all_filters,
    "calculus.check_proof": _on_check_proof,
}


class Patches:
    """Installs the wrappers for ``TARGETS`` and removes them again."""

    def __init__(self, tracer, package="substrukt"):
        self.tracer = tracer
        self.package = package
        self._undo = []

    def _modules(self):
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == self.package
                                      or key.startswith(self.package + "."))]

    def install(self):
        modules = self._modules()
        for mod_name, fn_name in TARGETS:
            home = sys.modules[f"{self.package}.{mod_name}"]
            original = getattr(home, fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapped = _wrap(self.tracer, original, name, HOOKS.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, original))

    def remove(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False
