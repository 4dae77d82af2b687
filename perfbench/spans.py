"""Tracing of derivalg from outside the package.

:class:`Tracer` wraps the public functions and methods listed in
:data:`TARGETS` and records one span per call: an id, the id of the
enclosing traced call, the job the call belongs to, the span name and its
start and end times.  Spans stay in memory until the run ends.  A
function that other modules imported by name (``apply`` lives in
``deriv`` but is also a global of ``envfox``, ``genpos`` and ``cli``) is
replaced in every ``derivalg`` module namespace that holds it, so calls
through any of those names are seen.

Hot leaves such as ``bracket_words``, ``Element.__init__`` and
``IndexedElement.__mul__`` are deliberately not wrapped: their time
counts in the self time of the traced function that called them, which
keeps the tracing overhead small.

A span's self time is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
from collections import defaultdict
from time import perf_counter


def _count_rows(tracer, args, result):
    tracer.count("varieties.relation_rows.rows", len(result))


def _count_useful(tracer, args, result):
    if result:
        tracer.count("rowreduce.RowReducer.add.useful")


def _count_rules(tracer, args, result):
    # A reducer hands back the same rules object until a row is added, so
    # a fresh object means the rules were built by this call.
    key = id(args[0])
    if tracer._last_rules.get(key) is result:
        tracer.count("rowreduce.RowReducer.rules.cached")
        return
    tracer._last_rules[key] = result
    tracer.count("rowreduce.RowReducer.rules.built")
    tracer.count(
        "rowreduce.RowReducer.rules.nonzeros", sum(len(r) for r in result.values())
    )


# (span name, module, attributes wrapped under that name, counter hook)
TARGETS = (
    ("freealg.enumerate_reduced", "freealg", ("enumerate_reduced",), None),
    (
        "sexpr.parse",
        "sexpr",
        (
            "parse_word",
            "parse_element",
            "parse_derivation",
            "parse_indexed",
            "parse_index_range",
        ),
        None,
    ),
    ("varieties.relation_rows", "varieties", ("relation_rows",), _count_rows),
    ("varieties.QuotientSpace.reduce", "varieties", ("QuotientSpace.reduce",), None),
    ("rowreduce.RowReducer.add", "rowreduce", ("RowReducer.add",), _count_useful),
    ("rowreduce.RowReducer.rules", "rowreduce", ("RowReducer.rules",), _count_rules),
    ("rowreduce.RowReducer.reduce", "rowreduce", ("RowReducer.reduce",), None),
    ("deriv.apply", "deriv", ("apply",), None),
    ("deriv.lsym_mul", "deriv", ("lsym_mul",), None),
    ("envfox.jacobian", "envfox", ("jacobian",), None),
    ("envfox.env_is_zero", "envfox", ("env_is_zero",), None),
    ("envfox.mat_is_nilpotent", "envfox", ("mat_is_nilpotent",), None),
    ("envfox.JacobianMatrix.matmul", "envfox", ("JacobianMatrix.__matmul__",), None),
    ("genpos.span_check", "genpos", ("span_check",), None),
    ("structconst.check_identity", "structconst", ("check_identity",), None),
    ("structconst.evaluate", "structconst", ("evaluate",), None),
    ("cli.main", "cli", ("main",), None),
)


class Tracer:
    """Span recorder; :meth:`install` wraps the targets, :meth:`uninstall`
    puts the originals back."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (job, id, parent, name, start, end)
        self.counts: dict[tuple, int] = defaultdict(int)  # (job, key) -> n
        self.job = None
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._last_rules: dict[int, object] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counts[(self.job, key)] += n

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((tracer.job, sid, parent, name, start, end))
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target the imported ``derivalg`` still defines; the
        names of absent targets are kept in :attr:`missing`."""
        for name, module, attrs, after in TARGETS:
            mod = importlib.import_module(f"derivalg.{module}")
            found = False
            for attr in attrs:
                owner_name, _, member = attr.rpartition(".")
                if owner_name:
                    owner = getattr(mod, owner_name, None)
                    original = None if owner is None else owner.__dict__.get(member)
                    if original is None:
                        continue
                    self._replace(owner, member, self.wrap(name, original, after))
                else:
                    original = getattr(mod, member, None)
                    if original is None:
                        continue
                    wrapper = self.wrap(name, original, after)
                    for m in _package_modules():
                        for key, value in list(vars(m).items()):
                            if value is original:
                                self._replace(m, key, wrapper)
                found = True
            if not found and name not in self.missing:
                self.missing.append(name)

    def _replace(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def dump(self) -> dict:
        """Spans and counters as JSON-ready data."""
        return {
            "spans": [list(s) for s in self.spans],
            "counts": [[job, key, n] for (job, key), n in self.counts.items()],
            "missing": self.missing,
        }

    def absorb(self, data: dict) -> None:
        """Merge the dump of a traced child process."""
        self.spans.extend(tuple(s) for s in data["spans"])
        for job, key, n in data["counts"]:
            self.counts[(job, key)] += n
        for name in data["missing"]:
            if name not in self.missing:
                self.missing.append(name)


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "derivalg" or name.startswith("derivalg."))
    ]


def self_times(spans) -> dict[tuple, float]:
    """Self time of every span, keyed by ``(job, id)``: its duration minus
    the union of its children's intervals, clipped to its own."""
    children: dict[tuple, list[tuple[float, float]]] = defaultdict(list)
    for job, sid, parent, name, start, end in spans:
        if parent is not None:
            children[(job, parent)].append((start, end))
    out = {}
    for job, sid, parent, name, start, end in spans:
        covered = 0.0
        lo = hi = None
        for s, e in sorted(children.get((job, sid), ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out[(job, sid)] = (end - start) - covered
    return out


def layer_totals(spans, jobs=None) -> dict[str, tuple[int, float]]:
    """``name -> (calls, self seconds)`` over the spans of the given jobs
    (all jobs when ``jobs`` is None)."""
    selfs = self_times(spans)
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for job, sid, parent, name, start, end in spans:
        if jobs is None or job in jobs:
            acc = out[name]
            acc[0] += 1
            acc[1] += selfs[(job, sid)]
    return {name: (calls, secs) for name, (calls, secs) in out.items()}


def counter_totals(counts, jobs=None) -> dict[str, int]:
    """``key -> total`` of the counters of the given jobs (all jobs when
    ``jobs`` is None)."""
    out: dict[str, int] = defaultdict(int)
    for (job, key), n in counts.items():
        if jobs is None or job in jobs:
            out[key] += n
    return dict(out)
