"""Tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest perfbench/selftest.py``.
"""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

import run
from spans import Tracer, layer_totals, self_times
from workloads import (
    CATALOGUE,
    CLI_CHILD,
    TRACE_MARKER,
    ContextWarm,
    IdentityWindow,
    ProbeCold,
    SpanFree,
    coefficient_text,
    word_counts,
)

run.use_checkout()


def test_self_time_of_a_synthetic_nest():
    spans = [
        # job, id, parent, name, start, end
        (0, 0, None, "root", 0.0, 10.0),
        (0, 1, 0, "a", 1.0, 4.0),
        (0, 2, 0, "b", 3.0, 6.0),  # overlaps a: together they cover 1..6
        (0, 3, 1, "leaf", 1.5, 2.0),
        (0, 4, 0, "b", 9.0, 12.0),  # sticks out of root: only 9..10 counts
        (1, 0, None, "root", 0.0, 2.0),  # same ids in another job
        (1, 1, 0, "a", 0.5, 1.0),
    ]
    selfs = self_times(spans)
    assert selfs[(0, 0)] == pytest.approx(10 - 5 - 1)
    assert selfs[(0, 1)] == pytest.approx(3 - 0.5)
    assert selfs[(0, 3)] == pytest.approx(0.5)
    assert selfs[(1, 0)] == pytest.approx(1.5)
    totals = layer_totals(spans)
    assert totals["root"] == (2, pytest.approx(4 + 1.5))
    assert totals["b"] == (2, pytest.approx(3 + 3))
    assert layer_totals(spans, {1}) == {
        "root": (1, pytest.approx(1.5)),
        "a": (1, pytest.approx(0.5)),
    }


def test_tracer_patches_every_namespace_and_restores_it():
    import derivalg
    from derivalg import deriv, envfox, genpos, Element, Signature, generator

    original = deriv.apply
    tracer = Tracer()
    tracer.job = 7
    tracer.install()
    try:
        assert envfox.apply is genpos.apply is derivalg.apply is deriv.apply
        assert deriv.apply is not original
        envfox.omega(Element.from_word(Signature(2, True, False, 1), generator(1)))
    finally:
        tracer.uninstall()
    assert envfox.apply is genpos.apply is derivalg.apply is deriv.apply is original
    assert [(s[0], s[3]) for s in tracer.spans] == [(7, "deriv.apply")]
    assert tracer.missing == []


def test_traced_cli_child_reports_spans():
    proc = subprocess.run(
        [sys.executable, CLI_CHILD, "3", "apply", "D[(x1 x1)]", "x1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out, _, dump = proc.stdout.rpartition(TRACE_MARKER)
    assert out == "(x1 x1)\n"
    names = {(s[0], s[3]) for s in json.loads(dump)["spans"]}
    assert {(3, "cli.main"), (3, "sexpr.parse"), (3, "deriv.apply")} <= names


def test_word_counts_and_coefficient_text():
    assert word_counts(11) == [1, 1, 1, 2, 3, 6, 11, 23, 46, 98, 207]
    assert coefficient_text(Fraction(1), "U(x1)") == "U(x1)"
    assert coefficient_text(Fraction(-1), "U(x1)") == "-U(x1)"
    assert coefficient_text(Fraction(-3, 2), "U(x1)") == "-3/2*U(x1)"


def test_probe_cold_check_rejects_corrupted_output():
    w = ProbeCold()
    job = (Fraction(3, 4), Fraction(-2))
    good = (0, "[[3/2*U(x1)]]\nnilpotency: unknown\n", "")
    assert w.check(None, job, good) == []
    for bad in [
        (0, "[[3/4*U(x1)]]\nnilpotency: unknown\n", ""),
        (0, "[[3/2*U(x1)]]\nnilpotency: 2\n", ""),
        (1, good[1], ""),
        (0, good[1], "Traceback (most recent call last):\n"),
    ]:
        assert w.check(None, job, bad)


@pytest.fixture(scope="module")
def warm():
    w = ContextWarm(blocks=4)
    return w, w.setup(5)


def test_context_warm_checks_reject_corrupted_outputs(warm):
    from derivalg import UNKNOWN, Derivation, Element, enumerate_reduced

    w, state = warm
    doubled = state["doubled"]
    pivot = next(u for u in enumerate_reduced(doubled.sig, 6) if u not in doubled.basis(6))

    def corrupted(query, out):
        kind, _ = query
        if kind == "nf":
            yield out + Element.from_word(out.sig, pivot)
        elif kind == "jac":
            yield 1 if out is UNKNOWN else UNKNOWN
        else:
            product, verdict = out
            if not product.is_zero:
                yield Derivation(product.sig, [2 * f for f in product.coords], doubled), verdict
            yield product, 1 if verdict is UNKNOWN else UNKNOWN

    for block in state["pool"]:
        assert [kind for kind, _ in block] == ["nf", "jac", "jac", "jac", "jac", "lsym"]
        outs = w.run(state, block)
        assert w.check(state, block, outs) == []
        for q, (query, out) in enumerate(zip(block, outs)):
            for bad in corrupted(query, out):
                assert w.check(state, block, outs[:q] + (bad,) + outs[q + 1 :])


def test_span_free_check_rejects_corrupted_report():
    w = SpanFree(max_degree=5)
    state = w.setup(1)
    job = w.job(state, 0)
    report = w.run(state, job)
    assert w.check(state, job, report) == []

    class Off:
        rows = tuple((d, got + (d == 4), want) for d, got, want in report.rows)
        passed = False

        def dimensions(self):
            return tuple(got for _, got, _ in self.rows)

    assert w.check(state, job, Off())


def test_identity_window_check_rejects_corrupted_verdicts():
    from derivalg import Counterexample

    w = IdentityWindow(max_index=3)
    state = w.setup(1)
    job = w.job(state, 0)
    assert sorted((e[0].name, e[2], repr(e[4])) for e in job) == sorted(
        (alg, lo, repr(verdict)) for alg, _, lo, _, verdict in CATALOGUE
    )
    outs = w.run(state, job)
    assert w.check(state, job, outs) == []
    for q, ((alg, _, _, _, verdict), found) in enumerate(zip(job, outs)):
        if verdict is None:
            bads = [Counterexample((alg.min_index,) * 3, alg.basis(alg.min_index + 1))]
        else:
            bads = [Counterexample(found.indices, found.defect.scale(2)), None]
        for bad in bads:
            assert w.check(state, job, outs[:q] + (bad,) + outs[q + 1 :])


@pytest.mark.parametrize(
    "make", [ProbeCold, lambda: ContextWarm(blocks=2), lambda: SpanFree(max_degree=5),
             lambda: IdentityWindow(max_index=3)],
)
def test_every_workload_runs_tiny_without_failures(make):
    w = make()
    w.setup_samples = 2  # one in-process sample and one fresh interpreter
    report = run.timed_run(w, seed=3, seconds=0)
    assert report["attempted"] >= 1
    assert report["failed"] == 0, report["problems"]
    for name, (value, unit) in report["metrics"].items():
        assert value > 0, name


def test_traced_run_reports_every_layer_metric():
    w = IdentityWindow(max_index=3)
    report = run.traced_run(w, seed=3)
    assert report["failed"] == 0, report["problems"]
    names = [m[0] for m in run.LAYER_METRICS] + ["trace.overhead_s"]
    assert list(report["metrics"]) == names
    assert report["metrics"]["structconst.evaluate.calls"][0] > 0
