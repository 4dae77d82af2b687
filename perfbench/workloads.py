"""The four workloads of the derivalg benchmark.

Each workload has the same shape:

* ``setup(seed)`` imports ``derivalg``, draws every input from ``seed``
  and builds whatever a user keeps between jobs; it returns a state;
* ``job(state, i)`` is the input of job ``i`` (inputs are drawn into a
  pool during set-up and reused cyclically);
* ``run(state, job, tracer)`` is the timed call;
* ``check(state, job, out)`` verifies an output by a second route and
  returns the list of problems found (empty when the output is right);
  a repeated job must give an output equal to its first one.

The package is imported inside the methods, at call time, so that the
wrappers of a traced run are the functions called.  Checks run after the
timed loop, never inside it.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_CHILD = os.path.join(HERE, "cli_child.py")
TRACE_MARKER = "@@perfbench-trace "


def word_counts(max_length: int) -> list[int]:
    """Numbers of canonical words of the binary symmetric one-generator
    signature of lengths 1..max_length, from the recursion over unordered
    pairs of subtrees rather than the package's enumeration."""
    counts = {1: 1}
    for n in range(2, max_length + 1):
        total = sum(counts[i] * counts[n - i] for i in range(1, (n - 1) // 2 + 1))
        if n % 2 == 0:
            half = counts[n // 2]
            total += half * (half + 1) // 2
        counts[n] = total
    return [counts[n] for n in range(1, max_length + 1)]


def draw_rational(rng: random.Random) -> Fraction:
    """A nonzero rational with numerator and denominator up to 9."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def coefficient_text(k: Fraction, body: str) -> str:
    """``k*body`` the way the package prints a single term."""
    mag = abs(k)
    text = body if mag == 1 else f"{mag}*{body}"
    return f"-{text}" if k < 0 else text


class ProbeCold:
    """``derivalg jacobian "D[c*(x1 x1)]" --probe 8 --identity
    "c'*(x1 (x1 (x1 x1)))"`` as a fresh process per job."""

    name = "probe_cold"
    in_process = False
    setup_samples = 15
    traced_jobs = 2
    pool = 64

    def setup(self, seed: int):
        import derivalg  # noqa: F401  (import time is part of set-up)

        rng = random.Random(seed)
        return [(draw_rational(rng), draw_rational(rng)) for _ in range(self.pool)]

    def job(self, state, i: int):
        return state[i % len(state)]

    @staticmethod
    def argv(job) -> list[str]:
        c, c2 = job
        return [
            "jacobian",
            f"D[{c}*(x1 x1)]",
            "--probe",
            "8",
            "--identity",
            f"{c2}*(x1 (x1 (x1 x1)))",
        ]

    def run(self, state, job, tracer=None):
        trace = tracer is not None
        proc = subprocess.run(
            [sys.executable, CLI_CHILD, str(tracer.job) if trace else "-"]
            + self.argv(job),
            capture_output=True,
            text=True,
            timeout=150,
        )
        stdout = proc.stdout
        if trace:
            head, sep, dump = stdout.rpartition(TRACE_MARKER)
            if sep:
                tracer.absorb(json.loads(dump))
                stdout = head
        return proc.returncode, stdout, proc.stderr

    def check(self, state, job, out) -> list[str]:
        code, stdout, stderr = out
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if "Traceback" in stderr:
            problems.append("traceback on stderr")
        c, _ = job
        want = f"[[{coefficient_text(2 * c, 'U(x1)')}]]\nnilpotency: unknown\n"
        if stdout != want:
            problems.append(f"printed {stdout!r}, expected {want!r}")
        return problems


class ContextWarm:
    """Queries against one kept quotient and its doubled quotient.

    A job is one block of six queries in a fixed mix: a normal form, four
    Jacobian probes and a contextual product.  Single queries cost from
    0.1 ms to 50 ms depending on the words drawn, so the median of single
    queries would sit on the edge between two kinds; the cost of a block
    has one mode, and its median moves only with the speed of the code."""

    name = "context_warm"
    in_process = True
    setup_samples = 3
    traced_jobs = 25
    truncation = 8

    def __init__(self, blocks: int = 100):
        self.blocks = blocks

    def setup(self, seed: int):
        from derivalg import (
            Derivation,
            Element,
            Signature,
            enumerate_reduced,
            parse_element,
            quotient_space,
            variety,
        )

        rng = random.Random(seed)
        sig = Signature(2, True, False, 1)
        ident = parse_element(f"{draw_rational(rng)}*(x1 (x1 (x1 x1)))", sig)
        space = quotient_space(variety(sig, ident), self.truncation)
        doubled = space.doubled()
        for s in (space, doubled):
            # one word per degree builds every level and its rewrite rules
            s.reduce(
                Element(
                    s.sig,
                    [
                        (enumerate_reduced(s.sig, d)[0], 1)
                        for d in range(1, self.truncation + 1)
                    ],
                )
            )
        dsig = doubled.sig

        def element(s, degrees):
            """One term of each listed degree: the degrees are fixed, so
            seeds differ only in the words and coefficients drawn."""
            return Element(
                s,
                [(rng.choice(enumerate_reduced(s, d)), draw_rational(rng)) for d in degrees],
            )

        nf_degrees = [4 + j % (self.truncation - 3) for j in range(12)]
        pool = []
        for _ in range(self.blocks):
            block = [("nf", element(dsig, nf_degrees))]
            for e in (2, 3, 3, 3):
                block.append(("jac", Derivation(sig, [element(sig, (e,))])))
            left = Derivation(dsig, [element(dsig, (2, 3)) for _ in range(2)], doubled)
            right = Derivation(dsig, [element(dsig, (2, 3, 4)) for _ in range(2)], doubled)
            # a degree-1 element of the doubled algebra, substituted into the
            # identity by the product check
            shift = element(dsig, (1, 1))
            block.append(("lsym", (left, right, shift)))
            pool.append(tuple(block))
        return {"space": space, "doubled": doubled, "ident": ident, "pool": pool}

    def job(self, state, i: int):
        return state["pool"][i % len(state["pool"])]

    def run(self, state, job, tracer=None):
        return tuple(self.query(state, q) for q in job)

    def query(self, state, query):
        from derivalg import is_right_nilpotent, jacobian, lsym_mul, mat_is_nilpotent

        kind, data = query
        if kind == "nf":
            return state["doubled"].reduce(data)
        if kind == "jac":
            return mat_is_nilpotent(jacobian(data), self.truncation, state["space"])
        left, right, _ = data
        return lsym_mul(left, right), is_right_nilpotent(left)

    def check(self, state, job, out) -> list[str]:
        return [p for q, o in zip(job, out) for p in self.check_query(state, q, o)]

    def check_query(self, state, query, out) -> list[str]:
        kind, data = query
        if kind == "nf":
            return self._check_normal_form(state, data, out)
        if kind == "jac":
            want = self._jacobian_verdict(state, data)
            if out != want:
                return [f"Jacobian probe of {data} gave {out}, expected {want}"]
            return []
        return self._check_product(state, data, out)

    @staticmethod
    def _check_normal_form(state, a, nf) -> list[str]:
        doubled = state["doubled"]
        problems = []
        if doubled.reduce(nf) != nf:
            problems.append(f"normal form of {a} is not idempotent")
        for w, _ in nf:
            if w not in doubled.basis(w.length):
                problems.append(f"normal form of {a} uses the pivot word {w}")
        return problems

    def _jacobian_verdict(self, state, d):
        """Nilpotency index of the Jacobian of ``f d1`` by another route:
        ``J^k`` sends the partner ``y1`` to the universal derivative of
        ``f`` with ``y1`` replaced by ``J^(k-1) y1``, reduced in the doubled
        quotient.  No operator algebra is involved."""
        from derivalg import (
            UNKNOWN,
            Derivation,
            Element,
            TruncationError,
            apply,
            generator,
            substitute,
        )

        doubled = state["doubled"]
        dsig = doubled.sig
        x1 = Element.from_word(dsig, generator(1))
        y1 = Element.from_word(dsig, generator(2))
        (f,) = d.coords
        omega = apply(Derivation(dsig, [y1, Element.zero(dsig)]), Element(dsig, f.terms))
        g = y1
        try:
            for k in range(1, self.truncation + 1):
                g = doubled.reduce(substitute(omega, {1: x1, 2: g}))
                if g.is_zero:
                    return k
        except TruncationError:
            return UNKNOWN
        return None

    def _check_product(self, state, data, out) -> list[str]:
        """The contextual product must equal the free product of other
        representatives, reduced afterwards, and the right-nilpotency
        verdict must match free right powers reduced after each step."""
        from derivalg import UNKNOWN, Derivation, TruncationError, lsym_mul, substitute

        doubled = state["doubled"]
        left, right, shift = data
        product, verdict = out
        sig = left.sig
        bump = substitute(state["ident"], {1: shift})  # lies in the T-ideal
        free_left = Derivation(sig, [f + bump for f in left.coords])
        free_right = Derivation(sig, [right.coords[0], right.coords[1] - bump])
        want = [doubled.reduce(f) for f in lsym_mul(free_left, free_right).coords]
        problems = []
        if list(product.coords) != want:
            problems.append(f"contextual product {product} differs from the reduced free product")

        free = Derivation(sig, left.coords)
        p = free
        want_verdict = None
        if p.is_zero:
            want_verdict = 1
        else:
            try:
                for r in range(2, 11):
                    p = Derivation(sig, [doubled.reduce(f) for f in lsym_mul(p, free).coords])
                    if p.is_zero:
                        want_verdict = r
                        break
            except TruncationError:
                want_verdict = UNKNOWN
        if verdict != want_verdict:
            problems.append(f"right nilpotency {verdict}, expected {want_verdict}")
        return problems


class SpanFree:
    """``span_check`` on the binary one-generator signature, with the
    seeds ``E`` and ``D`` rescaled."""

    name = "span_free"
    in_process = True
    setup_samples = 15
    traced_jobs = 1
    pool = 16

    def __init__(self, max_degree: int = 10):
        self.max_degree = max_degree

    def setup(self, seed: int):
        from derivalg import Signature, euler_derivation, seed_derivation

        rng = random.Random(seed)
        sig = Signature(2, True, False, 1)
        e, d = euler_derivation(sig), seed_derivation(sig)
        scales = [(draw_rational(rng), draw_rational(rng)) for _ in range(self.pool)]
        return sig, [(a * e, b * d) for a, b in scales]

    def job(self, state, i: int):
        sig, seeds = state
        return seeds[i % len(seeds)]

    def run(self, state, job, tracer=None):
        from derivalg import span_check

        return span_check(state[0], self.max_degree, seeds=job)

    def check(self, state, job, report) -> list[str]:
        want = word_counts(self.max_degree + 1)
        problems = []
        if list(report.dimensions()) != want:
            problems.append(f"closure dimensions {report.dimensions()}, expected {want}")
        if [w for _, _, w in report.rows] != want or not report.passed:
            problems.append(f"span report rows {report.rows} do not match {want}")
        return problems


# (algebra, identity, lo, hi, first counterexample and its defect or None)
CATALOGUE = (
    ("witt1", "jacobi", -1, 10, None),
    ("witt1", "left_symmetric", -1, 12, None),
    ("witt1", "novikov", -1, 12, None),
    ("leibniz_der", "left_symmetric", 0, 12, None),
    ("leibniz_der", "novikov", 0, 12, ((0, 1, 2), {3: -1})),
    ("dual_leibniz_der", "left_symmetric", 0, 12, None),
    ("dual_leibniz_alg", "left_symmetric", 1, 12, ((1, 2, 1), {4: -2})),
)


class IdentityWindow:
    """A job is one pass over the catalogue, in a seeded order.  Single
    checks cost from 2 ms to 1 s, so the median of single checks would be
    the cost of one catalogue entry; a pass has one cost, moved by every
    entry."""

    name = "identity_window"
    in_process = True
    setup_samples = 15
    traced_jobs = 1
    pool = 32  # passes

    def __init__(self, max_index: int | None = None):
        self.max_index = max_index

    def setup(self, seed: int):
        from derivalg import builtin, named_identity

        rng = random.Random(seed)
        entries = []
        for alg, ident, lo, hi, verdict in CATALOGUE:
            if self.max_index is not None:
                hi = min(hi, self.max_index)
            entries.append((builtin(alg), named_identity(ident), lo, hi, verdict))
        return [tuple(rng.sample(entries, len(entries))) for _ in range(self.pool)]

    def job(self, state, i: int):
        return state[i % len(state)]

    def run(self, state, job, tracer=None):
        from derivalg import check_identity

        return tuple(check_identity(alg, ident, lo, hi) for alg, ident, lo, hi, _ in job)

    def check(self, state, job, out) -> list[str]:
        problems = []
        for (alg, ident, lo, hi, verdict), found in zip(job, out):
            got = None if found is None else (
                tuple(found.indices),
                {i: c for i, c in found.defect.terms},
            )
            if got != verdict:
                problems.append(
                    f"{alg.name} with {ident} on {lo}..{hi}: got {got}, expected {verdict}"
                )
        return problems


WORKLOADS = {w.name: w for w in (ProbeCold, ContextWarm, SpanFree, IdentityWindow)}
