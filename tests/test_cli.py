import io
import json
from functools import lru_cache
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

from derivalg import varieties
from derivalg.cli import _parse_identity, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def schema():
    return json.loads(files("derivalg").joinpath("output_schema.json").read_text())


def test_product_pinned(capsys):
    code, out, _ = run(
        capsys,
        "product", "--arity", "2", "--symmetric", "--vars", "1",
        "D[(x1 x1)]", "D[(x1 x1)]",
    )
    assert code == 0
    assert out == "2*((x1 x1) x1) d1\n"


def test_check_identity_pinned(capsys):
    code, out, _ = run(
        capsys,
        "check-identity", "--builtin", "witt1",
        "--identity", "novikov", "--range", "-1..12",
    )
    assert code == 0
    assert out == "PASS\n"


def test_quotient_pinned_json(capsys):
    code, out, _ = run(
        capsys,
        "quotient", "--arity", "2", "--symmetric", "--vars", "1",
        "--identity", "(x1 (x1 (x1 x1)))", "--degree", "5", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["dimension"] == 1
    assert doc["truncation"] == 8
    jsonschema.validate(doc, schema())


def test_check_identity_failure(capsys):
    code, out, _ = run(
        capsys,
        "check-identity", "--builtin", "leibniz_der",
        "--identity", "novikov", "--range", "0..6",
    )
    assert code == 0
    assert out == "FAIL at (f0, f1, f2): defect -f3\n"


def test_check_identity_expression(capsys):
    # associator symmetry spelled out instead of named
    expr = "((x1 x2) x3) - (x1 (x2 x3)) - ((x2 x1) x3) + (x2 (x1 x3))"
    code, out, _ = run(
        capsys,
        "check-identity", "--builtin", "witt1",
        "--identity", expr, "--range", "-1..8",
    )
    assert code == 0
    assert out == "PASS\n"


def test_apply(capsys):
    code, out, _ = run(capsys, "apply", "D[(x1 x1)]", "x1")
    assert code == 0
    assert out == "(x1 x1)\n"


def test_nilpotent_absent_and_present(capsys):
    code, out, _ = run(capsys, "nilpotent", "D[(x1 x1)]", "--bound", "4")
    assert code == 0
    assert out == "absent\n"
    code, out, _ = run(
        capsys,
        "nilpotent", "D[(x1 x1)]", "--side", "right",
        "--identity", "(x1 (x1 (x1 x1)))",
    )
    assert code == 0
    assert out == "3\n"


def test_nilpotent_json_envelope(capsys):
    code, out, _ = run(
        capsys,
        "nilpotent", "D[(x1 x1)]", "--side", "right",
        "--identity", "(x1 (x1 (x1 x1)))", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"index": 3, "side": "right", "bound": 10}
    assert doc["command"] == "nilpotent"
    jsonschema.validate(doc, schema())


def test_jacobian_with_probe(capsys):
    code, out, _ = run(capsys, "jacobian", "D[(x1 x1)]")
    assert code == 0
    assert out == "[[2*U(x1)]]\n"
    # truncated context cannot settle the binary probe at this bound
    code, out, _ = run(
        capsys,
        "jacobian", "D[(x1 x1)]", "--probe", "8",
        "--identity", "(x1 (x1 (x1 x1)))", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["nilpotency"] == "unknown"
    jsonschema.validate(doc, schema())


def test_jacobian_probe_builds_only_partner_linear_blocks(capsys, monkeypatch):
    """Counted work, not wall time: the default binary probe reduces only
    elements linear in the partner y1 of the doubled algebra, so it asks
    for the relation rows of partner degree 1 alone; at degree 8 it uses
    the 111 rows of the (7, 1) block, not the 1940 rows of the level."""
    requests = []
    relation_rows = varieties.relation_rows

    def counted_rows(presentation, degree, content=None):
        rows = relation_rows(presentation, degree, content)
        requests.append((presentation.sig.num_generators, degree, content, len(rows)))
        return rows

    monkeypatch.setattr(varieties, "relation_rows", counted_rows)
    # a block store of its own, so that no block of the doubled quotient is built yet
    monkeypatch.setattr(
        varieties, "_block", lru_cache(maxsize=None)(varieties._block.__wrapped__)
    )
    code, out, _ = run(
        capsys,
        "jacobian", "D[(x1 x1)]", "--probe", "8",
        "--identity", "(x1 (x1 (x1 x1)))",
    )
    assert code == 0
    assert out == "[[2*U(x1)]]\nnilpotency: unknown\n"
    assert [degree for _, degree, _, _ in requests] == list(range(1, 9))
    assert all(n == 2 and content == (degree - 1, 1) for n, degree, content, _ in requests)
    assert [rows for _, degree, _, rows in requests if degree == 8] == [111]


def test_jacobian_probe_ternary(capsys):
    code, out, _ = run(
        capsys,
        "jacobian", "--arity", "3", "D[(x1 x1 x1)]", "--probe", "6",
        "--identity", "(x1 x1 (x1 x1 x1))",
    )
    assert code == 0
    assert out.splitlines()[-1] == "nilpotency: 4"


def test_generate_word_pinned(capsys):
    code, out, _ = run(capsys, "generate", "--word", "((x1 x1) x1)")
    assert code == 0
    assert out == "((x1 x1) x1) dx = 1/2*D*D\n"


def test_generate_span(capsys):
    code, out, _ = run(capsys, "generate", "--span", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["passed"] is True
    assert doc["result"]["rows"] == [
        [0, 1, 1], [1, 1, 1], [2, 1, 1], [3, 2, 2], [4, 3, 3], [5, 6, 6],
    ]
    jsonschema.validate(doc, schema())


def test_generate_span_degree_10(capsys):
    code, out, _ = run(capsys, "generate", "--span", "10")
    assert code == 0
    counts = (1, 1, 1, 2, 3, 6, 11, 23, 46, 98, 207)
    assert out == "".join(f"degree {s}: {n}/{n}\n" for s, n in enumerate(counts)) + (
        "seeds generate up to degree 10\n"
    )


def test_reduce(capsys):
    code, out, _ = run(
        capsys,
        "reduce", "--identity", "(x1 (x1 (x1 x1)))", "((x1 x1) ((x1 x1) x1))",
    )
    assert code == 0
    assert out == "-(((x1 x1) (x1 x1)) x1)\n"


def test_engel(capsys):
    code, out, _ = run(capsys, "engel", "--identity", "(x1 (x1 (x1 x1)))")
    assert code == 0
    assert out == "3\n"


def test_engel_bound_zero_exits_1(capsys):
    code, out, err = run(capsys, "engel", "--bound", "0", "--identity", "(x1 (x1 x1))")
    assert (code, out) == (1, "")
    assert err == "error: bound must be positive\n"


def test_identity_variables_are_renumbered():
    a = _parse_identity("(x1 x7)", 2, True, False)
    assert a.sig.num_generators == 2
    assert str(a) == "(x2 x1)"


def test_identity_gap_leaves_no_dummy_slot(capsys):
    code, out, _ = run(
        capsys,
        "check-identity", "--builtin", "leibniz_der",
        "--identity", "((x1 x3) x4) - ((x1 x4) x3)", "--range", "0..6",
    )
    assert (code, out) == (0, "FAIL at (f0, f1, f2): defect -f3\n")


def test_identity_with_huge_variable_index(capsys):
    # a dense signature of 7...7 generators could never be built
    code, out, _ = run(capsys, "reduce", "--identity", f"(x1 x{'7' * 4000})", "x1")
    assert (code, out) == (0, "x1\n")


def test_structconst(capsys):
    code, out, _ = run(capsys, "structconst", "--builtin", "witt1", "e-1", "2*e3")
    assert code == 0
    assert out == "8*e2\n"


def test_stdin_payload(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("D[(x1 x1)]"))
    code, out, _ = run(capsys, "apply", "-", "x1")
    assert code == 0
    assert out == "(x1 x1)\n"


def test_domain_error_exits_1(capsys):
    code, out, err = run(capsys, "product", "D[(x1 x2)]", "D[(x1 x1)]")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_parse_error_exits_1(capsys):
    code, _, err = run(capsys, "apply", "D[(x1 x1)]", "2*")
    assert code == 1
    assert "position" in err


LONG = "1" * 5000  # beyond the interpreter's 4300-digit int conversion limit


@pytest.mark.parametrize(
    "argv, pos",
    [
        (["apply", "D[(x1 x1)]", f"{LONG}*x1"], 0),
        (["apply", "D[(x1 x1)]", f"(x1 x{LONG})"], 5),
        (["apply", "D[(x1 x1)]", f"1/{LONG}*x1"], 2),
        (["product", f"x1 d{LONG}", "x1 d1"], 4),
        (["structconst", "--builtin", "witt1", f"{LONG}*e1", "e2"], 0),
        (["structconst", "--builtin", "witt1", f"1/{LONG}*e1", "e2"], 2),
        (["structconst", "--builtin", "witt1", f"e{LONG}", "e2"], 1),
        (["check-identity", "--builtin", "witt1", "--identity", "novikov",
          "--range", f"0..{LONG}"], 3),
        (["reduce", "--identity", f"(x1 x{LONG})", "x1"], 5),
    ],
)
def test_long_numeral_exits_1(capsys, argv, pos):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: numeral too long (at position {pos})\n"
    assert "Traceback" not in err


HUGE = "1" * 4000  # parses, but a product of two such numerals cannot be printed


@pytest.mark.parametrize(
    "argv",
    [
        ["structconst", "--builtin", "witt1", f"{HUGE}*e1", f"{HUGE}*e2"],
        ["apply", f"D[{HUGE}*(x1 x1)]", f"{HUGE}*x1"],
    ],
)
def test_unprintable_result_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["quotient", "--degree", "5"])  # --identity is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_json_output_is_stable(capsys):
    argv = [
        "quotient", "--identity", "(x1 (x1 (x1 x1)))",
        "--degree", "4", "--json",
    ]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[1].encode() == second[1].encode()


def test_every_command_json_validates(capsys):
    checker = schema()
    invocations = [
        ["product", "x1 d1", "D[(x1 x1)]"],
        ["apply", "D[(x1 x1)]", "3*x1"],
        ["nilpotent", "D[(x1 x1)]"],
        ["jacobian", "D[(x1 x1)]"],
        ["generate", "--word", "(x1 x1)"],
        ["generate", "--span", "3"],
        ["quotient", "--identity", "(x1 (x1 (x1 x1)))", "--degree", "3"],
        ["reduce", "--identity", "(x1 (x1 (x1 x1)))", "(x1 (x1 (x1 x1)))"],
        ["check-identity", "--builtin", "witt1", "--identity", "jacobi"],
        ["check-identity", "--builtin", "leibniz_der", "--identity", "novikov",
         "--range", "0..4"],
        ["engel", "--identity", "(x1 (x1 (x1 x1)))"],
        ["structconst", "--builtin", "dual_leibniz_alg", "x^1", "x^2"],
    ]
    for argv in invocations:
        code = main(argv + ["--json"])
        out = capsys.readouterr().out
        assert code == 0, argv
        doc = json.loads(out)
        jsonschema.validate(doc, checker)
        assert doc["version"]


def test_stdin_identity_read_once(capsys, monkeypatch):
    # the identity's text and its variable count come from one read
    monkeypatch.setattr("sys.stdin", io.StringIO("((x1 x2) x1)\n"))
    code, out, err = run(capsys, "quotient", "--identity", "-", "--degree", "3")
    assert (code, err) == (0, "")
    assert out == "degree 3\ndimension 0\n"


def test_deep_nesting_exits_1(capsys):
    comb = "(" * 1200 + "x1" + " x1)" * 1200
    code, out, err = run(capsys, "apply", "D[(x1 x1)]", comb)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


# Recorded stdout, stderr and exit code of 19 commands, each with and
# without --json: the README examples, a ternary probe, two-generator
# quotient and reduce, a non-symmetric and a unital quotient, a ternary
# engel and a quotient outside the truncation window.
CONTRACT = json.loads(
    (Path(__file__).parent / "data" / "cli_contract.json").read_text()
)


@pytest.mark.parametrize(
    "record", CONTRACT, ids=[f"{r['argv'][0]}-{i}" for i, r in enumerate(CONTRACT)]
)
def test_cli_contract(capsys, record):
    assert run(capsys, *record["argv"]) == (
        record["exit"],
        record["stdout"],
        record["stderr"],
    )


def test_indexed_zero_denominator_exits_1(capsys):
    code, out, err = run(capsys, "structconst", "--builtin", "witt1", "1/0*e1", "e2")
    assert (code, out) == (1, "")
    assert err == "error: zero denominator (at position 2)\n"
