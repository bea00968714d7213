import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc

import pytest

import qonsager
import qonsager.cli as cli
from qonsager import (
    ROUTES,
    ExactDivisionError,
    coeff_table,
    coeff_tables,
    normal_form,
    parse_expression,
    power_astar_expansion,
)
from qonsager.cli import (
    EXIT_GATE,
    EXIT_INTEGRITY,
    EXIT_OK,
    EXIT_RELATION,
    EXIT_USAGE,
    build_parser,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# SHA-256 of qonsager coeffs --r 20 --route genfun --format json|csv|latex.
# r = 20 has the widest coefficients the command line admits, so a packing
# width that is too short shows here first.
R20_EXPORT_DIGESTS = {
    "json": "3cb196f0f47bcdbf4ad7b990aaa64f3dae9c9f8fe46ff51f6e86a203945c0346",
    "csv": "e32273027a44d112a73152dd63fc5e6a030501ac25f3ab34f1973723f474321b",
    "latex": "63c32fd059efaec7d671e0a1b5a0ae1bb66339457d23e02c69ed890e7b0642af",
}


def test_r20_exports_are_pinned():
    table = coeff_table(20, "genfun")
    for fmt, digest in R20_EXPORT_DIGESTS.items():
        assert hashlib.sha256(getattr(cli, "table_to_" + fmt)(table).encode()).hexdigest() == digest, fmt


# SHA-256 of the LaTeX exports of the tables r = 1..12 of each route, joined,
# recorded while every entry was still looked up in an index of all Gaussian
# binomials [n k] with n <= 2r+2.  Row 0 of closed-literal prints raw and
# lusztig has zero cells, so each route pins its own cells.
R12_LATEX_DIGESTS = {
    "genfun": "0da92ce8389578a49defed5e74bb020a06bdd64152c494e82a2b33f226828b25",
    "closed": "f55bda6c5aafe3aacdf03a55823038e872e7bfd3eab271908613bdcfaa7e872c",
    "closed-literal": "ffa181271d418c13feb7b7bfe9c03efa09e3ccaad0c6653ff2f5559eab26ff01",
    "recursion": "d9acdd854bc62a12c188326f447f4ce05b97c263f99f678651f4b2793c53685a",
    "lusztig": "937e53a486dce8d0ab5e1c7931393d14e6d10ffbe4dfe96fd2abb53b3a8af530",
}


@pytest.mark.parametrize("route", ROUTES)
def test_latex_exports_of_every_route_are_pinned(route):
    text = "".join(cli.table_to_latex(table) for table in coeff_tables(12, route))
    assert hashlib.sha256(text.encode()).hexdigest() == R12_LATEX_DIGESTS[route]


# Exit code and SHA-256 of the stdout of qonsager matrix-check with these
# arguments: the README's two commands and two larger realizations.
MATRIX_CHECK_DIGESTS = {
    "--sites 2 --t 3/2 --v 1,2 --r 3":
        (EXIT_OK, "b446a6c34a72873c188ce4989006fd5f068908a58773897399fdf4764d124782"),
    "--sites 1 --t 3/2 --rho0 1":
        (EXIT_GATE, "b02b347784134a9e52f841517ffa2bffe78db5cf9792460570bfb46bed779964"),
    "--sites 4 --r 8":
        (EXIT_OK, "01e764f18b72e79af6da23f5dddc3b0ad41fa7e2ce31b1d1ee3339b957344338"),
    "--sites 5 --r 2":
        (EXIT_OK, "196786fb678460b74250f7d821325227af9ba360904654ca1625bed7eeaa9ee7"),
}


def test_matrix_check_output_is_pinned(capsys):
    for args, expected in MATRIX_CHECK_DIGESTS.items():
        code, out, _ = run(capsys, "matrix-check", *args.split())
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == expected, args


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_commands():
    """(argv, exit code) of every qonsager command in the README's sh blocks;
    a trailing comment '... exits N ...' states a nonzero code."""
    with open(README, encoding="utf-8") as fh:
        blocks = [block.split("```")[0] for block in fh.read().split("```sh\n")[1:]]
    commands = []
    for line in "".join(blocks).splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("qonsager "):
            stated = re.search(r"exits (\d+)", comment)
            commands.append((shlex.split(command)[1:], int(stated[1]) if stated else EXIT_OK))
    return commands


def test_readme_cli_examples_exit_as_stated(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # for --out
    commands = readme_commands()
    assert {code for _, code in commands} == {EXIT_OK, EXIT_RELATION, EXIT_GATE}
    for argv, code in commands:
        assert main(argv) == code, argv
        capsys.readouterr()


def test_readme_library_example_holds_what_its_comments_claim():
    with open(README, encoding="utf-8") as fh:
        library = fh.read().split("\n## Library\n")[1]
    block = library.split("```python\n")[1].split("```")[0]
    names = {}
    exec(block, names)  # its import line fails when a name leaves qonsager
    assert names["report"].result == "zero"
    check = names["cross_check_routes"](8)
    assert check.equal and check.checked_entries == 16
    assert names["normal_form"](names["x"]) == names["power_astar_expansion"](6)
    assert names["check_realization"](names["real"])


def test_coeffs_json_schema(capsys):
    code, out, _ = run(capsys, "coeffs", "--r", "2", "--route", "genfun",
                       "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["r"] == 2
    assert doc["route"] == "genfun"
    entries = {(e["p"], e["j"]): e["laurent"] for e in doc["entries"]}
    assert len(entries) == 6 + 4 + 2
    assert entries[(1, 0)] == {"4": "1", "0": "3", "-4": "1"}
    for laurent in entries.values():
        for exp, coeff in laurent.items():
            int(exp), int(coeff)  # decimal strings by schema


@pytest.mark.parametrize(("route", "r"), [("recursion", 5), ("recursion", 12), ("closed", 12)])
def test_coeffs_json_route_agreement_bytes(capsys, route, r):
    code, genfun, _ = run(capsys, "coeffs", "--r", str(r), "--route", "genfun",
                          "--format", "json")
    assert code == EXIT_OK
    code, other, _ = run(capsys, "coeffs", "--r", str(r), "--route", route,
                         "--format", "json")
    assert code == EXIT_OK
    assert genfun != other
    assert genfun == other.replace(f'"route":"{route}"', '"route":"genfun"')


def test_coeffs_deterministic_bytes(capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "coeffs", "--r", "3", "--route", "closed",
                        "--format", "csv")
        outs.add(out)
    assert len(outs) == 1


def test_coeffs_csv_golden(capsys):
    code, out, _ = run(capsys, "coeffs", "--r", "1", "--route", "lusztig",
                       "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "r,p,j,laurent",
        "1,0,0,1",
        "1,0,1,q^2+1+q^-2",
        "1,0,2,q^2+1+q^-2",
        "1,0,3,1",
        "1,1,0,0",
        "1,1,1,0",
    ]


def test_coeffs_latex_cells(capsys):
    code, out, _ = run(capsys, "coeffs", "--r", "2", "--route", "genfun",
                       "--format", "latex")
    assert code == EXIT_OK
    assert "1 & 0 & $q^{4}+3+q^{-4}$ \\\\" in out
    assert "0 & 1 & $\\qbinom{5}{1}$ \\\\" in out
    assert out.startswith("% coefficient table r=2")


def test_coeffs_out_file(tmp_path, capsys):
    path = tmp_path / "table.json"
    code, out, _ = run(capsys, "coeffs", "--r", "2", "--out", str(path))
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(path.read_text())["r"] == 2


def test_coeffs_usage_errors(capsys):
    code, _, _ = run(capsys, "coeffs", "--r", "0")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "coeffs", "--r", "2", "--route", "nonsense")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "coeffs")
    assert code == EXIT_USAGE


def test_coeffs_integrity_exit(monkeypatch, capsys):
    def boom(r, route):
        raise ExactDivisionError("not divisible")

    monkeypatch.setattr(cli, "coeff_table", boom)
    code, _, err = run(capsys, "coeffs", "--r", "2")
    assert code == EXIT_INTEGRITY
    assert "integrity" in err


def whole_document_json(table):
    """The JSON export as one document tree, the construction the per-entry
    writer replaced."""
    entries = []
    for (p, j), value in table.items_sorted():
        laurent = {str(e): str(value.terms[e]) for e in sorted(value.terms, reverse=True)}
        entries.append({"p": p, "j": j, "laurent": laurent})
    doc = {"r": table.r, "route": table.route, "entries": entries}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("route", ROUTES)
def test_json_export_matches_the_whole_document(route):
    for table in coeff_tables(6, route):
        assert cli.table_to_json(table) == whole_document_json(table), (route, table.r)
    if route == "lusztig":  # zero entries print an empty polynomial
        assert '"laurent":{}' in cli.table_to_json(table)


def test_json_export_allocates_little_beyond_its_output():
    # a tree of the whole document takes about 18x its output, one entry at a time 2x
    table = coeff_table(11, "genfun")
    tracemalloc.start()
    try:
        text = cli.table_to_json(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text)


@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
def test_coeffs_out_bytes_equal_the_formatter(tmp_path, capsys, fmt):
    path = tmp_path / ("table." + fmt)
    code, out, _ = run(capsys, "coeffs", "--r", "7", "--route", "lusztig",
                       "--format", fmt, "--out", str(path))
    assert code == EXIT_OK and out == ""
    assert path.read_bytes() == getattr(cli, "table_to_" + fmt)(coeff_table(7, "lusztig")).encode()


@pytest.mark.parametrize("option", [("coeffs", "--r"), ("verify", "--r-max"),
                                    ("matrix-check", "--r")], ids=lambda option: option[0])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_r_below_one_exits_2(capsys, option, value):
    code, out, err = run(capsys, *option, value)
    assert code == EXIT_USAGE
    assert out == "" and "below 1" in err


SUBCOMMANDS = [("coeffs", "--r", "3"), ("verify", "--r-max", "2", "--family", "both"),
               ("matrix-check", "--sites", "1", "--r", "2"), ("reduce", "A^5 A*", "--trace")]


def _refuse(*args, **kwargs):
    raise AssertionError("computed before --out was opened")


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("target", ["missing/report", "."])
def test_unwritable_out_exits_2_before_any_work(tmp_path, monkeypatch, capsys, argv, target):
    for name in ("coeff_table", "coeff_tables", "coideal_generators",
                 "normal_form", "trace_reduction"):
        monkeypatch.setattr(cli, name, _refuse)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / target))
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: cannot write --out")


def _without_timings(text):
    return re.sub(r'"elapsed_ms": [0-9.e-]+', "", text)


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_out_file_equals_stdout(tmp_path, capsys, argv):
    path = tmp_path / "out"
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and out
    assert run(capsys, *argv, "--out", str(path)) == (EXIT_OK, "", "")
    assert _without_timings(path.read_text()) == _without_timings(out)


@pytest.mark.parametrize("argv, head, per_r", [
    (("verify", "--r-max", "3", "--family", "both"), 0, 2),
    (("matrix-check", "--sites", "1", "--r", "3"), 2, 2),
], ids=["verify", "matrix-check"])
def test_report_lines_are_written_as_each_r_finishes(tmp_path, monkeypatch, capsys,
                                                     argv, head, per_r):
    path = tmp_path / "report"
    seen = []

    def tables(r_max, route):
        for table in coeff_tables(r_max, route):
            seen.append(len(path.read_text().splitlines()))
            yield table

    monkeypatch.setattr(cli, "coeff_tables", tables)
    code, _, _ = run(capsys, *argv, "--out", str(path))
    assert code == EXIT_OK
    assert seen == [head + per_r * r for r in range(3)]
    assert len(path.read_text().splitlines()) == head + per_r * 3


def test_a_reader_that_leaves_early_ends_the_run_quietly():
    # each line is flushed as its r is done, so the write after the reader
    # left fails; the run stops there with the SIGPIPE status, no traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(qonsager.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "qonsager.cli", "verify", "--r-max", "6"],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert json.loads(proc.stdout.readline())["r"] == 1
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_failed_write_exits_2_with_one_error_line(capsys):
    # every write to /dev/full fails with ENOSPC, at the write, the flush or
    # the close that ends --out
    for argv in (("coeffs", "--r", "3"), ("verify", "--r-max", "2"),
                 ("matrix-check", "--sites", "1"), ("reduce", "A^3 A*")):
        code, out, err = run(capsys, *argv, "--out", "/dev/full")
        assert code == EXIT_USAGE, argv
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1, err
    src = os.path.dirname(os.path.dirname(os.path.abspath(qonsager.__file__)))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qonsager.cli", "reduce", "A^3 A*"],
                              env=dict(os.environ, PYTHONPATH=src), stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error: cannot write output: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_verify_small_range(capsys):
    code, out, _ = run(capsys, "verify", "--r-max", "3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for r, line in enumerate(lines, start=1):
        doc = json.loads(line)
        assert doc["r"] == r
        assert doc["result"] == "zero"
        assert doc["residual_term_count"] == 0
        assert set(doc) == {"r", "family", "result", "residual_term_count",
                            "peak_term_count", "elapsed_ms", "route"}


def test_verify_both_families(capsys):
    code, out, _ = run(capsys, "verify", "--r-max", "2", "--family", "both")
    assert code == EXIT_OK
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert [(d["r"], d["family"]) for d in docs] == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_verify_both_families_reduces_once_per_r(capsys, monkeypatch):
    # family 2 is the dagger image of the family-1 reduction, not a second one
    reduced = []
    reduce = qonsager.verify.normal_form_with_stats
    monkeypatch.setattr(qonsager.verify, "normal_form_with_stats",
                        lambda lhs: reduced.append(lhs) or reduce(lhs))
    code, out, _ = run(capsys, "verify", "--r-max", "4", "--family", "both")
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 8
    assert len(reduced) == 4


def test_verify_closed_literal_negative_control(capsys):
    # the printed closed-form weight first goes wrong at r = 3
    code, out, _ = run(capsys, "verify", "--r-max", "3", "--route", "closed-literal")
    assert code == EXIT_RELATION
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert [d["r"] for d in docs] == [1, 2, 3]
    assert [d["result"] for d in docs] == ["zero", "zero", "nonzero"]
    assert docs[2]["residual_term_count"] > 0
    assert docs[2]["residual"]
    assert "residual" not in docs[0] and "residual" not in docs[1]


def test_matrix_check_single_site(capsys):
    code, out, _ = run(capsys, "matrix-check", "--sites", "1", "--t", "3/2",
                       "--r", "2")
    assert code == EXIT_OK
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[1] == {"gate": "passed"}
    assert all(d["zero_matrix"] for d in lines[2:])
    assert [(d["r"], d["family"]) for d in lines[2:]] == [
        (1, 1), (1, 2), (2, 1), (2, 2)]


def test_matrix_check_two_sites(capsys):
    code, out, _ = run(capsys, "matrix-check", "--sites", "2", "--t", "3/2",
                       "--v", "1,2", "--r", "3")
    assert code == EXIT_OK


def test_matrix_check_inconsistent_rho_fails_gate(capsys):
    code, out, _ = run(capsys, "matrix-check", "--sites", "1", "--t", "3/2",
                       "--r", "1", "--rho0", "1")
    assert code == EXIT_GATE
    assert json.loads(out.strip().splitlines()[-1]) == {"gate": "failed"}


def test_matrix_check_usage(capsys):
    code, _, _ = run(capsys, "matrix-check", "--sites", "2", "--v", "1")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "matrix-check", "--t", "x")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("option, value, code, shown", [
    ("--t", "-1/3", EXIT_OK, {"q": "1/9"}), ("--v", "-1,2", EXIT_OK, {}),
    ("--eps1", "-7/5", EXIT_OK, {}), ("--rho0", "-2/3", EXIT_GATE, {"rho0": "-2/3"})])
def test_matrix_check_reads_negative_rationals(capsys, option, value, code, shown):
    # a value that starts with a minus sign belongs to its option, with or
    # without "="
    argv = ("matrix-check", "--sites", "2", "--r", "2")
    spaced = run(capsys, *argv, option, value)
    assert spaced == run(capsys, *argv, f"{option}={value}")
    assert spaced[0] == code
    assert shown.items() <= json.loads(spaced[1].splitlines()[0]).items()


@pytest.mark.parametrize("argv, code", [
    (("-s",), EXIT_USAGE), (("--sites", "-1"), EXIT_USAGE),
    (("--t", "-3/2", "--r", "-2"), EXIT_USAGE), (("--v", "-1,-2", "--sites", "2"), EXIT_OK),
    (("--eps1", "-7/5"), EXIT_OK), (("--t", "-.5"), EXIT_OK), (("-h",), EXIT_OK),
    (("--rho0", "-1/2"), EXIT_GATE)])
def test_matrix_check_reads_a_leading_minus_as_reduce_does(capsys, argv, code):
    # "-" followed by anything but "-" is a value unless it is an option
    # (-h), on matrix-check as on reduce
    assert run(capsys, "matrix-check", *argv)[0] == code


def test_matrix_check_reads_a_dash_word_as_a_bad_rational(capsys):
    code, out, err = run(capsys, "matrix-check", "--t", "-x")
    assert (code, out) == (EXIT_USAGE, "")
    assert "argument --t: not an exact rational: '-x'" in err


def test_reduce_defining_monomial(capsys):
    code, out, _ = run(capsys, "reduce", "A^3 A*")
    assert code == EXIT_OK
    assert out == ("rho0 A A* - rho0 A* A + (q^2+1+q^-2) A^2 A* A"
                   " + (-q^2-1-q^-2) A A* A^2 + A* A^3\n")


@pytest.mark.parametrize("expression", ["A^0", "A*^0 A^0"])
def test_reduce_a_term_of_zeroth_powers_is_one(capsys, expression):
    # a term may be factors alone, even factors that multiply to the empty word
    assert run(capsys, "reduce", expression) == (EXIT_OK, "1\n", "")


@pytest.mark.parametrize("expression, printed", [("2*", "2"), ("A + 3*", "3 + A")])
def test_reduce_a_coefficient_may_end_with_its_separator(capsys, expression, printed):
    # term := [coeff '*'?] factor*, and factor* may be empty
    assert run(capsys, "reduce", expression) == (EXIT_OK, printed + "\n", "")


def test_reduce_irreducible(capsys):
    code, out, _ = run(capsys, "reduce", "A A*")
    assert code == EXIT_OK
    assert out == "A A*\n"


def test_reduce_trace(capsys):
    code, out, _ = run(capsys, "reduce", "A^4 A* + A A^3 A* A^3 A*", "--trace")
    assert code == EXIT_OK
    lines = out.splitlines()
    # one line per block replacement (the word, the term count of NF(A^n A*),
    # the start of the A^n A* block) and the normal form as the last
    # line; depth first: the input words, then the words after A*, A A*
    # and A^2 A*, the leftmost block of each word
    assert len(lines) == 9
    assert lines[:3] == ["A^4 A* -> 6 terms @pos 0",
                         "A^4 A* A^3 A* -> 6 terms @pos 0",
                         "A* A^7 A* -> 11 terms @pos 1"]
    assert lines[-2] == "A^2 A* A^3 A* -> 5 terms @pos 3"
    _, plain, _ = run(capsys, "reduce", "A^4 A* + A A^3 A* A^3 A*")
    assert lines[-1] + "\n" == plain


@pytest.mark.parametrize("expression, printed",
                         [("-A", "-A"), ("-2A", "-2 A"), ("-rho0*A", "-rho0 A")])
def test_reduce_reads_a_leading_minus_as_the_expression(capsys, expression, printed):
    assert run(capsys, "reduce", expression) == (EXIT_OK, printed + "\n", "")


def test_reduce_traces_an_expression_with_a_leading_minus(capsys):
    code, out, _ = run(capsys, "reduce", "-A^4 A*", "--trace")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "A^4 A* -> 6 terms @pos 0"
    assert lines[-1] == normal_form(parse_expression("-A^4 A*")).to_string()


@pytest.mark.parametrize("argv", [("--bogus",), ("-A", "--bogus")])
def test_reduce_still_rejects_an_unknown_option(capsys, argv):
    code, out, err = run(capsys, "reduce", *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "error:" in err


def test_reduce_trace_of_a_long_power_is_quick(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "reduce", "--trace", "A^40 A*")
    assert code == EXIT_OK
    assert out == ("A^40 A* -> 60 terms @pos 0\n"
                   + power_astar_expansion(40).to_string() + "\n")
    assert time.perf_counter() - start < 1.0


def test_reduce_long_power_matches_the_eta_route(capsys):
    code, out, _ = run(capsys, "reduce", "A^30 A*")
    assert code == EXIT_OK
    assert out == power_astar_expansion(30).to_string() + "\n"


def test_reduce_rejects_an_overlong_word_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "reduce", "A^200 A*")
    assert code == EXIT_USAGE
    assert out == ""
    assert "128 letters" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv, seconds", [
    (("reduce", "(1+q)^16000 A"), 1.0),
    (("reduce", "[100000]_q^3 A"), 1.0),
    (("coeffs", "--r", "1000000"), 1.0),
    (("verify", "--r-max", "1000000"), 1.0),
    (("reduce", "(999999)^1000000 A"), 1.0),
    (("reduce", "(2)^20000 A"), 1.0),
    (("reduce", "1" * 1234 + " A"), 1.0),
    (("matrix-check", "--sites", "1000000"), 1.0),
])
def test_oversized_input_exits_2_at_once(capsys, argv, seconds):
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert time.perf_counter() - start < seconds


@pytest.mark.parametrize("argv, value", [
    (("--sites", "1", "--v", "1e100000", "--r", "3"), "1e100000"),
    (("--sites", "1", "--v", "1e1000000", "--r", "1"), "1e1000000"),
    (("--t", "1e3000"), "1e3000"), (("--c0", "1e1000000"), "1e1000000"),
    (("--t", "1e10000000"), "1e10000000"), (("--t", "1e20"), "1e20"),
    (("--eps1", "-1e-20"), "-1e-20"), (("--t", "123456789012345678901/2"), "123456789012345678901/2"),
    (("--sites", "2", "--v", "1,2.00000000000000000001"), "2.00000000000000000001")])
def test_matrix_check_bounds_a_rational_before_it_is_built(capsys, argv, value):
    # a short exponent would build a huge int: the digits are counted first
    start = time.process_time()
    code, out, err = run(capsys, "matrix-check", *argv)
    assert time.process_time() - start < 1.0
    assert (code, out) == (EXIT_USAGE, "")
    assert f"{value!r} has more than 20 digits in its numerator or denominator" in err


@pytest.mark.parametrize("option, value", [
    ("--t", "1e19"), ("--t", "1e-19"), ("--t", "12345678901234567890/3"), ("--t", "-0.5e1"),
    ("--eps0", "1_000/7"), ("--c1", "0.0000000000000000001e10")])
def test_matrix_check_reads_a_rational_at_the_digit_cap(capsys, option, value):
    code, out, _ = run(capsys, "matrix-check", "--r", "1", option, value)
    assert code == EXIT_OK
    assert json.loads(out.splitlines()[-1])["zero_matrix"]


def test_r_cap_admits_twenty(capsys):
    assert build_parser().parse_args(["coeffs", "--r", "20"]).r == 20
    code, out, err = run(capsys, "matrix-check", "--r", "21")
    assert code == EXIT_USAGE
    assert out == "" and "above 20" in err


def test_reduce_reads_coefficients_without_the_exponent_cap(capsys):
    code, out, _ = run(capsys, "reduce", "2000000 A^3 A*")
    assert code == EXIT_OK
    expected = normal_form(parse_expression("A^3 A*")) * 2000000
    assert out == expected.to_string() + "\n"
    # coefficients at the bound: a 1233-digit literal, 2^4096
    for text, value in (("9" * 1233, 10 ** 1233 - 1), ("(2)^4096", 2 ** 4096)):
        code, out, _ = run(capsys, "reduce", text + " A^3 A*")
        assert code == EXIT_OK
        assert out == (normal_form(parse_expression("A^3 A*")) * value).to_string() + "\n"


def test_integrity_exit_survives_optimized_mode():
    # a rule body that does not lower the measure must still exit 3 under -O
    script = ("import sys\n"
              "from qonsager import RingElement, rewrite\n"
              "from qonsager.cli import main\n"
              "rewrite._RULE += (('aaaas', RingElement.one()),)\n"
              "sys.exit(main(['reduce', 'A^3 A*']))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(qonsager.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_INTEGRITY, proc.stderr
    assert "integrity" in proc.stderr


def test_packed_integrity_exit_survives_optimized_mode():
    # a memo coefficient q^-8 on A* A^3 scales to X^-1 in the packed view of
    # NF(A^3 A*); verify must exit 3 under -O, not reduce with a wrapped value
    script = ("import sys\n"
              "from qonsager import LaurentPoly, RingElement, rewrite\n"
              "from qonsager.cli import main\n"
              "rewrite._pow_nf(3)['saaa'] = RingElement.from_laurent(LaurentPoly.q_power(-8))\n"
              "sys.exit(main(['verify', '--r-max', '2']))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(qonsager.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_INTEGRITY, proc.stderr
    assert "negative X exponent" in proc.stderr


def test_ungraded_memo_exit_survives_optimized_mode():
    # a memo coefficient rho1 on A* A^3 has no packed view at all; verify must
    # exit 3 under -O, not reduce without the term
    script = ("import sys\n"
              "from qonsager import RingElement, rewrite\n"
              "from qonsager.cli import main\n"
              "rewrite._pow_nf(3)['saaa'] = RingElement.rho1()\n"
              "sys.exit(main(['verify', '--r-max', '2']))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(qonsager.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_INTEGRITY, proc.stderr
    assert "is not graded" in proc.stderr


def test_reduce_syntax_error(capsys):
    code, _, err = run(capsys, "reduce", "A^^")
    assert code == EXIT_USAGE
    assert "position" in err
