import json
import os
import subprocess
import sys

import qonsager
from qonsager import ExactDivisionError, power_astar_expansion
from qonsager.cli import (
    EXIT_GATE,
    EXIT_INTEGRITY,
    EXIT_OK,
    EXIT_RELATION,
    EXIT_USAGE,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_coeffs_json_route_agreement_bytes(capsys):
    code, genfun, _ = run(capsys, "coeffs", "--r", "5", "--route", "genfun",
                          "--format", "json")
    assert code == EXIT_OK
    code, recursion, _ = run(capsys, "coeffs", "--r", "5", "--route", "recursion",
                             "--format", "json")
    assert code == EXIT_OK
    assert genfun != recursion
    assert genfun == recursion.replace('"route":"recursion"', '"route":"genfun"')


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
    import qonsager.cli as cli

    def boom(r, route):
        raise ExactDivisionError("not divisible")

    monkeypatch.setattr(cli, "coeff_table", boom)
    code, _, err = run(capsys, "coeffs", "--r", "2")
    assert code == EXIT_INTEGRITY
    assert "integrity" in err


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


def test_verify_sabotage_requires_test_hooks(monkeypatch, capsys):
    monkeypatch.delenv("QONSAGER_TEST_HOOKS", raising=False)
    code, _, err = run(capsys, "verify", "--r-max", "2", "--sabotage", "c:2,0,1:+1")
    assert code == EXIT_USAGE
    assert "test hook" in err


def test_verify_sabotage_negative_control(monkeypatch, capsys):
    monkeypatch.setenv("QONSAGER_TEST_HOOKS", "1")
    code, out, _ = run(capsys, "verify", "--r-max", "2", "--sabotage", "c:2,0,1:+1")
    assert code == EXIT_RELATION
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert docs[0]["result"] == "zero"
    assert docs[1]["result"] == "nonzero"
    assert docs[1]["residual_term_count"] > 0
    assert "residual" in docs[1]


def test_verify_sabotage_bad_spec(monkeypatch, capsys):
    monkeypatch.setenv("QONSAGER_TEST_HOOKS", "1")
    code, _, _ = run(capsys, "verify", "--r-max", "2", "--sabotage", "c:nope")
    assert code == EXIT_USAGE


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


def test_reduce_defining_monomial(capsys):
    code, out, _ = run(capsys, "reduce", "A^3 A*")
    assert code == EXIT_OK
    assert out == ("rho0 A A* - rho0 A* A + (q^2+1+q^-2) A^2 A* A"
                   " + (-q^2-1-q^-2) A A* A^2 + A* A^3\n")


def test_reduce_irreducible(capsys):
    code, out, _ = run(capsys, "reduce", "A A*")
    assert code == EXIT_OK
    assert out == "A A*\n"


def test_reduce_trace(capsys):
    code, out, _ = run(capsys, "reduce", "A^4 A*", "--trace")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "A^4 A* -> 5 terms @pos 1"
    assert any("@pos 0" in line for line in lines[1:-1])


def test_reduce_long_power_matches_the_eta_route(capsys):
    code, out, _ = run(capsys, "reduce", "A^30 A*")
    assert code == EXIT_OK
    assert out == power_astar_expansion(30).to_string() + "\n"


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


def test_reduce_syntax_error(capsys):
    code, _, err = run(capsys, "reduce", "A^^")
    assert code == EXIT_USAGE
    assert "position" in err
