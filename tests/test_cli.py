import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

from redsop import Ideal, RetryBudgetError
from redsop.corpus import CorpusSpec, default_ring
from redsop.session import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL,
    EXIT_OK,
    SessionError,
    _as_monomial_prime,
    corpus_report,
    generate_corpus,
    parse_session,
    render_report,
    run_block,
)
from redsop.suites import SUITES

FIXTURE = "ring [X,Y,Z] p=32003\nideal XY, XZ\n"


def run(text, seed=None):
    return run_block(text, default_seed=seed)


def test_session_parsing_named_objects():
    s = parse_session(FIXTURE + "seq xs: Y; X+Y+Z\nprime P: X, Y\nseed 9\n"
                      "output human\nis-reducing-sop xs\n")
    assert s.ring.var_names == ("X", "Y", "Z") and s.ring.p == 32003
    assert s.seed == 9 and s.output == "human"
    assert s.command == "is-reducing-sop" and s.arg == "xs"
    assert "xs" in s.sequences and "P" in s.primes


def test_session_rejects_two_commands():
    with pytest.raises(SessionError):
        parse_session(FIXTURE + "dim\ndepth\n")


def test_session_requires_command():
    with pytest.raises(SessionError):
        parse_session(FIXTURE)


def test_session_comments_and_blanks():
    s = parse_session("# a fixture\n" + FIXTURE + "\ndim  # dimension\n")
    assert s.command == "dim"


def test_dim_command():
    report, code = run(FIXTURE + "dim\n")
    assert code == EXIT_OK and report["dim"] == 2


def test_reducing_sop_verdict_and_witness():
    report, code = run(FIXTURE + "is-reducing-sop Y; X+Y+Z\n")
    assert code == EXIT_OK
    assert report["verdict"] is False
    w = report["witness"]
    assert w["index"] == 1 and w["dim"] == 1
    assert sorted(w["ideal"]) == ["Y", "Z"]

    report, code = run(FIXTURE + "is-reducing-sop X+Y+Z; Y\n")
    assert code == EXIT_OK and report["verdict"] is True


def test_is_cm_both_agree():
    report, code = run(FIXTURE + "is-cm both\n", seed=3)
    assert code == EXIT_OK
    assert report["reducing_test"] is False
    assert report["depth"] == 1 and report["dim"] == 2
    assert report["agree"] is True


def test_named_sequence_resolution():
    report, code = run(FIXTURE + "seq xs: X+Y+Z; Y\nis-regular-sequence xs\n")
    assert code == EXIT_OK and report["verdict"] is False


def test_depth_command_certificate():
    report, code = run(FIXTURE + "depth\n", seed=8)
    assert code == EXIT_OK and report["depth"] == 1
    assert len(report["cuts"]) == 1


def test_ass_command():
    report, code = run(FIXTURE + "ass\n")
    assert code == EXIT_OK
    assert {"vars": ["X"], "dim": 2} in report["associated_primes"]
    assert report["assh"] == [["X"]]


def test_ass_rejects_non_monomial():
    report, code = run("ring [X,Y,Z] p=32003\nideal X^2+YZ\nass\n")
    assert code == EXIT_INPUT_ERROR and report["status"] == "input_error"


def test_make_reducing_command():
    report, code = run(FIXTURE + "make-reducing Y; X+Y+Z\n", seed=5)
    assert code == EXIT_OK and report["verdict"] is True
    fixed = "; ".join(report["sequence"])
    confirm, code2 = run(FIXTURE + f"is-reducing-sop {fixed}\n")
    assert code2 == EXIT_OK and confirm["verdict"] is True


def test_make_reducing_failing_part_is_a_verdict():
    report, code = run(FIXTURE + "make-reducing Y\n", seed=5)
    assert code == EXIT_OK and report["status"] == "ok"
    assert report["verdict"] is False and report["attempts"] == 1
    check, _ = run(FIXTURE + "is-part-reducing Y\n")
    assert report["witness"] == check["witness"]


@pytest.mark.parametrize("seed", range(1, 6))
def test_is_cm_over_gf2_draws_a_quadratic_parameter(seed):
    # every linear form over GF(2) divides XY(X+Y): no linear parameter exists
    report, code = run("ring [X,Y] p=2\nideal XY(X+Y)\nis-cm both\n", seed=seed)
    assert code == EXIT_OK and report["verdict"] is True and report["agree"] is True
    assert report["certificate"]["sop"] == ["X^2 + X*Y + Y^2"] and report["depth"] == 1


def test_cm_member_inconclusive_exit_code():
    report, code = run(FIXTURE + "prime Q: Y+Z, Y-Z\ncm-member Q\n", seed=5)
    assert code == EXIT_INCONCLUSIVE
    assert report["entry"]["status"] == "inconclusive"


def test_cm_member_exact_monomial():
    report, code = run(FIXTURE + "cm-member X, Y\n")
    assert code == EXIT_OK and report["entry"]["status"] == "member"


def test_cm_locus_command():
    report, code = run(FIXTURE + "cm-locus 1\n")
    assert code == EXIT_OK
    assert sorted(e["prime"] for e in report["entries"]) == [["X", "Y"], ["X", "Z"]]
    # the bytes the randomized depth gave before monomial depth became exact
    digest = "c57aa08579c9d7baa2e7afcb8f1e823451ee8da99969452b3b0b3788901bb3db"
    assert hashlib.sha256(render_report(report).encode()).hexdigest() == digest


def test_cm_member_complete_graph_over_gf2():
    # random linear forms over GF(2) are all zero-divisors on this ideal;
    # the exact monomial depth needs none of them
    names = "ABCDEFGH"
    edges = ", ".join(a + b for i, a in enumerate(names) for b in names[i + 1:])
    text = f"ring [{','.join(names)}] p=2\nideal {edges}\ncm-member {','.join(names)}\n"
    report, code = run(text)
    assert code == EXIT_OK and report["status"] == "ok"
    assert report["entry"]["status"] == "member"
    assert report["entry"]["depth_local"] == 1


@pytest.mark.parametrize("cmd", ["cm-locus 0", "cm-locus 1", "cm-locus 2",
                                 "cm-member X, Y", "cm-member X, Y, Z, W"])
def test_monomial_locus_needs_no_basis_and_no_draw(monkeypatch, cmd):
    def refuse(*args, **kwargs):
        raise AssertionError("monomial locus reached a basis or a draw")

    monkeypatch.setattr("redsop.groebner._buchberger_raw", refuse)
    monkeypatch.setattr("redsop.cmlocus.depth_oracle", refuse)
    monkeypatch.setattr("redsop.cmlocus.random_homogeneous", refuse)
    report, code = run(f"ring [X,Y,Z,W] p=2\nideal XY, XZ, W^2X, YZW\n{cmd}\n")
    assert code == EXIT_OK and report["status"] == "ok"


def test_parse_error_exit_code():
    report, code = run("ring [X,Y,Z] p=32003\nideal X +* Y\ndim\n")
    assert code == EXIT_INPUT_ERROR and "line 2" in report["error"]


def test_dim_beyond_eight_variables():
    report, code = run("ring [A,B,C,D,E,F,G,H,I]\nideal AB\ndim\n")
    assert code == EXIT_OK and report["dim"] == 8


def _wide_ring(n):
    return "ring [" + ",".join(f"x{i}" for i in range(n)) + "]\n"


@pytest.mark.parametrize("text", [
    _wide_ring(30) + "ideal x0\ncm-locus 0\n",
    _wide_ring(30) + "ideal x0\nass\n",
    _wide_ring(20) + "ideal x0*x1\ndepth\n",
    _wide_ring(40) + "ideal " + ", ".join(f"x{2 * i}*x{2 * i + 1}" for i in range(20)) + "\ndim\n",
])
def test_wide_rings_are_refused_at_once(text):
    start = time.monotonic()
    report, code = run(text)
    elapsed = time.monotonic() - start
    assert code == EXIT_INPUT_ERROR and report["status"] == "input_error"
    assert elapsed < 1.0


@pytest.mark.parametrize("expr", ["(X+Y+Z+W)^40", "(X+Y+Z+W)^20*(X+Y+Z+W)^20",
                                  "(X+Y+Z)^3000"])
def test_parser_budget_refuses_expression_bombs(expr, capsys):
    from redsop.cli import main

    start = time.monotonic()
    code = main(["run", "-e", f"ring [X,Y,Z,W] p=32003\nideal {expr}\ndim\n"])
    elapsed = time.monotonic() - start
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_INPUT_ERROR and report["status"] == "input_error"
    assert "too large" in report["error"] and elapsed < 1.0


@pytest.mark.parametrize("expr", ["3^40000000*X", "3^3000000*X"])
def test_parser_refuses_coefficient_bombs(expr):
    start = time.monotonic()
    report, code = run(f"ring [X,Y] p=0\nideal {expr}\ndim\n")
    elapsed = time.monotonic() - start
    assert code == EXIT_INPUT_ERROR and report["status"] == "input_error"
    assert "coefficient too large" in report["error"] and elapsed < 1.0
    # over a prime field the constant reduces mod p, so the same input answers
    report, code = run(f"ring [X,Y] p=32003\nideal {expr}\ndim\n")
    assert code == EXIT_OK and report["status"] == "ok"


@pytest.mark.parametrize("expr", ["X\u00b2", "X^\u00b2", "\u0663*X"])
def test_digits_outside_ascii_are_refused(expr, capsys):
    from redsop.cli import main

    code = main(["run", "-e", f"ring [X,Y] p=32003\nideal {expr}\ndim\n"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_INPUT_ERROR and report["status"] == "input_error"
    assert "unexpected character" in report["error"], report


@pytest.mark.parametrize("text", [
    "ring [X,Y] p=\u0663\nideal XY\ndim\n",
    FIXTURE + "seed \u0667\ndim\n",
    FIXTURE + "seed 1_0\ndim\n",
    FIXTURE + "cm-locus \u0661\n",
    FIXTURE + "cm-locus 0_1\n",
    "check-theorems dimension-filter count=\u0661\n",
    "check-theorems dimension-filter count=0_1\n",
    "check-theorems dimension-filter count=1 vars=3,\u0663\n",
    "check-theorems dimension-filter count=1 max-gens=\uff12\n",
    "check-theorems dimension-filter count=1 max-degree=0_2\n",
], ids=["p", "seed", "seed_", "r", "r_", "count", "count_", "vars", "max-gens", "max-degree_"])
def test_session_integers_are_ascii_digits(text, capsys):
    from redsop.cli import main

    report, code = run(text)
    assert code == EXIT_INPUT_ERROR and report["status"] == "input_error", report
    assert "expected an integer in ASCII digits" in report["error"]
    assert main(["run", "-e", text]) == EXIT_INPUT_ERROR
    assert json.loads(capsys.readouterr().out) == report


@pytest.mark.parametrize("text,same", [
    (FIXTURE + "seed +3\ndepth\n", FIXTURE + "seed 3\ndepth\n"),
    (FIXTURE + "seed -0\ndepth\n", FIXTURE + "seed 0\ndepth\n"),
    ("ring [X,Y,Z] p=007\nideal XY, XZ\ndim\n", "ring [X,Y,Z] p=7\nideal XY, XZ\ndim\n"),
    (FIXTURE + "cm-locus 01\n", FIXTURE + "cm-locus 1\n"),
    ("check-theorems dimension-filter count=+2 vars=03,4\n",
     "check-theorems dimension-filter count=2 vars=3,4\n"),
])
def test_session_integers_read_as_before(text, same):
    report, code = run(text)
    want, want_code = run(same)
    assert code == want_code == EXIT_OK
    assert {k: v for k, v in report.items() if k != "input"} == {
        k: v for k, v in want.items() if k != "input"}


def test_non_homogeneous_input_rejected():
    report, code = run("ring [X,Y] p=32003\nideal X^2 + Y\ndim\n")
    assert code == EXIT_INPUT_ERROR


def test_sequence_length_error_is_input_error():
    report, code = run(FIXTURE + "is-reducing-sop Y\n")
    assert code == EXIT_INPUT_ERROR
    assert report["error"] == "expected a full candidate sequence of length d = 2 >= 1"
    report, code = run(FIXTURE + "is-part-reducing Y; X+Y+Z\n")
    assert code == EXIT_INPUT_ERROR and report["status"] == "input_error"
    assert report["error"] == "sequence must be shorter than dim M; use is_reducing_sop for r = d"


def test_check_theorems_in_session():
    report, code = run("check-theorems dimension-filter count=10\n", seed=4)
    assert code == EXIT_OK and report["passed"] is True
    assert report["suites"][0]["suite"] == "dimension-filter"
    assert report["suites"][0]["violations"] == 0


def test_check_theorems_unknown_suite():
    report, code = run("check-theorems nonsense\n")
    assert code == EXIT_INPUT_ERROR


def test_readme_suite_table_lists_every_suite():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### `redsop check`", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)` \|", section, re.MULTILINE)
    assert rows == list(SUITES)


def test_report_reproducibility():
    text = FIXTURE + "is-cm both\n"
    a, _ = run(text, seed=11)
    b, _ = run(text, seed=11)
    assert render_report(a) == render_report(b)


def test_report_round_trips_through_json():
    report, _ = run(FIXTURE + "is-reducing-sop Y; X+Y+Z\n")
    assert json.loads(render_report(report)) == report


def test_witness_ideal_reparses_to_same_ideal(R):
    report, _ = run(FIXTURE + "is-reducing-sop Y; X+Y+Z\n")
    regen = R.ideal(*report["witness"]["ideal"])
    assert regen == R.ideal("Y", "Z")


def test_corpus_determinism_and_roundtrip():
    spec = CorpusSpec(n=3, max_gens=4, max_degree=3, count=10, seed=7)
    blocks = generate_corpus(spec)
    assert blocks == generate_corpus(spec)
    assert len(blocks) == 10
    for block in blocks:
        report, code = run_block(block)
        assert code == EXIT_OK and "dim" in report


def test_corpus_squarefree_flag():
    spec = CorpusSpec(n=3, max_gens=4, max_degree=3, squarefree=True, count=8, seed=3)
    for block in generate_corpus(spec):
        ideal_line = [l for l in block.splitlines() if l.startswith("ideal ")][0]
        assert "^" not in ideal_line


def test_corpus_count_validation():
    with pytest.raises(ValueError):
        CorpusSpec(count=0).validate()
    report, code = corpus_report(CorpusSpec(n=3, count=3, seed=1))
    assert code == EXIT_OK and len(report["fixtures"]) == 3


def test_corpus_caps_enforced_and_overridable():
    with pytest.raises(ValueError):
        CorpusSpec(n=5, count=1).validate()
    CorpusSpec(n=5, count=1, force=True).validate()


def test_cli_subprocess_end_to_end(tmp_path):
    session = tmp_path / "session.txt"
    session.write_text(FIXTURE + "is-reducing-sop Y; X+Y+Z\n")
    proc = subprocess.run(
        [sys.executable, "-m", "redsop.cli", "run", str(session)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["verdict"] is False


def test_cli_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("REDSOP_SEED", "99")
    session = tmp_path / "session.txt"
    session.write_text(FIXTURE + "depth\n")
    proc = subprocess.run(
        [sys.executable, "-m", "redsop.cli", "run", str(session)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["seed"] == 99


NOT_UTF8 = b"ring [X] p=3\nideal X\xff\ndim\n"


def test_cli_refuses_a_file_that_is_not_utf8(tmp_path, capsys):
    from redsop.cli import main

    session = tmp_path / "session.txt"
    session.write_bytes(NOT_UTF8)
    assert main(["run", str(session)]) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "utf-8" in err


def test_cli_refuses_stdin_that_is_not_utf8(monkeypatch, capsys):
    from redsop.cli import main

    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8)))
    assert main(["run", "-"]) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "utf-8" in err


def test_cli_refuses_an_expression_that_is_not_utf8(capsys):
    from redsop.cli import main

    # the interpreter hands undecodable argv bytes over as surrogate escapes
    assert main(["run", "-e", os.fsdecode(NOT_UTF8)]) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "utf-8" in err


@pytest.mark.parametrize("target", ["file", "-"])
def test_cli_refuses_a_session_source_together_with_an_expression(target, tmp_path, capsys):
    from redsop.cli import main

    session = tmp_path / "session.txt"
    session.write_text(FIXTURE + "dim\n")
    source = str(session) if target == "file" else "-"
    for argv in (["run", source, "-e", FIXTURE + "dim\n"], ["run", "-e", "dim", source]):
        assert main(argv) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "not both" in err


def test_cli_human_mode(capsys):
    from redsop.cli import main

    code = main(["run", "-e", FIXTURE + "dim\n", "--human"])
    assert code == 0
    assert capsys.readouterr().out.startswith("command: dim  status: ok\n")
    # the block's output line picks the rendering as --human does
    assert main(["run", "-e", FIXTURE + "output human\ndim\n"]) == 0
    assert capsys.readouterr().out.startswith("command: dim  status: ok\n")
    assert main(["run", "-e", FIXTURE + "output structured\ndim\n"]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 2
    # the report itself does not depend on the output line
    assert run(FIXTURE + "output human\ndim\n") == run(FIXTURE + "dim\n")


@pytest.mark.parametrize("seed_line, argv, env, want", [
    ("seed 42\n", ["--seed", "5"], "7", 42),
    ("", ["--seed", "5"], "7", 5),
    ("", [], "7", 7),
    ("", [], None, 0),
])
def test_cli_seed_precedence(seed_line, argv, env, want, capsys, monkeypatch):
    from redsop.cli import main

    if env is None:
        monkeypatch.delenv("REDSOP_SEED", raising=False)
    else:
        monkeypatch.setenv("REDSOP_SEED", env)
    assert main(["run", "-e", FIXTURE + seed_line + "dim\n", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == want


# Stdout SHA-256 of `redsop check` recorded before the check-theorems
# validation moved into the session layer (Python 3.11.7); the move must
# not change a byte of any report that succeeded before it.
CHECK_DIGESTS = [
    (["--suites", "all", "--count", "3", "--seed", "7"],
     "901a7d2b671c357accb229d001de07be4117670e8ac7e14a444a4d9ee6f0aac6", 0),
    (["--suites", "dimension-filter,reducing-literal", "--count", "5", "--seed", "3",
      "--vars", "2,3", "--max-gens", "3", "--max-degree", "2"],
     "ab5e063263dcaf946cb9be956eb55da90a4fe53220850858f4d0a5e42ae9f50c", 0),
    (["--suites", "nonsense"],
     "ba2430bfffeddb0c9c605dbb041587ca9a0b2529e519e5a04dc97d2bfde6c3c6", EXIT_INPUT_ERROR),
]


@pytest.mark.parametrize("argv,digest,exit_code", CHECK_DIGESTS,
                         ids=["all", "options", "unknown-suite"])
def test_check_report_bytes(argv, digest, exit_code, capsys, monkeypatch):
    from redsop.cli import main

    monkeypatch.delenv("REDSOP_SEED", raising=False)
    assert main(["check"] + argv) == exit_code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_all_inside_a_suite_list_runs_every_suite(capsys, monkeypatch):
    # `all` next to other names used to crash `redsop check` with a KeyError
    from redsop.cli import main

    monkeypatch.delenv("REDSOP_SEED", raising=False)
    assert main(["check", "--suites", "all", "--count", "1"]) == EXIT_OK
    every = capsys.readouterr().out
    assert main(["check", "--suites", "all,kernel", "--count", "1"]) == EXIT_OK
    assert capsys.readouterr().out == every
    report, code = run("check-theorems kernel,all count=1\n")
    assert code == EXIT_OK
    assert report["suites"] == json.loads(every)["suites"]
    assert main(["check", "--suites", "all,nonsense"]) == EXIT_INPUT_ERROR
    assert "unknown suite 'nonsense'" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("error,status,exit_code", [
    (RuntimeError("broken invariant"), "internal_error", EXIT_INTERNAL),
    (RetryBudgetError("no draw left"), "inconclusive", EXIT_INCONCLUSIVE),
])
def test_check_reports_a_failing_suite_as_a_session_does(error, status, exit_code,
                                                         capsys, monkeypatch):
    # `redsop check` used to let these escape as a traceback with exit 1
    from redsop.cli import main

    def suite(res, M, rng):
        raise error

    monkeypatch.delenv("REDSOP_SEED", raising=False)
    monkeypatch.setitem(SUITES, "dimension-filter", (suite,) + SUITES["dimension-filter"][1:])
    assert main(["check", "--suites", "dimension-filter", "--count", "1"]) == exit_code
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "check-theorems" and report["status"] == status
    assert str(error) in report["error"]
    session, code = run("ring [X,Y,Z]\ncheck-theorems dimension-filter count=1\n")
    assert (session["status"], session["error"], code) == (status, report["error"], exit_code)


@pytest.mark.parametrize("option", [["--vars", "a"], ["--vars", "0"], ["--vars", "9"],
                                    ["--max-gens", "0"], ["--max-degree", "0"],
                                    ["--count", "0"], ["--count", "-2"]],
                         ids=lambda option: "".join(option))
def test_check_rejects_bad_options(option, capsys):
    from redsop.cli import main

    code = main(["check", "--suites", "dimension-filter", "--count", "1"] + option)
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_INPUT_ERROR and report["status"] == "input_error"
    assert "suites" not in report


def test_check_theorems_rejects_too_many_variables():
    report, code = run("check-theorems dimension-filter count=2 vars=2,9\n")
    assert code == EXIT_INPUT_ERROR and report["status"] == "input_error"
    assert "[1, 8]" in report["error"]


# A suite draws modules of dim M >= its min_dim, and a proper monomial
# ideal in n variables has dim M <= n - 1: these selections drew forever.
@pytest.mark.parametrize("argv", [
    ["check", "--suites", "permutation", "--vars", "2", "--count", "1"],
    ["check", "--suites", "local-cm", "--vars", "2", "--count", "1"],
    ["check", "--suites", "construction", "--vars", "1", "--count", "1"],
    ["run", "-e", "check-theorems reducing-literal count=1 vars=1\n"],
], ids=["permutation", "local-cm", "construction", "session"])
def test_vars_too_small_for_a_suite_are_refused_at_once(argv, capsys, monkeypatch):
    from redsop.cli import main

    monkeypatch.delenv("REDSOP_SEED", raising=False)
    start = time.monotonic()
    assert main(argv) == EXIT_INPUT_ERROR
    assert time.monotonic() - start < 1.0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "input_error" and "suites" not in report
    assert "dimension at least" in report["error"]


@pytest.mark.parametrize("suite, n_values", [("permutation", "3"), ("local-cm", "1,3"),
                                             ("construction", "2")])
def test_one_large_enough_ring_size_runs(suite, n_values, capsys, monkeypatch):
    from redsop.cli import main

    monkeypatch.delenv("REDSOP_SEED", raising=False)
    assert main(["check", "--suites", suite, "--vars", n_values, "--count", "1"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize("gens, names", [
    ((), None), (("0",), None), (("2X",), {"X"}), (("X^2",), None),
    (("X+Y",), None), (("1",), None), (("X", "0", "Z"), {"X", "Z"}),
])
def test_as_monomial_prime_edge_cases(gens, names):
    R = default_ring(3)
    P = _as_monomial_prime(Ideal(R, gens))
    assert (None if P is None else set(P.vars)) == names


def test_check_theorems_rejects_non_positive_count():
    report, code = run("check-theorems dimension-filter count=0\n")
    assert code == EXIT_INPUT_ERROR and report["status"] == "input_error"
    assert "suites" not in report


def test_default_ring_rejects_out_of_range_counts():
    assert default_ring(8).n == 8
    for n in (0, 9):
        with pytest.raises(ValueError):
            default_ring(n)


# Before BOUND_LIMIT each of these drew for minutes: one exponent step per
# unit of degree, up to max-gens monomials per ideal.
@pytest.mark.parametrize("argv", [
    ["check", "--suites", "zero-divisor", "--count", "1", "--max-degree", "100000000"],
    ["check", "--suites", "kernel", "--count", "1", "--max-gens", "100000000"],
    ["run", "-e", "check-theorems oracle count=1 max-degree=50000000\n"],
    ["corpus", "--force", "--count", "1", "--max-gens", "100000000"],
    ["corpus", "--force", "--count", "1", "--max-degree", "100000000"],
], ids=["check-degree", "check-gens", "session-degree", "corpus-gens", "corpus-degree"])
def test_huge_fixture_bounds_are_refused_at_once(argv, capsys, monkeypatch):
    from redsop.cli import main

    monkeypatch.delenv("REDSOP_SEED", raising=False)
    start = time.monotonic()
    assert main(argv) == EXIT_INPUT_ERROR
    assert time.monotonic() - start < 1.0
    assert json.loads(capsys.readouterr().out)["status"] == "input_error"


def test_fixture_bound_limit_itself_answers(capsys, monkeypatch):
    from redsop.cli import main
    from redsop.corpus import BOUND_LIMIT

    monkeypatch.delenv("REDSOP_SEED", raising=False)
    bound = str(BOUND_LIMIT)
    assert main(["corpus", "--force", "--vars", "8", "--max-gens", bound,
                 "--max-degree", bound, "--count", "10"]) == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)["fixtures"]) == 10
    assert main(["check", "--suites", "zero-divisor", "--count", "1",
                 "--max-degree", bound]) == EXIT_OK
    report, code = run(f"check-theorems oracle count=1 max-degree={bound}\n")
    assert code == EXIT_OK and report["passed"] is True


def test_check_theorems_squarefree_values():
    base = "check-theorems permutation count=1"
    off = run(base + "\n")[0]["suites"]
    on = run(base + " squarefree=1\n")[0]["suites"]
    for value in ("0", "false", "no"):
        assert run(f"{base} squarefree={value}\n")[0]["suites"] == off
    for value in ("true", "yes"):
        assert run(f"{base} squarefree={value}\n")[0]["suites"] == on
    for value in ("maybe", "", "2"):
        report, code = run(f"{base} squarefree={value}\n")
        assert code == EXIT_INPUT_ERROR and report["status"] == "input_error"
        assert "suites" not in report


@pytest.mark.parametrize("argv", [["run", "-e", FIXTURE + "dim\n"],
                                  ["check", "--suites", "dimension-filter", "--count", "1"],
                                  ["corpus", "--count", "1"]],
                         ids=["run", "check", "corpus"])
def test_non_integer_env_seed_is_input_error(argv, capsys, monkeypatch):
    from redsop.cli import main

    monkeypatch.setenv("REDSOP_SEED", "abc")
    assert main(argv) == EXIT_INPUT_ERROR
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "input_error" and "REDSOP_SEED" in report["error"]
    # --seed comes first, so the variable is not read
    assert main(argv + ["--seed", "1"]) == EXIT_OK


_CHECK = ["check", "--suites", "dimension-filter", "--count", "1"]


@pytest.mark.parametrize("argv,good", [
    (["run", "-e", FIXTURE + "dim\n", "--seed", "\u0667"], "7"),
    (["corpus", "--count", "\u0662"], "2"),
    (["corpus", "--vars", "\u0663"], "3"),
    (["corpus", "--max-gens", "\uff12"], "2"),
    (["corpus", "--max-degree", "0_2"], "02"),
    (["corpus", "--characteristic", "3_1"], "31"),
    (["corpus", "--seed", "1_0"], "10"),
    (["check", "--suites", "dimension-filter", "--count", "\u0661"], "1"),
    (_CHECK + ["--seed", "\u0667"], "7"),
    (_CHECK + ["--max-gens", "0_2"], "+2"),
    (_CHECK + ["--max-degree", "\u0662"], "2"),
])
def test_cli_integers_are_ascii_digits(argv, good, capsys, monkeypatch):
    from redsop.cli import main

    monkeypatch.delenv("REDSOP_SEED", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT_ERROR
    assert "invalid integer value" in capsys.readouterr().err
    assert main(argv[:-1] + [good]) == EXIT_OK


@pytest.mark.parametrize("argv", [["run", "-e", FIXTURE + "dim\n"], _CHECK, ["corpus"]],
                         ids=["run", "check", "corpus"])
@pytest.mark.parametrize("env", ["1_0", "\u0667"])
def test_env_seed_is_ascii_digits(argv, env, capsys, monkeypatch):
    from redsop.cli import main

    monkeypatch.setenv("REDSOP_SEED", env)
    assert main(argv) == EXIT_INPUT_ERROR
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "input_error"
    assert report["error"] == f"REDSOP_SEED must be an integer, got {env!r}"


class _UnprintableMemoryError(MemoryError):
    def __str__(self):
        raise MemoryError


@pytest.mark.parametrize("exc,error", [
    (_UnprintableMemoryError(), "MemoryError"),
    (MemoryError("no room"), "MemoryError: no room"),
    (RuntimeError("boom"), "RuntimeError: boom"),
])
def test_an_internal_error_always_gets_its_report(exc, error, capsys, monkeypatch):
    from redsop.cli import main

    def fail(J):
        raise exc

    monkeypatch.setattr("redsop.session.ass_monomial", fail)
    assert main(["run", "-e", FIXTURE + "ass\n"]) == EXIT_INTERNAL
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "internal_error" and report["error"] == error
