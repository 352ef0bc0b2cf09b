import hashlib
import json
import subprocess
import sys

import pytest

from redsop.corpus import CorpusSpec, default_ring
from redsop.session import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    SessionError,
    corpus_report,
    generate_corpus,
    parse_session,
    render_report,
    run_block,
)

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


def test_make_reducing_part_exhaustion_is_inconclusive():
    report, code = run(FIXTURE + "make-reducing Y\n", seed=5)
    assert code == EXIT_INCONCLUSIVE and report["status"] == "inconclusive"


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


def test_parse_error_exit_code():
    report, code = run("ring [X,Y,Z] p=32003\nideal X +* Y\ndim\n")
    assert code == EXIT_INPUT_ERROR and "line 2" in report["error"]


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


def test_cli_human_mode():
    from redsop.cli import main

    code = main(["run", "-e", FIXTURE + "dim\n", "--human"])
    assert code == 0


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


def test_check_theorems_rejects_non_positive_count():
    report, code = run("check-theorems dimension-filter count=0\n")
    assert code == EXIT_INPUT_ERROR and report["status"] == "input_error"
    assert "suites" not in report


def test_default_ring_rejects_out_of_range_counts():
    assert default_ring(8).n == 8
    for n in (0, 9):
        with pytest.raises(ValueError):
            default_ring(n)
