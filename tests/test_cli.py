import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from comodcheck import cli, runner

CLI = [sys.executable, "-m", "comodcheck.cli"]


def corpus_path(name: str) -> str:
    return str(resources.files("comodcheck") / "corpus" / name)


def run_cli(*args):
    return subprocess.run([*CLI, *args], capture_output=True, text=True)


def test_check_passes_on_corpus_document():
    out = run_cli("check", corpus_path("01_axioms.cd"))
    assert out.returncode == 0, out.stderr
    assert "PASS" in out.stdout


def test_exit_code_two_on_parse_error(tmp_path: Path):
    bad = tmp_path / "bad.cd"
    bad.write_text("field Q\ncoalg C = grouplike {a, a}\n")
    out = run_cli("check", str(bad))
    assert out.returncode == 2
    assert "line 2" in out.stderr


def test_exit_code_two_on_construction_error(tmp_path: Path):
    bad = tmp_path / "bad.cd"
    bad.write_text("field Q\n"
                   "coalg B = raw dim=2 delta=[1, 0, 0, 0, 0, 0, 0, 1] "
                   "eps=[1, 0]\ncheck axioms B\n")
    out = run_cli("check", str(bad))
    assert out.returncode == 2
    assert "counit" in out.stderr


def test_exit_code_one_on_failed_law(tmp_path: Path):
    # an unsupported check (forall over a non-group-like base) is not a pass
    doc = tmp_path / "unsupported.cd"
    doc.write_text(
        "field Q\n"
        "coalg K = raw dim=2 delta=[1, 0, 0, 1, 0, 1, 2, 0] eps=[1, 0]\n"
        "morph i : K -> K {matrix [1, 0, 0, 1]}\n"
        "comod V over K {dim 2 rho=[1, 0, 0, 1, 0, 1, 2, 0]}\n"
        "check forall-beck i i V\n")
    out = run_cli("check", str(doc))
    assert out.returncode == 1
    assert "UNSUPPORTED" in out.stdout


def test_missing_file_is_exit_two(tmp_path: Path):
    out = run_cli("check", str(tmp_path / "nope.cd"))
    assert out.returncode == 2


def test_undecodable_file_is_exit_two_without_a_traceback(tmp_path: Path):
    # a UTF-16 byte order mark is not UTF-8: a user error, not a failed check
    doc = tmp_path / "utf16.cd"
    doc.write_bytes(b"\xff\xfe" + "field Q\n".encode("utf-16-le"))
    out = run_cli("check", str(doc))
    assert out.returncode == 2
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "utf-8" in lines[0] and "Traceback" not in out.stderr


def test_json_output_and_determinism(tmp_path: Path):
    path = corpus_path("06_adjunction.cd")
    runs = [run_cli("check", path, "--json", "--seed", "3")
            for _ in range(2)]
    assert all(r.returncode == 0 for r in runs)
    payloads = [json.loads(r.stdout) for r in runs]
    for payload in payloads:
        for rec in payload:
            rec["millis"] = 0.0
    assert json.dumps(payloads[0], sort_keys=True) \
        == json.dumps(payloads[1], sort_keys=True)


def test_verbose_prints_dims():
    out = run_cli("check", corpus_path("05_hom.cd"), "--verbose")
    assert out.returncode == 0
    assert "dims:" in out.stdout


def test_max_dim_flag_respected():
    out = run_cli("check", corpus_path("06_adjunction.cd"),
                  "--max-dim", "2", "--json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    gen_report = payload[1]          # the generated-argument adjunction
    assert gen_report["verdict"] == "pass"


def test_negative_max_dim_is_a_usage_error():
    out = run_cli("check", corpus_path("06_adjunction.cd"),
                  "--max-dim", "-1")
    assert out.returncode == 2
    assert "--max-dim" in out.stderr
    assert "line " not in out.stderr


def test_internal_fault_is_exit_three_without_a_traceback(monkeypatch,
                                                         capsys):
    # a KeyError inside a check is the program's fault, not a parse error
    def broken(ctx, index, name):
        raise KeyError("planted")

    monkeypatch.setitem(runner._EXECUTORS, "cosemisimple", broken)
    assert cli.main(["check", corpus_path("02_cosemisimple.cd")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: KeyError: ")
    assert "line " not in err and "Traceback" not in err


def _without_millis(text: str) -> str:
    """Output with every ``millis`` value zeroed: the JSON records' field
    and the ``millis:`` line of ``--verbose``."""
    if text.startswith("["):
        payload = json.loads(text)
        for rec in payload:
            rec["millis"] = 0.0
        return json.dumps(payload, sort_keys=True)
    return "\n".join("    millis: 0" if line.startswith("    millis: ")
                     else line for line in text.splitlines())


def test_consecutive_in_process_calls_match_fresh_runs(capsys):
    # the parser is built once per process; a flag of one call must not
    # leak into the next
    path = corpus_path("06_adjunction.cd")
    for first, second in ((["--verbose"], ["--json"]),
                          (["--max-dim", "2", "--json"], ["--json"])):
        outputs = []
        for flags in (first, second):
            assert cli.main(["check", path, *flags]) == 0
            outputs.append(capsys.readouterr().out)
        fresh = [run_cli("check", path, *flags).stdout
                 for flags in (first, second)]
        assert [_without_millis(o) for o in outputs] \
            == [_without_millis(o) for o in fresh]


def test_an_in_process_usage_error_still_exits_two(capsys):
    path = corpus_path("02_cosemisimple.cd")
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", path, "--max-dim", "-1"])
    assert exc.value.code == 2
    assert "--max-dim" in capsys.readouterr().err
    assert cli.main(["check", path]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("spec", ["Fp 9", "Fp 1", "Fp 2147483659", "Fp 0"])
def test_a_bad_field_declaration_is_exit_two(tmp_path: Path, spec):
    doc = tmp_path / "field.cd"
    doc.write_text(f"field {spec}\ncoalg C = grouplike {{a, b}}\n"
                   "check cosemisimple C\n")
    out = run_cli("check", str(doc))
    assert out.returncode == 2, out.stderr
    assert "line 1" in out.stderr and "internal error" not in out.stderr
