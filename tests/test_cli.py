"""Command-line interface: argument handling, exit codes, and file output."""
import json
import subprocess
import sys

import pytest

from codebounds import cli
from codebounds.cli import BUDGET_ENV, main
from codebounds.codes import parse_code
from codebounds.errors import BudgetError, ScaleError
from codebounds.fileio import packaged_text, read_class_files
from codebounds.nets import SymmetricNet, emit_net


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_bound_divisibility(capsys):
    rc, out, _ = run_cli(capsys, "bound", "4", "11", "8", "--method", "divisibility")
    assert rc == 0
    assert "divisibility: 60" in out
    assert "m=4 r=3" in out
    assert "(3,-16)" in out


def test_bound_plotkin(capsys):
    rc, out, _ = run_cli(capsys, "bound", "5", "7", "6", "--method", "plotkin")
    assert rc == 0
    assert out == "plotkin: 15\n"


def test_bound_plotkin_inapplicable(capsys):
    rc, out, _ = run_cli(capsys, "bound", "5", "8", "6", "--method", "plotkin")
    assert rc == 2
    assert out == "plotkin: inapplicable\n"


def test_bound_best(capsys):
    rc, out, _ = run_cli(capsys, "bound", "5", "8", "6")
    assert rc == 0
    lines = out.splitlines()
    assert "plotkin: inapplicable" in lines
    assert "recursion: 75" in lines
    assert "divisibility: 70" in lines
    assert lines[-1] == "best: 70"


def test_bound_best_reports_divisibility_reason(capsys):
    rc, out, _ = run_cli(capsys, "bound", "3", "6", "4")
    assert rc == 0
    lines = out.splitlines()
    assert "recursion: 18" in lines
    assert "divisibility: inapplicable" in lines
    assert any(line.strip().startswith("reason:") and "divides" in line for line in lines)
    assert lines[-1] == "best: 18"


def test_bound_json(capsys):
    rc, out, _ = run_cli(capsys, "bound", "4", "11", "8", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["best"] == 60
    assert payload["bounds"]["divisibility"] == 60
    assert payload["divisibility"]["m"] == 4
    assert payload["divisibility"]["r"] == 3
    assert payload["divisibility"]["phi"] == [[1, -184], [2, -136], [3, -16]]


def test_bound_divisibility_inapplicable_json(capsys):
    rc, out, _ = run_cli(capsys, "bound", "3", "6", "4", "--method", "divisibility", "--json")
    assert rc == 2
    payload = json.loads(out)
    assert payload["best"] is None
    assert payload["divisibility"]["applicable"] is False
    assert payload["divisibility"]["reason"]


def test_bound_rejects_bad_params(capsys):
    rc, _, err = run_cli(capsys, "bound", "1", "3", "2")
    assert rc == 2
    assert err.startswith("error:")


def test_enumerate_writes_classes(tmp_path, capsys):
    out_dir = tmp_path / "classes"
    rc, out, _ = run_cli(capsys, "enumerate", "3", "3", "2", "9", "--out", str(out_dir))
    assert rc == 0
    assert out == "classes: 1\n"
    index = json.loads((out_dir / "index.json").read_text())
    assert index["count"] == 1
    assert index["classes"] == ["class_000.code"]
    assert (index["q"], index["n"], index["d"], index["target_size"]) == (3, 3, 2, 9)
    (code,) = read_class_files(out_dir)
    assert (code.params.q, code.params.n, code.params.d) == (3, 3, 2)
    assert code.size == 9


def test_enumerate_json_and_threads(capsys):
    rc, out, _ = run_cli(capsys, "enumerate", "2", "4", "2", "6", "--json", "--threads", "2")
    assert rc == 0
    assert json.loads(out) == {"classes": 2, "out": None}


def test_enumerate_refuses_large_space(capsys):
    rc, _, err = run_cli(capsys, "enumerate", "5", "8", "6", "65")
    assert rc == 2
    assert "refused" in err
    assert "--budget" in err


def test_enumerate_budget_writes_partial(tmp_path, capsys):
    out_dir = tmp_path / "partial"
    rc, _, err = run_cli(
        capsys, "enumerate", "2", "4", "2", "6", "--budget", "30", "--out", str(out_dir)
    )
    assert rc == 2
    assert "budget exhausted" in err
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "PARTIAL",
        "class_000.code",
        "class_001.code",
    ]
    marker = (out_dir / "PARTIAL").read_text()
    assert "2 classes found so far" in marker
    assert "no index written" in marker
    for name in ("class_000.code", "class_001.code"):
        assert parse_code((out_dir / name).read_text()).size == 6


def test_enumerate_budget_from_environment(monkeypatch, capsys):
    monkeypatch.setenv(BUDGET_ENV, "30")
    rc, _, err = run_cli(capsys, "enumerate", "2", "4", "2", "6")
    assert rc == 2
    assert "budget exhausted" in err

    monkeypatch.setenv(BUDGET_ENV, "soon")
    rc, _, err = run_cli(capsys, "enumerate", "2", "4", "2", "6")
    assert rc == 2
    assert "must be an integer" in err


@pytest.mark.parametrize("argv", [("2", "4", "9", "6"), ("2", "4", "2", "0")])
def test_enumerate_rejects_bad_params(argv, capsys):
    rc, _, err = run_cli(capsys, "enumerate", *argv)
    assert rc == 2
    assert err.startswith("error:")


def test_enumerate_unwritable_out_is_an_input_error(tmp_path, capsys):
    # --out names a file, so neither the class files nor the PARTIAL
    # marker of an exhausted budget can be written
    taken = tmp_path / "taken"
    taken.write_text("")
    for extra in ((), ("--budget", "3")):
        rc, out, err = run_cli(
            capsys, "enumerate", "2", "4", "2", "6", "--out", str(taken), *extra
        )
        assert rc == 2
        assert err.startswith("error:")
        assert "Traceback" not in err


def test_net_gh_expand_check_to_code_chain(tmp_path, capsys):
    gh_path = tmp_path / "gh8.gh"
    gh_path.write_text(packaged_text("gh8_klein4.gh"))

    rc, out, _ = run_cli(capsys, "net", "gh-expand", str(gh_path))
    assert rc == 0
    assert out == f"mu=2 q=4 points=32 out={tmp_path / 'gh8.net'}\n"

    rc, out, _ = run_cli(capsys, "net", "check", str(tmp_path / "gh8.net"))
    assert rc == 0
    assert "net: True" in out

    rc, out, _ = run_cli(capsys, "net", "to-code", str(tmp_path / "gh8.net"))
    assert rc == 0
    assert out == f"q=4 n=8 d=6 size=32 out={tmp_path / 'gh8.code'}\n"
    code = parse_code((tmp_path / "gh8.code").read_text())
    assert (code.params.q, code.params.n, code.size) == (4, 8, 32)


def test_net_from_code_round_trip(tmp_path, capsys):
    code_path = tmp_path / "latin.code"
    code_path.write_text(packaged_text("code_3_2_3.code"))

    rc, out, _ = run_cli(capsys, "net", "from-code", str(code_path), "--json")
    assert rc == 0
    assert json.loads(out) == {
        "mu": 1,
        "q": 3,
        "points": 9,
        "out": str(tmp_path / "latin.net"),
    }

    rc, out, _ = run_cli(capsys, "net", "check", str(tmp_path / "latin.net"))
    assert rc == 0
    assert "net: True" in out


def test_net_check_json(tmp_path, capsys):
    net_path = tmp_path / "nine.net"
    net_path.write_text(packaged_text("net_1_3.net"))
    rc, out, _ = run_cli(capsys, "net", "check", str(net_path), "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload == {
        "mu": 1,
        "q": 3,
        "sizes_ok": True,
        "s1": True,
        "s2": True,
        "s3": True,
        "s_prime": True,
        "s_prime_agrees": True,
        "gram_ok": True,
        "net": True,
    }


def test_net_check_reports_failure(tmp_path, capsys):
    bad = SymmetricNet(
        1, 2, tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    )
    net_path = tmp_path / "identity.net"
    net_path.write_text(emit_net(bad))
    rc, out, _ = run_cli(capsys, "net", "check", str(net_path))
    assert rc == 2
    assert "sizes_ok: False" in out
    assert "net: False" in out


def test_net_parse_error(tmp_path, capsys):
    net_path = tmp_path / "short.net"
    net_path.write_text("1 2\n1010\n")
    rc, _, err = run_cli(capsys, "net", "check", str(net_path))
    assert rc == 2
    assert err.startswith("error: [length]")


def test_net_missing_file(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "net", "check", str(tmp_path / "absent.net"))
    assert rc == 2
    assert err.startswith("error:")


def test_net_explicit_out_path(tmp_path, capsys):
    net_path = tmp_path / "nine.net"
    net_path.write_text(packaged_text("net_1_3.net"))
    target = tmp_path / "renamed" / "nine.code"
    target.parent.mkdir()
    rc, out, _ = run_cli(capsys, "net", "to-code", str(net_path), "--out", str(target))
    assert rc == 0
    assert f"out={target}" in out
    assert parse_code(target.read_text()).size == 9


def test_net_unwritable_out_is_an_input_error(tmp_path, capsys):
    gh_path = tmp_path / "gh8.gh"
    gh_path.write_text(packaged_text("gh8_klein4.gh"))
    target = tmp_path / "missing" / "gh8.net"
    rc, out, err = run_cli(capsys, "net", "gh-expand", str(gh_path), "--out", str(target))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_verify_writes_certificate(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "verify", "a3_16_11", "--out", str(tmp_path))
    assert rc == 0
    assert out.startswith("certificate a3_16_11: VERIFIED")
    payload = json.loads((tmp_path / "a3_16_11.cert.json").read_text())
    assert payload["verdict"] == "verified"
    assert (tmp_path / "a3_16_11.cert.txt").read_text() == out


def test_verify_unwritable_out_is_an_input_error(tmp_path, capsys):
    rc, _, err = run_cli(
        capsys, "verify", "a3_16_11", "--out", str(tmp_path / "missing" / "dir")
    )
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_verify_json_output(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys,
        "verify",
        "divisibility_family",
        "--out",
        str(tmp_path),
        "--json",
        "--threads",
        "1",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["theorem_id"] == "divisibility_family"
    assert payload["verdict"] == "verified"
    assert payload["environment"]["workers"] == 1


def test_verify_unknown_theorem(capsys):
    rc, _, err = run_cli(capsys, "verify", "a9_9_9")
    assert rc == 2
    assert "unknown theorem id" in err
    assert "a5_8_6" in err


@pytest.mark.parametrize(
    "error", [BudgetError("node budget exhausted", 7), ScaleError("too big")]
)
def test_verify_exhausted_resources_is_not_a_refutation(tmp_path, monkeypatch, capsys, error):
    def exhausted(theorem_id, workers=1):
        raise error

    monkeypatch.setattr(cli, "run_pipeline", exhausted)
    rc, out, err = run_cli(capsys, "verify", "a5_8_6", "--out", str(tmp_path))
    assert rc == 2
    assert out == ""
    assert "a5_8_6: no verdict" in err
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "codebounds", "bound", "5", "7", "6", "--method", "plotkin"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "plotkin: 15\n"
