"""End-to-end command-line checks through run(), plus one real subprocess."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracecodes
from tracecodes import cli, gf2m, predict, weil
from tracecodes import code as code_mod

import cases


def test_weights_text_output(capsys):
    rc = cli.run(["weights", "--m", "5", "--h", "1", "--variant", "d0"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "n=15 k=5 d=6"
    assert out[1:] == ["0 1", "6 10", "8 15", "10 6"]


def test_construct_machine_format(capsys):
    rc = cli.run(["construct", "--m", "5", "--h", "1", "--variant", "d1",
                  "--format", "machine"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert "m=5" in out and "n=16" in out and "k=5" in out and "modulus=37" in out
    assert all("=" in line and " " not in line for line in out)


def test_construct_text_names_the_modulus(capsys):
    rc = cli.run(["construct", "--m", "4", "--h", "2", "--variant", "full"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "modulus polynomial: x^4 + x + 1" in out
    assert "k=2" in out  # norm map: rank drops to h


def test_construct_reports_the_h_of_a_punctured_code(capsys):
    rc = cli.run(["construct", "--m", "6", "--h", "1", "--variant", "punctured"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "m=6 modulus=67 generator=2 variant=punctured h=1 n=21 k=6")


def test_construct_honors_modulus_flag(capsys):
    rc = cli.run(["construct", "--m", "5", "--h", "1", "--variant", "d0",
                  "--modulus", "0b101001"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "modulus=41" in out


def test_verify_default_source_matches(capsys):
    rc = cli.run(["verify", "--m", "5", "--h", "1", "--variant", "d1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "source=T2C status=match" in out
    assert "moment=pass" in out
    assert out.count(" ok") == 4  # zero-weight row plus three table rows


def test_verify_forced_printed_table_fails(capsys):
    rc = cli.run(["verify", "--m", "5", "--h", "1", "--variant", "d1",
                  "--source", "T2"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert any(line == "6 expected=7 actual=6 DIFF" for line in out)
    assert any(line == "10 expected=9 actual=10 DIFF" for line in out)
    assert any(line == "8 expected=15 actual=15 ok" for line in out)


def test_verify_uncovered_variant_is_inapplicable(capsys):
    rc = cli.run(["verify", "--m", "3", "--h", "1", "--variant", "full"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "status=inapplicable note=no table covers variant=full at m=3 h=1\n")
    rc = cli.run(["verify", "--m", "6", "--h", "3", "--variant", "d0", "--format", "machine"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "status=inapplicable\nnote=no table covers variant=d0 at m=6 h=3\n")


def test_verify_norm_collapse_note(capsys):
    rc = cli.run(["verify", "--m", "4", "--h", "2", "--variant", "full"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status=match" in out
    assert "# " in out and "rank collapse" in out


def test_bad_parameters_exit_2(capsys):
    rc = cli.run(["weights", "--m", "5", "--h", "3", "--variant", "d0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_punctured_needs_even_ratio(capsys):
    rc = cli.run(["construct", "--m", "5", "--h", "1", "--variant", "punctured"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_weil_exact_agreement(capsys):
    rc = cli.run(["weil", "--m", "4", "--h", "1", "--a", "8", "--b", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "agree=1" in out and "kind=" not in out


def test_weil_odd_regime_signed(capsys):
    rc = cli.run(["weil", "--m", "3", "--h", "1", "--a", "1", "--b", "1",
                  "--format", "machine"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert "closed=-4" in out
    assert "agree=1" in out


def test_weil_disagreement_is_an_error_line(capsys, monkeypatch):
    # S_1(8, 3) = 0 at m = 4; a wrong direct value must not escape as a traceback
    monkeypatch.setattr(weil, "weil_sum_direct", lambda ctx, h, a, b=0: 4)
    rc = cli.run(["weil", "--m", "4", "--h", "1", "--a", "8", "--b", "3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "agree=0" in captured.out
    assert captured.err.startswith("error: ")


def test_weil_form_guard_is_an_error_line(capsys, monkeypatch):
    # a form that is not t*Tr on its radical is refused with an error: line
    monkeypatch.setattr(weil, "_character", lambda ctx, h, j, t, x: np.ones(np.shape(x), np.uint8))
    rc = cli.run(["weil", "--m", "4", "--h", "1", "--a", "1", "--b", "3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "radical" in captured.err
    assert "Traceback" not in captured.err


def test_sweep_kernel_guard_is_an_error_line(capsys, monkeypatch):
    # a weight-0 count that is no power of two is no kernel: exit 1, no traceback
    inner = gf2m.wht

    def moved(v):
        w = inner(v)
        w[0] -= 2  # message 0 leaves weight 0
        return w

    monkeypatch.setattr(gf2m, "wht", moved)
    rc = cli.run(["sweep", "--m-min", "3", "--m-max", "5"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "no power of two" in captured.err
    assert "Traceback" not in captured.err


def test_export_to_file(tmp_path, capsys):
    dest = tmp_path / "gen.txt"
    rc = cli.run(["export", "--m", "5", "--h", "1", "--variant", "d0",
                  "--out", str(dest)])
    assert rc == 0
    lines = dest.read_text().splitlines()
    assert lines[0] == "15 5 5 1 37"
    assert len(lines) == 6
    assert all(len(row) == 15 and set(row) <= {"0", "1"} for row in lines[1:])
    rc = cli.run(["export", "--m", "5", "--h", "1", "--variant", "d0"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_export_m20_punctured(capsys):
    rc = cli.run(["export", "--m", "20", "--h", "5", "--variant", "punctured"])
    lines = capsys.readouterr().out.split("\n")
    assert rc == 0
    assert lines[0] == f"31775 20 20 5 {gf2m.build_field(20).modulus}"
    assert lines[-1] == "" and len(lines) == 22
    assert all(len(row) == 31775 and set(row) <= {"0", "1"} for row in lines[1:-1])


def test_export_takes_no_format(capsys):
    # the text is the same for every format, so export offers no --format
    with pytest.raises(SystemExit) as exc:
        cli.run(["export", "--m", "5", "--h", "1", "--variant", "d0", "--format", "machine"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == "" and captured.err.startswith("usage: ")
    assert "error: unrecognized arguments: --format machine" in captured.err


def test_export_to_missing_directory_exit_2(tmp_path, capsys):
    rc = cli.run(["export", "--m", "5", "--h", "1", "--variant", "d0",
                  "--out", str(tmp_path / "missing" / "g.txt")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and "g.txt" in captured.err
    assert "Traceback" not in captured.err


def test_weights_above_m16(capsys):
    rc = cli.run(["weights", "--m", "17", "--h", "1", "--variant", "d0"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert {int(w): int(c) for w, c in (line.split() for line in out[1:])} == {
        0: 1, 32640: 32896, 32768: 65535, 32896: 32640}


def test_verify_above_m16(capsys):
    rc = cli.run(["verify", "--m", "18", "--h", "3", "--variant", "d0"])
    assert rc == 0
    assert "status=match" in capsys.readouterr().out


def test_verify_m20_trace0_table(capsys):
    rc = cli.run(["verify", "--m", "20", "--h", "4", "--variant", "d0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("source=T1 status=match")


def test_verify_m20_punctured_table(capsys):
    rc = cli.run(["verify", "--m", "20", "--h", "5", "--variant", "punctured"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("source=C6 status=match")


def test_sweep_deterministic_and_green(capsys):
    rc1 = cli.run(["sweep", "--m-min", "3", "--m-max", "5"])
    first = capsys.readouterr().out
    rc2 = cli.run(["sweep", "--m-min", "3", "--m-max", "5"])
    second = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert first == second
    assert "# summary cases=" in first


def test_sweep_rejects_bad_range(capsys):
    rc = cli.run(["sweep", "--m-min", "6", "--m-max", "3"])
    assert rc == 2
    assert "bad range" in capsys.readouterr().err


def test_sweep_refuses_m_past_the_field_range_before_any_work(capsys, monkeypatch):
    # above and below the range, with the field module's own message
    refused = {}
    for bad in (21, 1):
        with pytest.raises(ValueError) as err:
            gf2m.build_field(bad)
        refused[bad] = str(err.value)
    calls = []
    monkeypatch.setattr(gf2m, "build_field", lambda *args: calls.append(args))
    for lo, hi, bad in ((3, 21, 21), (1, 4, 1)):
        rc = cli.run(["sweep", "--m-min", str(lo), "--m-max", str(hi)])
        assert rc == 2 and calls == []
        assert capsys.readouterr().err == f"error: {refused[bad]}\n"


def test_module_entrypoint_subprocess():
    # the child imports the same package as this process, installed or not
    src = str(Path(tracecodes.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tracecodes", "weights",
         "--m", "4", "--h", "1", "--variant", "d1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "n=8 k=4 d=2"


def _argument_grid():
    variants = (code_mod.D0, code_mod.D1, code_mod.FULL_STAR, code_mod.PUNCTURED_IMAGE)
    for m in range(2, 7):
        q = 1 << m
        for h in range(0, m + 1):
            base = ["--m", str(m), "--h", str(h)]
            for v in variants:
                for cmd in ("construct", "weights", "verify", "export"):
                    yield [cmd, *base, "--variant", v]
                for src in predict.SOURCES:
                    yield ["verify", *base, "--variant", v, "--source", src]
            for a in (-1, 0, 1, q - 1, q):
                for b in (-1, 0, 1, q - 1, q):
                    yield ["weil", *base, "--a", str(a), "--b", str(b)]
        # another irreducible modulus, then reducible, wrong-degree and negative ones
        for mod in (cases.largest_irreducible(m), 0, 1, -1, -(q | 3), q, 3 * q, (1 << 70) | 1):
            for cmd in (["construct", "--variant", "d0"], ["weights", "--variant", "d1"],
                        ["verify", "--variant", "full"], ["export", "--variant", "punctured"],
                        ["weil", "--a", "1", "--b", "1"]):
                yield [cmd[0], "--m", str(m), "--h", "1", *cmd[1:], "--modulus", str(mod)]
    for lo, hi in ((2, 4), (6, 3), (1, 4), (0, 0), (-1, 2), (21, 22), (3, 2)):
        yield ["sweep", "--m-min", str(lo), "--m-max", str(hi)]


def test_no_argument_list_escapes_as_an_exception():
    # every subcommand over small fields with edge values: each run ends in
    # an exit code, and exit 2 always comes with an error: line
    codes = set()
    for argv in _argument_grid():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        assert rc in (0, 1, 2), argv
        assert rc != 2 or err.getvalue().startswith("error: "), argv
        codes.add(rc)
    assert codes == {0, 1, 2}
