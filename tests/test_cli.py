import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import logloss_lab
from logloss_lab import verify as verify_mod
from logloss_lab.cli import _parse_entropy, _parse_n_grid, main
from logloss_lab.core import ExpertClass
from logloss_lab.game import GameInstance, exact_minimax


@pytest.fixture
def class_file(tmp_path):
    path = tmp_path / "class.json"
    path.write_text(
        json.dumps({"contexts": [0], "experts": [[0.3], [0.7]]})
    )
    return str(path)


def test_parse_n_grid():
    assert _parse_n_grid("2^3..2^5") == [8, 16, 32]
    assert _parse_n_grid("10,20,30") == [10, 20, 30]
    with pytest.raises(ValueError):
        _parse_n_grid("abc")


def test_parse_entropy():
    H = _parse_entropy("pow:p=2,C=3")
    assert H.value(0.5) == pytest.approx(12.0)
    Hlog = _parse_entropy("log:d=2")
    assert Hlog.value(0.5) == pytest.approx(2 * math.log(2))
    with pytest.raises(ValueError):
        _parse_entropy("bogus:p=1")


def test_minimax_subcommand(class_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["minimax", "--class", class_file, "--n", "3",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    ec = ExpertClass.constants([0.3, 0.7])
    expected = exact_minimax(GameInstance(horizon=3, expert_class=ec))
    assert report["value"] == pytest.approx(expected, rel=1e-11)


def test_minimax_deterministic_output(class_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["minimax", "--class", class_file, "--n", "3", "--out", str(a)])
    main(["minimax", "--class", class_file, "--n", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_dual_subcommand(class_file, tmp_path):
    out = tmp_path / "dual.json"
    code = main(["dual", "--class", class_file, "--n", "2", "--samples", "20",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["gap"] >= -1e-9


def test_verify_subcommand_exit_codes(tmp_path, capsys):
    code = main(["verify", "--checks", "SC_EDGE,KL_EPS",
                 "--resolution", "1e-3"])
    assert code == 0
    lines = [
        ln for ln in capsys.readouterr().out.strip().split("\n") if ln
    ]
    assert len(lines) == 2
    assert all("worst_slack=" in ln and "pass=True" in ln for ln in lines)


def test_verify_json_report(tmp_path):
    out = tmp_path / "verify.json"
    code = main(["verify", "--checks", "SC_EDGE", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["checks"][0]["pass"] is True


def test_bounds_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["bounds", "--entropy", "pow:p=2,C=1",
                 "--n-grid", "2^10..2^12", "--format", "csv",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,self_concordance,truncation"
    assert len(lines) == 4
    for ln in lines[1:]:
        n, sc, tr = ln.split(",")
        assert float(sc) < float(tr)


def test_cover_subcommand(class_file, tmp_path):
    out = tmp_path / "cover.json"
    code = main(["cover", "--class", class_file, "--n", "2",
                 "--gammas", "0.5,0.1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    sizes = {r["gamma"]: r["size"] for r in report["results"]}
    assert sizes[0.5] == 1
    assert sizes[0.1] >= 2


def test_assouad_subcommand(tmp_path):
    out = tmp_path / "as.json"
    code = main(["assouad", "--p", "1", "--n", "16384", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["lower_bound"] == pytest.approx(1.0)


def test_assouad_scaling_csv(tmp_path):
    out = tmp_path / "scaling.csv"
    code = main(["assouad", "--scaling", "--p", "1", "--n-grid", "64,128",
                 "--n-seeds", "3", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "p,n,epsilon,seed,regret"
    assert len(lines) == 1 + 2 * 3


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"subcommand": "minimax", "bogus": 1}))
    assert main(["--config", str(bad)]) == 2
    assert main(["minimax", "--class", "/nonexistent.json", "--n", "2"]) == 2


def test_config_roundtrip(class_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    out1 = tmp_path / "o1.json"
    out2 = tmp_path / "o2.json"
    code = main(["minimax", "--class", class_file, "--n", "3",
                 "--emit-config", str(cfg), "--out", str(out1)])
    assert code == 0
    emitted = json.loads(cfg.read_text())
    assert emitted["subcommand"] == "minimax"
    # re-run from the emitted config alone (out overridden)
    code = main(["--config", str(cfg), "minimax", "--out", str(out2)])
    assert code == 0
    assert out1.read_text() == out2.read_text()


def test_unknown_class_file_keys(tmp_path):
    path = tmp_path / "bad_class.json"
    path.write_text(json.dumps({"contexts": [0], "experts": [[0.5]],
                                "extra": 1}))
    assert main(["minimax", "--class", str(path), "--n", "2"]) == 2


def test_flags_belong_to_their_subcommands(class_file, capsys):
    # only verify reads --resolution; minimax, cover take no --seed
    assert main(["minimax", "--class", class_file, "--n", "2",
                 "--resolution", "1e-3"]) == 2
    assert main(["cover", "--seed", "1"]) == 2
    assert main(["verify", "--checks", "SC_EDGE", "--workers", "2"]) == 2
    assert main(["verify", "--checks", "SC_EDGE", "--resolution", "1e-3",
                 "--seed", "3"]) == 0
    assert main(["--help"]) == 0
    assert main(["minimax", "--help"]) == 0


def test_module_entry_point_runs_without_warning():
    # run the same package the tests import
    src = os.path.dirname(os.path.dirname(logloss_lab.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "logloss_lab.cli", "--help"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout


def test_exit_code_failed_check(monkeypatch, capsys):
    failing = verify_mod.CheckReport(
        check_id="SC_EDGE", grid_spec="stub", worst_slack=-1.0,
        worst_point=(0.0,), tolerance=1e-9, passed=False,
    )
    monkeypatch.setattr(verify_mod, "run_check", lambda cid, **kw: failing)
    assert main(["verify", "--checks", "SC_EDGE"]) == 1
    assert "pass=False" in capsys.readouterr().out


def test_exit_code_configuration_errors(capsys):
    assert main(["verify", "--checks", "all"]) == 2
    assert main(["verify", "--checks", "SC_EDGE,NO_SUCH_CHECK"]) == 2
    assert "unknown check_id" in capsys.readouterr().err
