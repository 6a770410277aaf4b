import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import logloss_lab
from logloss_lab import verify as verify_mod
from logloss_lab.assouad import BatchEstimator, lower_bound_value
from logloss_lab.bounds import rate_exponents
from logloss_lab.cli import _parse_entropy, _parse_n_grid, build_parser, main
from logloss_lab.core import ExpertClass, psi
from logloss_lab.game import BayesMixture, GameInstance, exact_minimax


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
    assert _parse_n_grid("2^3..2^3") == [8]
    with pytest.raises(ValueError, match="empty"):
        _parse_n_grid("2^5..2^3")


def test_parse_n_grid_refuses_a_power_past_the_horizon_guard():
    # 2^511 is the largest power of two with a double square; the grid is
    # refused before any of its horizons is built
    assert _parse_n_grid("2^510..2^511")[-1] == 2**511
    with pytest.raises(ValueError, match=f"got n = {2**512}$"):
        _parse_n_grid("2^10..2^512")
    with pytest.raises(ValueError, match=r"got n = 2\^513$"):
        _parse_n_grid("2^513..2^520")


def test_bounds_grid_errors_exit_2(capsys):
    # an empty grid is a usage error with or without --fit, and a fit needs
    # two distinct horizons
    for extra in ([], ["--fit"]):
        assert main(["bounds", "--entropy", "pow:p=2",
                     "--n-grid", "2^5..2^3", *extra]) == 2
        assert "is empty" in capsys.readouterr().err
    for grid in ("2^3..2^3", "8,8"):
        assert main(["bounds", "--entropy", "pow:p=2",
                     "--n-grid", grid, "--fit"]) == 2
        assert "two distinct horizons" in capsys.readouterr().err
    # a repeated horizon would weigh its point twice in the fit
    assert main(["bounds", "--entropy", "pow:p=2", "--n-grid", "16,16,32",
                 "--fit"]) == 2
    assert "degenerate grid: horizon 16 " in capsys.readouterr().err
    for grid in ("2^3..2^3", "16,16,32"):
        assert main(["bounds", "--entropy", "pow:p=2", "--n-grid", grid]) == 0


def test_bounds_horizon_past_a_double_square_exits_2(capsys, monkeypatch):
    # 1/n^2 overflows a double from n = 2^512 on; every horizon is checked
    # before any bound runs
    from logloss_lab import bounds as bounds_mod
    assert main(["bounds", "--entropy", "pow:p=2", "--n-grid", "2^511..2^511"]) == 0
    capsys.readouterr()
    ran = []
    monkeypatch.setattr(bounds_mod, "self_concordance_bound",
                        lambda H, n: ran.append(n))
    for grid in ("2^512..2^512", f"16,{2**512}"):
        assert main(["bounds", "--entropy", "pow:p=2", "--n-grid", grid]) == 2
        assert f"got n = {2**512}" in capsys.readouterr().err
    assert ran == []


def test_parse_entropy():
    H = _parse_entropy("pow:p=2,C=3")
    assert H.value(0.5) == pytest.approx(12.0)
    Hlog = _parse_entropy("log:d=2")
    assert Hlog.value(0.5) == pytest.approx(2 * math.log(2))
    with pytest.raises(ValueError):
        _parse_entropy("bogus:p=1")


def test_parse_entropy_rejects_unknown_keys():
    for spec in ("pow:P=2,c=3", "log:p=2", "pow:d=1", "log:d=1,C=2"):
        with pytest.raises(ValueError, match="takes only"):
            _parse_entropy(spec)
        assert main(["bounds", "--entropy", spec, "--n-grid", "1024"]) == 2
    # an empty spec keeps the defaults C = 1, p = 1 and d = 1
    assert _parse_entropy("pow").value(0.5) == 2.0
    assert _parse_entropy("log").value(0.5) == math.log(2)


def test_parse_entropy_rejects_repeated_keys(capsys):
    # a repeated key would silently keep its last value
    for spec, key in (("pow:p=2,p=3", "p"), ("pow:C=1,p=2,C=1", "C"),
                      ("log:d=1,d=2", "d")):
        with pytest.raises(ValueError, match=f": {key} given twice"):
            _parse_entropy(spec)
        assert main(["bounds", "--entropy", spec, "--n-grid", "1024"]) == 2
        assert f": {key} given twice" in capsys.readouterr().err


def test_minimax_subcommand(class_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["minimax", "--class", class_file, "--n", "3",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    ec = ExpertClass.constants([0.3, 0.7])
    expected = exact_minimax(GameInstance(horizon=3, expert_class=ec))
    assert report["value"] == pytest.approx(expected, rel=1e-11)
    # one count table: C(3 + 2, 2) = 10 states over depths 0..3
    assert report["solver"] == "counts"
    assert report["states"] == 10


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


def test_dual_input_errors_exit_2(class_file, capsys):
    for samples in ("0", "-3"):
        assert main(["dual", "--class", class_file, "--n", "2",
                     "--samples", samples]) == 2
        assert "--samples must be >= 1" in capsys.readouterr().err
    # the path guard fires before a 2^21-node tree is drawn
    assert main(["dual", "--class", class_file, "--n", "21",
                 "--samples", "1"]) == 2
    assert "too many paths" in capsys.readouterr().err


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
    assert set(report["checks"][0]) == {
        "check_id", "grid_spec", "worst_slack", "worst_point", "tolerance",
        "pass", "points",
    }
    assert report["checks"][0]["points"] == 2 * 1001  # two branches, step 1e-3


def test_verify_all_and_checks_exclude_each_other(capsys):
    assert main(["verify", "--all", "--checks", "SC_EDGE",
                 "--resolution", "1e-2"]) == 2
    assert "not allowed with argument --all" in capsys.readouterr().err


def test_verify_all_default_resolution(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--all", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert len(checks) == 9
    assert all(c["pass"] for c in checks)


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


def test_bounds_log_curve(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(["bounds", "--entropy", "log:d=2", "--n-grid", "2^10..2^12",
                 "--out", str(out)])
    assert code == 0
    sweep = json.loads(out.read_text())["sweep"]
    assert [r["n"] for r in sweep] == [1024, 2048, 4096]
    for r in sweep:
        assert math.isfinite(r["truncation"]) and r["truncation"] > 0


def test_bounds_steep_power_curve(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(["bounds", "--entropy", "pow:p=80,C=1",
                 "--n-grid", "2^10..2^11", "--out", str(out)])
    assert code == 0
    for r in json.loads(out.read_text())["sweep"]:
        assert math.isfinite(r["self_concordance"])


def test_cover_subcommand(class_file, tmp_path):
    out = tmp_path / "cover.json"
    code = main(["cover", "--class", class_file, "--n", "2",
                 "--gammas", "0.5,0.1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    sizes = {r["gamma"]: r["size"] for r in report["results"]}
    assert sizes[0.5] == 1
    assert sizes[0.1] >= 2
    # two experts on the 2 distinct node paths of depth 2
    assert report["demands"] == 4
    assert set(report) == {"subcommand", "n", "demands", "results"}


def test_cover_class_greedy_stays_linear_in_demands(class_file):
    # depth 16 trips the exact guard, so greedy colours 2^15 * 2 demands; a
    # pairwise conflict bitmask per demand would take 2^32 bits (512 MB)
    src = os.path.dirname(os.path.dirname(logloss_lab.__file__))
    argv = ["cover", "--class", class_file, "--n", "16", "--gammas", "0.1,0.5",
            "--format", "json"]
    script = (
        "import resource, sys, time\n"
        "from logloss_lab.cli import main\n"
        "start = time.perf_counter()\n"
        f"code = main({argv!r})\n"
        "print(time.perf_counter() - start,\n"
        "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["demands"] == 1 << 16
    assert [(r["size"], r["exact"]) for r in report["results"]] == [
        (2, False), (1, False)]
    seconds, max_rss = map(float, proc.stderr.split())
    assert seconds < 60
    assert max_rss < 200 * 1024  # KiB on Linux


def test_cover_curve_reports_counts(tmp_path):
    out = tmp_path / "curve.json"
    code = main(["cover", "--gammas", "0.25,0.125", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["counts"] == [
        {"gamma": 0.125, "functions": 75, "packing": 17},
        {"gamma": 0.25, "functions": 9, "packing": 4},
    ]
    assert [c["upper"] for c in report["curve"]] == pytest.approx(
        np.log([75, 9]), rel=1e-11
    )


def test_bounds_fit_of_zero_curve_exits_2(capsys):
    # a zero curve's bounds are 0 at every n, so a slope fit has nothing to
    # fit; the sweep alone still runs
    for spec in ("pow:C=0", "log:d=0"):
        args = ["bounds", "--entropy", spec, "--n-grid", "16,32"]
        assert main([*args, "--fit"]) == 2
        assert "identically zero" in capsys.readouterr().err
        assert main(args) == 0
        assert "fit" not in json.loads(capsys.readouterr().out)


def test_bounds_fit_past_int64(tmp_path):
    out = tmp_path / "fit.json"
    code = main(["bounds", "--entropy", "pow:p=2,C=1",
                 "--n-grid", "2^60..2^70", "--fit", "--out", str(out)])
    assert code == 0
    fit = json.loads(out.read_text())["fit"]
    assert fit["self_concordance_slope"] == pytest.approx(2 / 3, abs=1e-9)
    assert 0.75 < fit["truncation_slope"] < 0.77


@pytest.mark.parametrize("spec, message", [
    ({"experts": [[0.5]]}, "lacks the keys ['contexts']"),
    ({"contexts": [0]}, "lacks the keys ['experts']"),
    ({}, "lacks the keys ['contexts', 'experts']"),
    ([[0.5]], "must hold a JSON object, got list"),
    (0.5, "must hold a JSON object, got float"),
])
def test_malformed_class_file_exits_2(tmp_path, capsys, spec, message):
    path = tmp_path / "class.json"
    path.write_text(json.dumps(spec))
    assert main(["minimax", "--class", str(path), "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert message in err and "internal error" not in err


def test_cover_class_depth_guard_exits_2(class_file, capsys):
    # the duals' tree guard, before the 2^21 - 1 node tree is built
    assert main(["cover", "--class", class_file, "--n", "21"]) == 2
    assert "too many paths: a depth-21 tree" in capsys.readouterr().err


def test_cover_class_gamma_errors_exit_2(class_file, capsys):
    for gamma in ("-1", "nan", "inf"):
        assert main(["cover", "--class", class_file, "--n", "2",
                     "--gammas", f"0.5,{gamma}"]) == 2
        assert "gamma must be finite and >= 0" in capsys.readouterr().err
    assert main(["cover", "--class", class_file, "--n", "2",
                 "--gammas", "0"]) == 0


def test_cover_gamma_error_not_hidden_by_greedy_fallback(tmp_path, capsys):
    # nine experts trip the exact guard, whose ValueError falls back to greedy
    path = tmp_path / "nine.json"
    path.write_text(json.dumps({"contexts": [0],
                                "experts": [[i / 8] for i in range(9)]}))
    assert main(["cover", "--class", str(path), "--n", "2",
                 "--gammas", "0.1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["exact"] is False
    for gamma in ("-1", "nan"):
        assert main(["cover", "--class", str(path), "--n", "2",
                     "--gammas", gamma]) == 2
        assert "gamma must be finite and >= 0" in capsys.readouterr().err


def test_cover_class_of_several_contexts_exits_2(tmp_path, capsys):
    # the covered tree shows one context everywhere, so the other would go
    # unread: at gamma 0.3 this class would cover with 2 in one context
    # order and 1 in the other
    columns = {"a": (0.1, 0.9), "b": (0.5, 0.6)}
    for order in ("ab", "ba"):
        path = tmp_path / f"{order}.json"
        experts = [[columns[x][f] for x in order] for f in range(2)]
        path.write_text(json.dumps({"contexts": list(order), "experts": experts}))
        assert main(["cover", "--class", str(path), "--n", "2",
                     "--gammas", "0.3"]) == 2
        assert "needs a class with one context, got 2" in capsys.readouterr().err


def test_cover_input_errors_exit_2(capsys):
    assert main(["cover", "--dim", "1"]) == 2  # the family has one dimension
    assert "unrecognized arguments: --dim" in capsys.readouterr().err
    assert main(["cover", "--gammas", "0"]) == 2
    assert "finite and positive" in capsys.readouterr().err
    assert main(["cover", "--gammas", "1e-300"]) == 2
    assert "CELL_GUARD" in capsys.readouterr().err
    assert main(["cover", "--gammas", "0.25,0.25"]) == 2
    assert "each gamma must appear once" in capsys.readouterr().err


def test_assouad_subcommand(tmp_path):
    out = tmp_path / "as.json"
    code = main(["assouad", "--p", "1", "--n", "16384", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["lower_bound"] == pytest.approx(1.0)


def test_assouad_needs_integer_dimension(capsys):
    # the single-n path builds the same cube as --scaling, so it takes the
    # same whole-number p
    for p in ("1.4", "2.6", "nan"):
        assert main(["assouad", "--p", p, "--n", "1024"]) == 2
        assert "the experiment needs an integer dimension p" in (
            capsys.readouterr().err
        )


def test_assouad_scaling_csv(tmp_path):
    out = tmp_path / "scaling.csv"
    code = main(["assouad", "--scaling", "--p", "1", "--n-grid", "64,128",
                 "--n-seeds", "3", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "p,n,epsilon,seed,regret"
    assert len(lines) == 1 + 2 * 3


def test_assouad_scaling_without_seeds_exits_2(capsys):
    for n_seeds in ("0", "-1"):
        assert main(["assouad", "--scaling", "--p", "1", "--n-grid", "64,128",
                     "--n-seeds", n_seeds]) == 2
        assert "at least one seed" in capsys.readouterr().err


def test_assouad_scaling_grid_errors_exit_2(capsys):
    for grid, msg in (("64,64", "two distinct horizons"),
                      ("2,2,4", "degenerate grid: horizon 2 "),
                      ("0,64", "horizons must be >= 1")):
        assert main(["assouad", "--scaling", "--p", "1", "--n-grid", grid,
                     "--n-seeds", "1"]) == 2
        assert msg in capsys.readouterr().err


def test_assouad_horizon_one_exits_2(capsys):
    # at n = 1 the sign class's epsilon would be 1/8 itself
    for argv in (["--n", "1"], ["--scaling", "--n-grid", "1,64", "--n-seeds", "1"]):
        assert main(["assouad", "--p", "1", *argv]) == 2
        err = capsys.readouterr().err
        assert "horizon must be at least 2" in err
        assert "epsilon must lie" not in err


def test_assouad_strategy_choices_exit_2(tmp_path, capsys):
    argv = ["assouad", "--scaling", "--n-grid", "64,128", "--n-seeds", "1"]
    assert main([*argv, "--strategy", "bogus"]) == 2
    assert "argument --strategy: invalid choice: 'bogus'" in capsys.readouterr().err
    # a config file's flags are spliced into the command line, so parsed too
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "assouad", "scaling": True,
                               "n_grid": "64,128", "n_seeds": 1,
                               "strategy": "bogus"}))
    assert main(["--config", str(cfg)]) == 2
    assert "argument --strategy: invalid choice: 'bogus'" in capsys.readouterr().err


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


def test_command_line_overrides_config(class_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "minimax",
                               "class_file": class_file, "n": 2}))
    for flag in (["--n", "3"], ["--n=3"]):
        assert main(["--config", str(cfg), "minimax", *flag,
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 3
    # a config value is parsed even where the command line overrides it
    cfg.write_text(json.dumps({"subcommand": "minimax",
                               "class_file": class_file, "n": "abc"}))
    assert main(["--config", str(cfg), "minimax", "--n", "3"]) == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err
    # a config true turns a switch on, and false leaves it off
    for fit in (True, False):
        cfg.write_text(json.dumps({"subcommand": "bounds",
                                   "entropy": "pow:p=2", "n_grid": "16,32",
                                   "fit": fit}))
        assert main(["--config", str(cfg), "--format", "json"]) == 0
        assert ("fit" in json.loads(capsys.readouterr().out)) is fit


def _refuse_constant(name):
    raise AssertionError(f"non-JSON constant {name} in the output")


def test_json_output_is_strict(tmp_path, capsys, monkeypatch):
    # one scale fits no slope, and a dual whose one expert gives the drawn
    # outcome probability 0 has value -inf
    assert main(["cover", "--gammas", "1,2", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert report["slope"] is None
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"contexts": [0], "experts": [[0.0]]}))
    argv = ["dual", "--class", str(path), "--n", "2", "--samples", "3"]
    assert main([*argv, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert report["best_dual"] is None and report["gap"] is None
    # CSV keeps the float's own text
    assert main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out.split("\n")[1] == "0,-inf"
    # a non-finite float that escapes the rounding is a defect
    from logloss_lab import cli
    monkeypatch.setattr(cli, "_round_floats", lambda obj: obj)
    assert main(["cover", "--gammas", "1,2", "--format", "json"]) == 3
    assert "internal error: RuntimeError" in capsys.readouterr().err


@pytest.mark.parametrize("case", [
    ["minimax", "--class", "NAN_CLASS", "--n", "3"],
    ["bounds", "--entropy", "pow:p=2,C=inf", "--n-grid", "16,32"],
    ["bounds", "--entropy", "log:d=inf", "--n-grid", "16,32"],
    ["bounds", "--entropy", "pow:p=nan", "--n-grid", "16,32"],
    lambda: psi(0.5, math.nan, 0.1),
    lambda: verify_mod.sup_psi(math.nan),
    lambda: rate_exponents(math.nan),
    lambda: lower_bound_value(math.nan, 1024),
    lambda: BatchEstimator([math.nan, 0.5]),
    lambda: BayesMixture(ExpertClass.constants([0.3, 0.7]), prior=[1.5, -0.5]),
], ids=["minimax-nan-class", "bounds-pow-C-inf", "bounds-log-d-inf",
        "bounds-pow-p-nan", "psi", "sup_psi", "rate_exponents",
        "lower_bound_value", "BatchEstimator", "BayesMixture-prior"])
def test_range_checks_reject_nan_and_inf(case, tmp_path, capsys):
    # each check is written positively, so NaN and +-inf fail it
    if callable(case):
        with pytest.raises(ValueError):
            case()
        return
    path = tmp_path / "nan.json"
    path.write_text('{"contexts": [0], "experts": [[NaN], [0.5]]}')
    assert main([str(path) if a == "NAN_CLASS" else a for a in case]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "NaN to integer" not in err


def test_unknown_class_file_keys(tmp_path):
    path = tmp_path / "bad_class.json"
    path.write_text(json.dumps({"contexts": [0], "experts": [[0.5]],
                                "extra": 1}))
    assert main(["minimax", "--class", str(path), "--n", "2"]) == 2


def test_list_context_ids_exit_2(tmp_path, capsys):
    path = tmp_path / "list_contexts.json"
    path.write_text(json.dumps({"contexts": [[0], [1]],
                                "experts": [[0.2, 0.7]]}))
    for cmd in ("minimax", "dual"):
        assert main([cmd, "--class", str(path), "--n", "2"]) == 2
        assert "context ids must be hashable" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, flag", [
    (["cover", "--n", "3"], "cover --n is not read without --class"),
    (["cover", "--gammas", "0.5", "--n=2"], "cover --n is not read without --class"),
    (["assouad", "--scaling", "--n-grid", "64,128", "--n", "64"],
     "assouad --n is not read with --scaling"),
    (["assouad", "--n-grid", "64,128"], "assouad --n-grid is not read without --scaling"),
    (["assouad", "--n-seeds", "3"], "assouad --n-seeds is not read without --scaling"),
    (["assouad", "--strategy", "empirical"],
     "assouad --strategy is not read without --scaling"),
    (["assouad", "--n", "64", "--seed", "1"], "assouad --seed is not read without --scaling"),
])
def test_flags_a_mode_does_not_read_exit_2(argv, flag, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    assert main([*argv, "--emit-config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {flag}\n"
    assert not cfg.exists()  # refused before anything is written


def test_flags_a_mode_reads_keep_their_output(class_file, tmp_path, capsys):
    # each mode still takes its own flags, and an emitted config, which
    # lists every flag, still runs: a config file holds defaults
    for argv in (["cover", "--gammas", "0.25,0.125"],
                 ["cover", "--class", class_file, "--n", "2", "--gammas", "0.5"],
                 ["assouad", "--p", "1", "--n", "64"],
                 ["assouad", "--scaling", "--p", "1", "--n-grid", "64,128",
                  "--n-seeds", "2", "--strategy", "empirical", "--seed", "3"]):
        cfg = tmp_path / "cfg.json"
        assert main([*argv, "--emit-config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert main(["--config", str(cfg)]) == 0
        assert capsys.readouterr().out == out
    emitted = json.loads(cfg.read_text())
    assert emitted["n"] == 1024  # the unread default is listed
    # a config default is not checked, and a command-line flag that the
    # config's mode reads is
    cfg.write_text(json.dumps({"subcommand": "cover", "n": 5}))
    assert main(["--config", str(cfg), "--gammas", "0.5"]) == 0
    cfg.write_text(json.dumps({"subcommand": "cover", "class_file": class_file}))
    assert main(["--config", str(cfg), "--n", "2", "--gammas", "0.5"]) == 0
    cfg.write_text(json.dumps({"subcommand": "assouad", "scaling": True}))
    assert main(["--config", str(cfg), "--n", "64"]) == 2
    assert "assouad --n is not read with --scaling" in capsys.readouterr().err


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
    for empty in ("--checks=", "--checks=,"):
        assert main(["verify", empty, "--resolution", "0.1"]) == 2
        assert "unknown check_id: ''" in capsys.readouterr().err
    assert main(["verify", "--checks", "CLIPPING", "--resolution", "0.6"]) == 2
    assert "CLIPPING: resolution 0.6" in capsys.readouterr().err
    for bad in ("inf", "nan"):
        assert main(["verify", "--checks", "SC_POINTWISE,NESTEROV",
                     "--resolution", bad]) == 2
        assert f"resolution must be finite and positive, got {bad}" in (
            capsys.readouterr().err
        )


def test_exit_code_internal_error(monkeypatch, capsys):
    from logloss_lab import cli

    def raising(exc):
        def cmd(args):
            raise exc
        return cmd

    argv = ["bounds", "--entropy", "log:d=2", "--n-grid", "2^10..2^12"]
    monkeypatch.setattr(cli, "_cmd_bounds", raising(AttributeError("no trapz")))
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback")
    assert err.endswith("internal error: AttributeError: no trapz\n")
    monkeypatch.setattr(cli, "_cmd_bounds", raising(ValueError("bad input")))
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: bad input\n"


def test_config_with_dim_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cover.json"
    cfg.write_text(json.dumps({"subcommand": "cover", "dim": 1}))
    assert main(["--config", str(cfg)]) == 2
    assert "unknown config keys: ['dim']" in capsys.readouterr().err


def test_readme_flags_table_matches_parsers():
    # each subcommand's row names exactly the flags its parser takes, beyond
    # the four that every subcommand shares
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", readme, re.M))
    common = {"--out", "--format", "--config", "--emit-config", "--help"}
    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert set(rows) == set(subparsers)
    for name, sp in subparsers.items():
        flags = {f for a in sp._actions for f in a.option_strings
                 if f.startswith("--")}
        assert set(re.findall(r"--[a-z][a-z-]*", rows[name])) == flags - common, name
