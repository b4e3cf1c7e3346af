"""End-to-end command-line behavior on small configs."""

import json

import pytest

from tailrisk.cli import main


def write_config(tmp_path, **overrides):
    cfg = {
        "model": {"lognormal": {"mu": [0.0, 0.0], "sigma2": [1.0, 1.0],
                                "rho": 0.0}},
        "rho": [0.0],
        "u": [10.0],
        "estimators": ["cmc", "mak"],
        "n": 4000,
        "cmc_n": 8000,
        "seed": 99,
        "threads": 1,
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_run_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "table.csv"
    code = main(["run", "--config", cfg, "--out", str(out), "--format", "csv"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("rho,u,method,estimate")
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "CMC"
    assert lines[2].split(",")[2] == "MAK"


def test_run_deterministic_stable_columns(tmp_path):
    cfg = write_config(tmp_path)
    o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", cfg, "--out", str(o1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(o2)]) == 0
    strip = lambda text: [",".join(l.split(",")[:7]) for l in text.splitlines()]
    assert strip(o1.read_text()) == strip(o2.read_text())


def test_run_stdout_and_md(tmp_path, capsys):
    cfg = write_config(tmp_path, estimators=["cmc"])
    assert main(["run", "--config", cfg, "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| rho | u | method")


@pytest.mark.parametrize("fmt", ["csv", "md"])
def test_run_flags_column(tmp_path, capsys, fmt):
    # rn below u = d * max(lam) carries an unbounded weight: the row says so
    # in the trailing column, and the existing columns keep their positions
    cfg = write_config(tmp_path, u=[0.5], estimators=["mak", "rn"], n=4096)
    assert main(["run", "--config", cfg, "--format", fmt]) == 0
    lines = capsys.readouterr().out.splitlines()
    if fmt == "csv":
        cells = [line.split(",") for line in lines]
    else:
        cells = [[c.strip() for c in line.split("|")[1:-1]]
                 for line in lines[:1] + lines[2:]]
    assert cells[0][:3] == ["rho", "u", "method"] and cells[0][-1] == "flags"
    assert cells[1][2] == "MAK" and cells[1][-1] == ""
    assert cells[2][2].startswith("RN")
    assert "rn-unbounded-weight" in cells[2][-1].split(";")


def test_flag_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, estimators=["cmc"])
    assert main(["run", "--config", cfg, "--n", "3000", "--u", "5.0,20.0",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    assert {line.split(",")[1] for line in out[1:]} == {"5", "20"}


def test_unknown_estimator_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, estimators=["isve"])
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "cmc, ak, mak, zr, rn" in err


def test_non_positive_definite_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path,
                       model={"lognormal": {"mu": [0.0] * 3,
                                            "sigma2": [1.0] * 3,
                                            "rho": -0.9}})
    assert main(["run", "--config", cfg]) == 1
    assert "eigenvalue" in capsys.readouterr().err


def test_bad_thread_count_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--threads", "two"]) == 1
    assert "threads" in capsys.readouterr().err
    assert main(["run", "--config", cfg, "--threads", "0"]) == 1


def test_missing_config_exits_one(capsys):
    assert main(["run", "--config", "/does/not/exist.json"]) == 1
    assert "not found" in capsys.readouterr().err


def test_check_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["check", "--config", cfg, "--u", "60,120"]) == 0
    out = capsys.readouterr().out
    assert "holds on grid" in out
    assert "True" in out


def test_asymptotic_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["asymptotic", "--config", cfg, "--u", "10"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["u", "full_sum", "reduced_sum"]
    full = float(out[1].split()[1])
    assert 0.0 < full < 1.0


def test_trend_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["trend", "--config", cfg, "--u", "8,16,32", "--n", "4000",
                 "--estimator", "mak"]) == 0
    out = capsys.readouterr().out
    assert "strictly decreasing:" in out


def test_raw_model_block(tmp_path, capsys):
    cfg = write_config(tmp_path, model={
        "raw": {"lambda": [1.0, 1.0], "beta": [1.0, 1.0], "gamma": 1.0,
                "sigma": [[1.0, 0.3], [0.3, 1.0]],
                "radial": {"kind": "chi", "dof": 2}}},
        estimators=["zr"], rho=[0.3])
    assert main(["run", "--config", cfg, "--format", "txt"]) == 0
    out = capsys.readouterr().out
    assert "ZR" in out


def test_chi_dof_other_than_dimension_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, model={
        "raw": {"lambda": [1.0, 1.0], "beta": [1.0, 1.0],
                "sigma": [[1.0, 0.5], [0.5, 1.0]],
                "radial": {"kind": "chi", "dof": 5}}},
        u=[30.0], estimators=["cmc", "zr"], rho=[0.5])
    assert main(["run", "--config", cfg]) == 1
    assert "dimension 5" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, message", [
    ({"model": {"lognormal": {"sigma2": [1.0, 1.0]}}}, '"mu"'),
    ({"model": {"raw": {"lambda": [1.0, 1.0], "beta": [1.0, 1.0],
                        "sigma": [[1.0, 0.0], [0.0, 1.0]],
                        "radial": {"kind": "exp-power"}}}}, "'p'"),
    ({"n": "many"}, '"n"'),
    ({"estimators": [{"name": "rn", "a": "x"}]}, "'x'"),
    ({"estimators": ["rn(b=3)"]}, "b"),
    ({"estimators": [{"name": "zr", "a": 3}]}, "'zr'"),
])
def test_config_errors_exit_one(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


_RAW_TWO_RISKS = {"lambda": [1.0, 1.0], "beta": [1.0, 1.0],
                  "sigma": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("overrides, entry", [
    ({"rho": ["x"]}, '"rho"'),
    ({"model": {"lognormal": 5}}, '"lognormal"'),
    ({"model": {"raw": 5}}, '"raw"'),
    ({"model": {"raw": {**_RAW_TWO_RISKS, "radial": 5}}}, '"radial"'),
    ({"output": "csv"}, '"output"'),
    ({"estimators": 5}, '"estimators"'),
    ({"output": {"path": 5}}, '"path"'),
])
def test_config_entries_of_the_wrong_shape_exit_one(tmp_path, capsys, overrides,
                                                     entry):
    # each once ended in a traceback instead of an error line
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and entry in err


def test_bundled_table_config_parses():
    # the shipped desk-scale configs drive the full benchmark grid
    assert main(["asymptotic", "--config", "configs/table1.json",
                 "--u", "20000"]) == 0


def test_check_and_asymptotic_take_no_replication_flags(tmp_path):
    cfg = write_config(tmp_path)
    for cmd in ("check", "asymptotic"):
        for flag in ("--seed", "--n", "--threads"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--config", cfg, "--u", "60", flag, "1"])
            assert exc.value.code == 2
