"""Harness and CLI tests: file outputs, determinism, config handling, exit codes."""

import csv
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sscavi import cli, engines, harness
from sscavi.harness import ConfigError, StudyConfig
from sscavi.model import Hyperparams


def _cfg(out_dir, **kw):
    defaults = dict(
        out_dir=str(out_dir),
        n=(60,),
        p=(8,),
        s=(4,),
        replications=2,
        hyper=Hyperparams(pi=0.5, tau=1.0, sigma2=1.0),
        run=engines.RunConfig(max_iter=500),
        master_seed=0,
    )
    defaults.update(kw)
    return StudyConfig(**defaults)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_run_example_outputs(tmp_path):
    cfg = _cfg(tmp_path / "ex", n=(200,), p=(50,), s=(25,))
    trace = harness.cmd_run_example(cfg)
    assert trace.status == "converged"
    for name in ("trace.csv", "means.csv", "elbo.svg", "means.svg"):
        assert (tmp_path / "ex" / name).exists()
    lines = _read(tmp_path / "ex" / "trace.csv").decode().splitlines()
    assert lines[0] == "iter,elbo,step_sup_norm,status"
    assert lines[1].startswith("0,") and lines[1].endswith("running")
    assert lines[-1].endswith("converged")
    means = _read(tmp_path / "ex" / "means.csv").decode().splitlines()
    assert means[0] == "j,beta_true,mu,alpha"
    assert len(means) == 51
    elbo_col = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.all(np.diff(elbo_col) >= -1e-9)


def test_run_example_parallel_divergence_recorded(tmp_path):
    cfg = _cfg(
        tmp_path / "par", n=(200,), p=(50,), s=(25,),
        scheme=engines.Scheme("parallel"),
    )
    trace = harness.cmd_run_example(cfg)
    assert trace.status == "diverged"
    lines = _read(tmp_path / "par" / "trace.csv").decode().splitlines()
    assert lines[-1].endswith("diverged")


def test_run_example_svgs_are_well_formed(tmp_path):
    import xml.etree.ElementTree as ET

    cfg = _cfg(tmp_path / "svg", n=(100,), p=(20,), s=(10,))
    harness.cmd_run_example(cfg)
    for name in ("elbo.svg", "means.svg"):
        root = ET.parse(tmp_path / "svg" / name).getroot()
        assert root.tag.endswith("svg")


def test_run_example_rerun_byte_identical(tmp_path):
    cfg_a = _cfg(tmp_path / "a", n=(100,), p=(20,), s=(10,), master_seed=3)
    cfg_b = _cfg(tmp_path / "b", n=(100,), p=(20,), s=(10,), master_seed=3)
    harness.cmd_run_example(cfg_a)
    harness.cmd_run_example(cfg_b)
    for name in ("trace.csv", "means.csv", "elbo.svg", "means.svg"):
        assert _read(tmp_path / "a" / name) == _read(tmp_path / "b" / name)


def test_spectral_study_row_count_and_columns(tmp_path):
    cfg = _cfg(tmp_path / "ss", panel="right", s=(5, 25), replications=2,
               explicit_grids=frozenset({"s"}))
    rows = harness.cmd_spectral_study(cfg)
    assert len(rows) == 4  # 2 grid points x 2 replicates
    lines = _read(tmp_path / "ss" / "rho.csv").decode().splitlines()
    assert lines[0] == (
        "panel,n,p,s,replicate,seed,rho_seq,log_rho_seq,rho_par,log_rho_par,"
        "seq_converged,assumption1_satisfied"
    )
    assert len(lines) == 5
    assert (tmp_path / "ss" / "rho_boxplot.svg").exists()


def test_spectral_study_common_design_across_sparsity(tmp_path):
    cfg = _cfg(tmp_path / "cd", panel="right", s=(5, 45), replications=1,
               explicit_grids=frozenset({"s"}))
    rows = harness.cmd_spectral_study(cfg)
    # same replicate index, different s: identical seed hence identical design
    assert rows[0][5] == rows[1][5]


def test_spectral_study_rejects_grids_with_both_panels(tmp_path):
    cfg = _cfg(tmp_path / "bad", panel="both", explicit_grids=frozenset({"p"}))
    with pytest.raises(ConfigError):
        harness.cmd_spectral_study(cfg)


def test_wigner_check_outputs(tmp_path):
    cfg = _cfg(tmp_path / "w", n=(200,), p=(40,), replications=3)
    rows = harness.cmd_wigner_check(cfg)
    assert len(rows) == 3
    lines = _read(tmp_path / "w" / "wigner.csv").decode().splitlines()
    assert lines[0] == "n,p,tau,seed,norm,ratio"
    assert (tmp_path / "w" / "wigner_summary.csv").exists()
    with pytest.raises(ConfigError):
        harness.cmd_wigner_check(_cfg(tmp_path / "w2", n=(10,), p=(40,)))


def test_gen_data_round_trip(tmp_path):
    cfg = _cfg(tmp_path / "g", n=(12,), p=(3,), s=(2,), master_seed=42)
    paths = harness.cmd_gen_data(cfg)
    X = np.loadtxt(paths[0], delimiter=",")
    y = np.loadtxt(paths[1])
    beta = np.loadtxt(paths[2])
    assert X.shape == (12, 3)
    assert y.shape == (12,)
    np.testing.assert_array_equal(beta, [1.0, 1.0, 0.0])
    from sscavi.synth import GenSpec, gen_design

    np.testing.assert_allclose(X, gen_design(GenSpec(n=12, p=3, s=2, seed=42)), rtol=1e-15)


def test_write_csv_formats(tmp_path):
    path = tmp_path / "t.csv"
    harness.write_csv(path, ["a", "b", "c", "d"], [(1, 0.1, True, "x"), (2, float("nan"), False, "y")])
    lines = _read(path).decode().splitlines()
    assert lines[0] == "a,b,c,d"
    assert lines[1] == "1,0.10000000000000001,true,x"
    assert lines[2] == "2,nan,false,y"


def test_parse_config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("n = 30\nmax-iter= 200\n# comment\n\ntol = 1e-6\n")
    values = harness.parse_config_file(str(path))
    assert values == {"n": "30", "max_iter": "200", "tol": "1e-6"}
    bad = tmp_path / "bad.txt"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError):
        harness.parse_config_file(str(bad))


def _cli_subprocess(argv, **env):
    """Run the CLI in a fresh interpreter, so its stderr is exactly what a user
    sees; ``env`` adds to or replaces the caller's environment variables."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "sscavi.cli", *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path, **env), timeout=120,
    )


def test_cli_run_example_and_exit_codes(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "cli")
    assert cli.main(["run-example", "--out", out, "--n", "100", "--p", "20",
                     "--s", "10", "--seed", "1"]) == 0
    assert os.path.exists(os.path.join(out, "trace.csv"))
    assert cli.main(["run-example", "--out", out, "--pi", "2.0"]) == 2
    assert cli.main(["gen-data", "--out", out, "--n", "oops"]) == 2
    capsys.readouterr()

    def no_replicate(*args, **kwargs):
        raise AssertionError("a replicate ran before every grid point was checked")

    monkeypatch.setattr(harness, "spectral_replicate", no_replicate)
    # sizes, seeds, amplitudes and hyperparameters the model rejects, or that
    # overflow its precisions, are invalid configuration, not a traceback
    for argv in (
        ["run-example", "--n", "0"],
        ["run-example", "--s", "60"],
        ["run-example", "--seed", "-1"],
        ["spectral-study", "--seed", "-1", "--reps", "1"],
        ["wigner-check", "--seed", "-1"],
        ["gen-data", "--seed", str(2**64)],
        ["run-example", "--amplitude", "nan"],
        ["run-example", "--tau", "1e308", "--sigma2", "1e-308"],
        ["gen-data", "--p", "0"],
        ["wigner-check", "--n", "10", "--p", "1"],
        ["spectral-study", "--panel", "left", "--p", "0", "--reps", "1"],
        ["spectral-study", "--panel", "left", "--p", "50,0", "--reps", "20"],
    ):
        assert cli.main(argv + ["--out", out]) == 2, argv
        assert capsys.readouterr().err.startswith("invalid configuration: "), argv
    # an amplitude that overflows the response is reported without numpy warnings
    proc = _cli_subprocess(["run-example", "--amplitude", "1e308", "--out", out])
    assert proc.returncode == 2
    assert proc.stderr.startswith("invalid configuration: ")
    assert "RuntimeWarning" not in proc.stderr


def test_cli_spectral_study_singular_core(tmp_path, capsys):
    # p > n with a vanishing ridge makes the scaled core numerically singular;
    # the contraction check reports that instead of raising, and the study
    # says how many replicates it flagged
    out = str(tmp_path / "sing")
    argv = ["spectral-study", "--panel", "left", "--n", "20", "--p", "40",
            "--tau", "1e-20", "--reps", "3", "--out", out]
    assert cli.main(argv) == 0
    lines = _read(os.path.join(out, "rho.csv")).decode().splitlines()
    assert lines[0] == ("panel,n,p,s,replicate,seed,rho_seq,log_rho_seq,rho_par,"
                        "log_rho_par,seq_converged,assumption1_satisfied")
    assert len(lines) == 4
    assert all(line.endswith(",false") for line in lines[1:])
    n_converged = sum(line.endswith(",true,false") for line in lines[1:])
    assert n_converged >= 1
    stdout = capsys.readouterr().out
    assert f"note: {n_converged} replicate(s) flagged core_not_positive_definite" in stdout
    # a well-posed study prints no such note
    assert cli.main(["spectral-study", "--panel", "left", "--p", "10", "--reps", "2",
                     "--out", out]) == 0
    assert "core_not_positive_definite" not in capsys.readouterr().out


def test_cli_numerical_failure_exit(tmp_path, capsys, monkeypatch):
    # a curvature that overflows, and an eigensolver that does not converge,
    # end the study with exit 1 and no rho.csv; the overflow is reported, not
    # also warned about
    out = str(tmp_path / "fail")
    overflow = ["spectral-study", "--panel", "left", "--n", "1", "--p", "1", "--max-iter", "1",
                "--tau", "1e308", "--amplitude", "1e308", "--reps", "1", "--out", out]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(overflow) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not os.path.exists(os.path.join(out, "rho.csv"))

    def raising_eigvals(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", raising_eigvals)
    argv = ["spectral-study", "--panel", "left", "--p", "10", "--reps", "1", "--out", out]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not os.path.exists(os.path.join(out, "rho.csv"))


_SIZES = st.lists(st.integers(min_value=-1, max_value=12), min_size=1, max_size=2).map(
    lambda sizes: ",".join(map(str, sizes))
)
_REALS = st.sampled_from(["1.0", "0.5", "3", "0", "-1", "abc", "", "nan", "inf", "-inf", "1e308"])
# the CSV whose columns hold every grid value a study command was given
_GRID_CSV = {"spectral-study": "rho.csv", "wigner-check": "wigner_summary.csv"}


def _argv(flags):
    return [f"--{key.replace('_', '-')}={value}" for key, value in flags.items()]


@given(
    command=st.sampled_from(["run-example", "spectral-study", "gen-data", "wigner-check"]),
    n=_SIZES,
    p=_SIZES,
    s=st.one_of(st.none(), _SIZES),
    max_iter=st.integers(min_value=-1, max_value=20).map(str),
    tau=_REALS,
    amplitude=_REALS,
    scheme=st.sampled_from(["seq", "par"]),
    panel=st.sampled_from(["left", "right", "both"]),
)
# random draws rarely make every value valid, so each study's exit 0 is also pinned
@example(command="spectral-study", n="12", p="6", s="2,4", max_iter="20", tau="1.0",
         amplitude="1.0", scheme="seq", panel="right")
@example(command="spectral-study", n="12", p="3,5", s=None, max_iter="20", tau="1.0",
         amplitude="1.0", scheme="seq", panel="left")
@example(command="wigner-check", n="12,10", p="2,10", s=None, max_iter="20", tau="1.0",
         amplitude="1.0", scheme="seq", panel="both")
@settings(max_examples=40, deadline=None)
def test_cli_boundary_exit_codes(command, n, p, s, max_iter, tau, amplitude, scheme, panel):
    # every small argument combination ends in a documented exit status; a
    # study that succeeds uses every grid value it was given, and invalid
    # configuration writes no CSV. Each command is given only the flags it
    # reads, and some draws pass no --s
    drawn = dict(n=n, p=p, s=s, reps="1", max_iter=max_iter, tau=tau, amplitude=amplitude,
                 scheme=scheme, panel=panel)
    flags = {key: value for key, value in drawn.items()
             if value is not None and key in cli._COMMANDS[command]}
    grids = {key: flags[key] for key in ("n", "p", "s") if key in flags}
    argv = [command, *_argv(flags)]
    with tempfile.TemporaryDirectory() as out:
        code = cli.main(argv + [f"--out={out}"])
        assert code in (0, 1, 2), argv
        if code == 0 and command in _GRID_CSV:
            with open(os.path.join(out, _GRID_CSV[command])) as fh:
                rows = list(csv.DictReader(fh))
            for key, value in grids.items():
                assert set(value.split(",")) <= {row[key] for row in rows}, (argv, key)
        if code == 2:
            assert not any(name.endswith(".csv") for name in os.listdir(out)), argv


def test_cli_config_file_with_override(tmp_path):
    cfg_file = tmp_path / "study.cfg"
    cfg_file.write_text("n = 40\np = 6\ns = 3\nseed = 5\n")
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert cli.main(["gen-data", "--config", str(cfg_file), "--out", out_a]) == 0
    X = np.loadtxt(os.path.join(out_a, "X.csv"), delimiter=",")
    assert X.shape == (40, 6)
    # CLI flag overrides the file
    assert cli.main(["gen-data", "--config", str(cfg_file), "--out", out_b, "--n", "8"]) == 0
    assert np.loadtxt(os.path.join(out_b, "X.csv"), delimiter=",").shape == (8, 6)


def test_cli_rejects_unknown_config_key(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("bogus = 1\n")
    assert cli.main(["gen-data", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("line", ["scheme = sequential", "init = custom", "panel = top"])
def test_cli_config_file_held_to_flag_choices(tmp_path, capsys, line):
    # a config-file value outside a flag's choices is invalid configuration,
    # not a silent fallback to another scheme
    key = line.split(" = ")[0]
    command = next(command for command, keys in cli._COMMANDS.items() if key in keys)
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(line + "\n")
    out = tmp_path / "ex"
    assert cli.main([command, "--config", str(cfg_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"invalid configuration: {key} must be one of")
    assert not out.exists()


@pytest.fixture
def captured(monkeypatch):
    """Stub the study commands; each records the StudyConfig the CLI hands it."""
    seen = {}

    def stub(name, result=None):
        def fake(cfg):
            seen[name] = cfg
            return result
        monkeypatch.setattr(harness, name, fake)

    stub("cmd_gen_data", [])
    stub("cmd_spectral_study")
    stub("cmd_run_example", engines.RunTrace("converged", 0, None))
    stub("cmd_verify", 0)
    stub("cmd_wigner_check")
    return seen


def test_cli_defaults_are_study_config_defaults(captured):
    # the CLI states no defaults of its own: given no flags it hands over
    # StudyConfig's defaults, from which the benchmark also builds its default
    # study, and wigner-check only adds its own n, p and replication count
    for command in ("gen-data", "run-example", "spectral-study", "verify"):
        mode = command.replace("-", "_")
        assert cli.main([command]) == 0
        assert captured["cmd_" + mode] == StudyConfig(out_dir="out", mode=mode), command
    assert cli.main(["wigner-check"]) == 0
    assert captured["cmd_wigner_check"] == StudyConfig(
        out_dir="out", mode="wigner_check", n=(1000,), p=(200,), replications=20
    )


# flag -> (a value other than its default, the fields it replaces, a value that
# does not parse, or None for a flag that takes any text)
_ONE_FLAG = {
    "n": ("7,9", dict(n=(7, 9), explicit_grids=frozenset({"n"})), "7,x"),
    "p": ("3", dict(p=(3,), explicit_grids=frozenset({"p"})), "3.5"),
    "s": ("2", dict(s=(2,), explicit_grids=frozenset({"s"})), "two"),
    "pi": ("0.25", dict(hyper=Hyperparams(pi=0.25, tau=1.0, sigma2=1.0)), "half"),
    "tau": ("2.5", dict(hyper=Hyperparams(pi=0.5, tau=2.5, sigma2=1.0)), "1,2"),
    "sigma2": ("0.5", dict(hyper=Hyperparams(pi=0.5, tau=1.0, sigma2=0.5)), ""),
    "amplitude": ("3", dict(amplitude=3.0), "big"),
    "scheme": ("par", dict(scheme=engines.Scheme("parallel")), "sequential"),
    "init": ("zero", dict(run=engines.RunConfig(max_iter=500, init="zero")), "custom"),
    "max_iter": ("7", dict(run=engines.RunConfig(max_iter=7)), "1e3"),
    "tol": ("1e-5", dict(run=engines.RunConfig(max_iter=500, tol=1e-5)), "tiny"),
    "reps": ("3", dict(replications=3), "3.0"),
    "seed": ("11", dict(master_seed=11), "0x1"),
    "out": ("elsewhere", dict(out_dir="elsewhere"), None),
    "panel": ("left", dict(panel="left"), "top"),
}


@pytest.mark.parametrize("key", list(cli._FLAGS))
def test_cli_flag_replaces_its_field(key, captured, tmp_path, capsys):
    # every flag, given on the command line or in a config file to any command
    # that reads it, replaces exactly its own StudyConfig field and leaves every
    # other at that command's default
    value, fields, bad = _ONE_FLAG[key]
    flag = "--" + key.replace("_", "-")
    cfg_file = tmp_path / "one.cfg"
    commands = [command for command, keys in cli._COMMANDS.items() if key in keys]
    assert commands
    for command in commands:
        stub = "cmd_" + command.replace("-", "_")
        assert cli.main([command]) == 0
        default = captured.pop(stub)
        expected = replace(default, **fields)
        assert expected != default, command
        cfg_file.write_text(f"{key} = {value}\n")
        for argv in ([flag, value], ["--config", str(cfg_file)]):
            assert cli.main([command, *argv]) == 0, (command, argv)
            assert captured.pop(stub) == expected, (command, argv)
        if bad is None:
            continue
        capsys.readouterr()
        cfg_file.write_text(f"{key} = {bad}\n")
        assert cli.main([command, "--config", str(cfg_file)]) == 2
        assert capsys.readouterr().err.startswith(f"invalid configuration: {key} ")
        if cli._FLAGS[key][2] is None:
            assert cli.main([command, flag + "=" + bad]) == 2
            assert capsys.readouterr().err.startswith(f"invalid configuration: {key} ")
        else:  # argparse holds a command-line value to the flag's choices
            with pytest.raises(SystemExit) as exc:
                cli.main([command, flag + "=" + bad])
            assert exc.value.code == 2
            assert f"argument {flag}: invalid choice" in capsys.readouterr().err
        assert stub not in captured


@pytest.mark.parametrize("argv", [
    ["--panel", "left", "--n", "100,300", "--p", "10"],
    ["--panel", "right", "--p", "50,60", "--s", "5"],
])
def test_cli_spectral_study_rejects_grid_it_cannot_use(tmp_path, capsys, argv):
    # a panel runs one n (and the right panel one p); a longer list is an
    # error, not a study that silently drops all but its first value
    out = tmp_path / "multi"
    assert cli.main(["spectral-study", *argv, "--reps", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: ")
    assert "must be a single value for spectral_study" in err
    assert not (out / "rho.csv").exists()


def test_cli_left_panel_rejects_s(tmp_path, capsys):
    # the left panel sets s = p, so a given s would be dropped from rho.csv
    out = tmp_path / "left"
    argv = ["spectral-study", "--panel", "left", "--p", "10", "--s", "3", "--reps", "1"]
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: ")
    assert "left panel" in err
    assert not out.exists()


def _exit_code(argv):
    """The CLI's exit status, including the parser's exit on a usage error."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, starts, named", [
    (["--n", "100", "--p", "10,200"], "invalid configuration: ", "n=100, p=200"),
    (["--n", "100", "--p", "10", "--s", "3"], "usage: ", "unrecognized arguments: --s 3"),
], ids=["n=100, p=200", "no s"])
def test_cli_wigner_check_rejects_points_it_would_drop(tmp_path, capsys, argv, starts, named):
    # every (n, p) point is checked and the parser takes no s: nothing is
    # dropped from wigner_summary.csv
    out = tmp_path / "w"
    assert _exit_code(["wigner-check", *argv, "--reps", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(starts)
    assert named in err
    assert not out.exists()


# command -> (the flags of a small run that exits 0, and for every flag the
# command reads a value other than that run's)
_PROBE = {
    "gen-data": (dict(n="12", p="4", s="2"), dict(
        n="13", p="5", s="1", sigma2="0.5", amplitude="2", seed="1", out="elsewhere")),
    "run-example": (dict(n="30", p="6", s="3"), dict(
        n="31", p="7", s="2", pi="0.25", tau="2", sigma2="0.5", amplitude="2", scheme="par",
        init="zero", max_iter="3", tol="1e-3", seed="1", out="elsewhere")),
    "spectral-study": (dict(panel="right", reps="1"), dict(
        n="100", p="45", s="5", pi="0.25", tau="2", sigma2="0.5", amplitude="2", init="zero",
        max_iter="3", tol="1e-3", reps="2", seed="1", out="elsewhere", panel="left")),
    "verify": ({}, dict(seed="1", out="elsewhere")),
    "wigner-check": (dict(n="20", p="5", reps="2"), dict(
        n="21", p="4", tau="2", reps="3", seed="1", out="elsewhere")),
}


def _run_in(directory, monkeypatch, argv):
    """Run the CLI from a new ``directory``: its exit status and every file it wrote there."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    code = _exit_code(argv)
    files = {path.relative_to(directory): path.read_bytes()
             for path in directory.rglob("*") if path.is_file()}
    return code, files


@pytest.mark.parametrize("command, key", [(c, k) for c in cli._COMMANDS for k in cli._FLAGS])
def test_cli_flag_table_is_the_truth(command, key, tmp_path, monkeypatch, capsys):
    keys = cli._COMMANDS[command]
    flag = "--" + key.replace("_", "-")
    # --help lists the flags the command reads and --config, and no other
    assert _exit_code([command, "--help"]) == 0
    listed = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out)) - {"--help"}
    assert listed == {"--config", *("--" + k.replace("_", "-") for k in keys)}
    if key in keys:
        # a flag the command reads changes at least one byte of what it writes
        base, values = _PROBE[command]
        code, before = _run_in(tmp_path / "base", monkeypatch, [command, *_argv(base)])
        assert code == 0 and before
        changed = [command, *_argv({**base, key: values[key]})]
        code, after = _run_in(tmp_path / "changed", monkeypatch, changed)
        assert code == 0 and after != before, changed
        return
    # a flag it does not read is a usage error, and the same key in a config
    # file invalid configuration; neither writes anything
    value = _ONE_FLAG[key][0]
    cfg_file = tmp_path / "one.cfg"
    cfg_file.write_text(f"{key} = {value}\n")
    code, files = _run_in(tmp_path / "flag", monkeypatch, [command, flag, value])
    assert code == 2 and not files
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    code, files = _run_in(tmp_path / "file", monkeypatch, [command, "--config", str(cfg_file)])
    assert code == 2 and not files
    assert capsys.readouterr().err.startswith(
        f"invalid configuration: {command} takes no config key {key!r}"
    )


def test_cli_verify_takes_every_seed(tmp_path, capsys):
    # a master seed outside [0, 2^64) is invalid configuration, and the top
    # one runs every check: the offsets verify adds to it wrap around
    out = tmp_path / "v"
    assert cli.main(["verify", "--seed", "-100", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("invalid configuration: seed must lie in")
    assert not out.exists()
    assert cli.main(["verify", "--seed", str(2**64 - 1), "--out", str(out)]) == 0
    lines = _read(out / "verify.csv").decode().splitlines()
    assert len(lines) == 18
    assert all(line.endswith(",true") for line in lines[1:])


def test_verify_suite_passes_and_writes_csv(tmp_path):
    from sscavi import verify

    results = verify.run_checks(seed=0, mc_samples=20_000)
    assert all(r.passed for r in results)
    # `sscavi verify` check names are part of its output format
    assert [r.name for r in results] == [
        "seq_sweep_coord_vs_matrix",
        "par_sweep_coord_vs_matrix",
        "fd_jacobian_seq",
        "fd_jacobian_par",
        "fd_h_sweep_1e-05",
        "fd_h_sweep_1e-06",
        "fd_h_sweep_1e-07",
        "pinned_seq_vs_direct_solve",
        "pinned_seq_vs_textbook_gs",
        "pinned_par_vs_textbook_jacobi",
        "elbo_mc_loglik",
        "par_radius_similarity",
        "perturbation_contract_seq",
        "perturbation_escape_par",
        "krylov_radii_vs_dense",
        "blocked_seq_sweep_vs_coordinate",
        "krylov_assumption1_vs_dense",
    ]


def test_cmd_verify_exit_codes(tmp_path, monkeypatch):
    from sscavi import verify
    from sscavi.verify import CheckResult

    def fake_pass(seed=0, mc_samples=0, progress=None):
        return [CheckResult("stub", 0.0, 1.0, True)]

    def fake_fail(seed=0, mc_samples=0, progress=None):
        return [CheckResult("stub", 2.0, 1.0, False)]

    monkeypatch.setattr(verify, "run_checks", fake_pass)
    assert harness.cmd_verify(_cfg(tmp_path / "ok")) == 0
    monkeypatch.setattr(verify, "run_checks", fake_fail)
    assert harness.cmd_verify(_cfg(tmp_path / "bad")) == 1
    lines = _read(tmp_path / "bad" / "verify.csv").decode().splitlines()
    assert lines[0] == "name,metric,threshold,pass"
    assert lines[1] == "stub,2,1,false"


def test_cli_wigner_check(tmp_path):
    out = str(tmp_path / "w")
    assert cli.main(["wigner-check", "--out", out, "--n", "100", "--p", "10",
                     "--reps", "2"]) == 0
    assert os.path.exists(os.path.join(out, "wigner.csv"))


def test_cli_spectral_study_deterministic(tmp_path):
    args = ["spectral-study", "--panel", "right", "--s", "5", "--reps", "2",
            "--seed", "7"]
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(args + ["--out", out_a]) == 0
    assert cli.main(args + ["--out", out_b]) == 0
    assert _read(os.path.join(out_a, "rho.csv")) == _read(os.path.join(out_b, "rho.csv"))


def test_cli_bytes_do_not_depend_on_the_callers_blas_threads(tmp_path):
    # p = 110 is above the ARPACK crossover; unpinned, one and two OpenBLAS
    # threads give radii that differ in their last bits here
    argv = ["spectral-study", "--panel", "right", "--n", "220", "--p", "110", "--s", "30",
            "--reps", "2"]
    written = []
    for threads in ("1", "2"):
        out = str(tmp_path / threads)
        proc = _cli_subprocess(argv + ["--out", out], OPENBLAS_NUM_THREADS=threads,
                               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        written.append(_read(os.path.join(out, "rho.csv")))
    assert written[0] == written[1]
