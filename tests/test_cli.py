import concurrent.futures
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cdsl_lab import cli, diffcore, objective, protocol, synthdata
from cdsl_lab.cli import MetricsReport, RunConfig


REPO = Path(__file__).parents[1]

TINY = ("sequence = rot5\n"
        "epochs = 1\n"
        "steps_per_epoch = 2\n"
        "batch_size = 16\n"
        "replay_n = 4\n"
        "hidden = 16\n"
        "bottleneck = 12,8\n"
        "memory_capacity = 40\n")


def write_cfg(tmp_path, text=TINY, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------ config parse

def test_parse_config_file_types(tmp_path):
    path = write_cfg(tmp_path, "# comment\n\nseed = 7\nr_con = 0.5\n"
                               "stationary = true\norder = 1,0\n"
                               "labeler_method = softmax\n")
    parsed = cli.parse_config_file(path)
    assert parsed == {"seed": 7, "r_con": 0.5, "stationary": True,
                      "order": (1, 0), "labeler_method": "softmax"}


def test_parse_config_reports_line_numbers(tmp_path):
    path = write_cfg(tmp_path, "seed = 1\nbogus_key = 3\n")
    with pytest.raises(cli.UsageError, match="line 2.*bogus_key"):
        cli.parse_config_file(path)
    path = write_cfg(tmp_path, "seed = 1\nepochs : 3\n")
    with pytest.raises(cli.UsageError, match="line 2.*key=value"):
        cli.parse_config_file(path)
    path = write_cfg(tmp_path, "epochs = much\n")
    with pytest.raises(cli.UsageError, match="line 1.*epochs"):
        cli.parse_config_file(path)


def render(value) -> str:
    """A RunConfig value in its config-file text form."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


BAD_TEXT = {int: "2.5", float: "fast", bool: "yes", tuple: "1,x"}


@pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
def test_every_field_parses_its_default_from_text(field):
    default = getattr(RunConfig(), field.name)
    parsed = cli.parse_value(field.name, render(default))
    assert parsed == default and type(parsed) is type(default)
    assert RunConfig(**{field.name: parsed}) == RunConfig()


@pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
def test_every_field_rejects_a_bad_value_by_name(field):
    kind = cli.FIELD_KINDS[field.name]
    if kind is str:  # any text is a str; RunConfig checks the value itself
        assert cli.parse_value(field.name, "any text") == "any text"
        return
    with pytest.raises(cli.UsageError, match=f"field {field.name}:"):
        cli.parse_value(field.name, BAD_TEXT[kind])


@pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.cfg")),
                         ids=lambda p: p.stem)
def test_preset_config_files_restate_the_defaults(path):
    args = cli.build_parser().parse_args(["run", "--config", str(path), "--out", "x"])
    assert cli.build_config(args) == RunConfig(sequence=path.stem)


def test_missing_config_file_is_usage_error(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 2


def test_config_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"epochs = 1 # \xff\n")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"config {path}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("env_seed", ["31", "abc"])
def test_seed_comes_from_the_file_and_set_alone(env_seed, tmp_path, monkeypatch):
    # no environment variable enters a config, a malformed one included
    monkeypatch.setenv("CDSL_LAB_SEED", env_seed)
    args = cli.build_parser().parse_args(["run", "--out", "x"])
    assert cli.build_config(args) == RunConfig()
    path = write_cfg(tmp_path, "seed = 5\n")
    args = cli.build_parser().parse_args(
        ["run", "--config", path, "--set", "seed=9", "--out", "x"])
    assert cli.build_config(args).seed == 9


def test_set_overrides_last_wins(tmp_path):
    args = cli.build_parser().parse_args(
        ["run", "--out", "x", "--set", "epochs=3", "--set", "epochs=5"])
    assert cli.build_config(args).epochs == 5


def test_unknown_sequence_is_usage_error(tmp_path):
    assert cli.main(["run", "--out", str(tmp_path / "o"),
                     "--set", "sequence=missing"]) == 2


@pytest.mark.parametrize("setting", ["hidden=none", "hidden=0", "bottleneck=1,2,3",
                                     "memory_capacity=0", "memory_capacity=3",
                                     "source_fraction=0.004", "learning_rate=nan",
                                     "weight_decay=nan", "r_top=nan", "r_top_prime=inf",
                                     "r_top_prime=101", "labeler_method=bogus",
                                     "seed=-1", "momentum=1", "weight_decay=-1",
                                     "n_aug=0", "r_top_prime=1"])
def test_bad_config_exits_two_before_training(setting, tmp_path, capsys, monkeypatch):
    def first_step(*_, **__):
        raise AssertionError("training started")

    monkeypatch.setattr(objective, "build_context", first_step)
    assert cli.main(["run", "--out", str(tmp_path / "o"), "--set", setting]) == 2
    assert setting.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["run"],
                                     ["sweep", "--param", "r_con", "--values", "0.5"],
                                     ["ablate", "--variant", "no_pca"]],
                         ids=["run", "sweep", "ablate"])
def test_unusable_out_exits_two_before_training(command, tmp_path, capsys, monkeypatch):
    def first_step(*_, **__):
        raise AssertionError("training started")

    monkeypatch.setattr(objective, "build_context", first_step)
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    argv = command + ["--config", write_cfg(tmp_path), "--out", str(taken)]
    assert cli.main(argv) == 2
    assert "--out" in capsys.readouterr().err


# ------------------------------------------------------------ run command

def test_run_writes_layout_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "results"
    argv = ["run", "--config", write_cfg(tmp_path), "--out", str(out)]
    assert cli.main(argv) == 0
    for name in ("matrix.csv", "metrics.json", "train_log.csv",
                 "config.resolved.json", "run.meta"):
        assert (out / name).is_file(), name
    lines = (out / "matrix.csv").read_text().strip().splitlines()
    assert len(lines) == 6  # header plus five stage rows
    cfg = cli.build_config(cli.build_parser().parse_args(argv))
    assert cfg.batch_size == 16
    echoed = json.loads((out / "config.resolved.json").read_text())
    assert echoed == json.loads(json.dumps(cfg.to_dict()))
    assert "tdg_avg=" in capsys.readouterr().out


def test_run_reruns_byte_identical_except_meta(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(b)]) == 0
    for name in ("matrix.csv", "metrics.json", "train_log.csv",
                 "config.resolved.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_meta_records_the_argv_main_was_given(tmp_path):
    out = tmp_path / "o"
    argv = ["run", "--config", write_cfg(tmp_path), "--set", "epochs=0", "--out", str(out)]
    assert cli.main(argv) == 0
    assert json.loads((out / "run.meta").read_text())["argv"] == argv


def test_run_replays_from_the_argv_in_run_meta(tmp_path, monkeypatch):
    # the environment of the first run is gone when its command is replayed
    first, again = tmp_path / "first", tmp_path / "again"
    monkeypatch.setenv("CDSL_LAB_SEED", "31")
    assert cli.main(["run", "--config", write_cfg(tmp_path), "--out", str(first)]) == 0
    monkeypatch.delenv("CDSL_LAB_SEED")
    argv = json.loads((first / "run.meta").read_text())["argv"]
    assert cli.main([str(again) if a == str(first) else a for a in argv]) == 0
    for name in ("config.resolved.json", "matrix.csv"):
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


NO_SCIPY_RUN = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import cdsl_lab
for module in pkgutil.iter_modules(cdsl_lab.__path__):
    importlib.import_module("cdsl_lab." + module.name)
from cdsl_lab import cli
sys.exit(cli.main(["run", "--config", "configs/bitmap5.cfg", "--set", "epochs=1",
                   "--out", sys.argv[1]]))
"""


def fresh_python(*args: str, **extra_env: str) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter, from the repo root, with `src`
    on the import path and extra_env added to its environment."""
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=REPO,
                          env=env, capture_output=True, text=True, timeout=300)


def run_script(script: str, out: Path) -> subprocess.CompletedProcess:
    """A Python script in a fresh interpreter with `out` as its one argument."""
    return fresh_python("-c", script, str(out))


def test_module_entry_point_exits_two_on_a_usage_error(tmp_path):
    out = tmp_path / "o"
    proc = fresh_python("-m", "cdsl_lab.cli", "run", "--set", "nope=1", "--out", str(out))
    assert proc.returncode == 2
    assert "unknown key" in proc.stderr
    assert not out.exists()


def test_package_imports_and_runs_without_scipy(tmp_path):
    out = tmp_path / "results"
    proc = run_script(NO_SCIPY_RUN, out)
    assert proc.returncode == 0, proc.stderr
    assert (out / "matrix.csv").is_file()


# pytest's own imports may load these modules, so the run gets a fresh interpreter
NO_NUMPY_MA_RUN = """
import sys
from cdsl_lab import cli
status = cli.main(["run", "--config", "configs/rot5.cfg", "--set", "epochs=1",
                   "--out", sys.argv[1]])
for module in ("numpy.ma", "concurrent.futures"):
    if module in sys.modules:
        sys.exit(f"{module} was imported")
sys.exit(status)
"""


def test_a_run_does_not_import_numpy_ma(tmp_path):
    # numpy loads numpy.ma (about 1 MB) on first use, as np.unique does; a
    # single run starts no process pool, so concurrent.futures stays out too
    out = tmp_path / "results"
    proc = run_script(NO_NUMPY_MA_RUN, out)
    assert proc.returncode == 0, proc.stderr
    assert (out / "matrix.csv").is_file()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_run_fails_loudly_on_non_finite_loss(tmp_path, capsys):
    # at this learning rate the parameters overflow in the first steps of stage 0
    out = tmp_path / "blowup"
    assert cli.main(["run", "--set", "learning_rate=1e100", "--set", "epochs=3",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "non-finite loss at stage 0 epoch 0 step 2" in err
    assert not (out / "matrix.csv").exists()


def test_run_names_the_stage_when_pseudo_labels_fail(tmp_path, capsys):
    # at this learning rate the model collapses and a class gets no weight in
    # t2pl's centroid pool at the first epoch of a target stage
    out = tmp_path / "collapsed"
    assert cli.main(["run", "--set", "learning_rate=0.1", "--set", "epochs=2",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: pseudo labels at stage 2 epoch 1: labeler: class" in err
    assert not (out / "matrix.csv").exists()


@pytest.mark.parametrize("name", ["rot5", "moons4", "bitmap5"])
def test_source_stage_losses_stay_finite_at_a_large_learning_rate(name):
    # warnings are errors here, so an overflowing exponential fails the test
    domain0 = synthdata.DomainSequence(name, synthdata.standard_sequences()[name].specs[:1])
    result = protocol.run_cdsl(RunConfig(sequence=name, learning_rate=0.1, epochs=6), domain0)
    losses = [[row[k] for k in objective.LOSS_COLUMNS] for row in result.logs["train_log"]]
    assert len(losses) == 6 * 25
    assert np.isfinite(losses).all()


def test_run_fails_loudly_on_non_finite_parameters(tmp_path, capsys, monkeypatch):
    # poison every parameter in the run's last step, which no loss check sees
    sgd_step, steps = diffcore.sgd_step, []

    def poisoned(param, velocity, **hyper):
        sgd_step(param, velocity, **hyper)
        steps.append(None)
        if len(steps) == 4 * 3:  # moons4 has 4 stages
            param.values[...] = np.inf  # the packed buffer every parameter views

    monkeypatch.setattr(diffcore, "sgd_step", poisoned)
    out = tmp_path / "poisoned"
    assert cli.main(["run", "--set", "sequence=moons4", "--set", "epochs=1",
                     "--set", "steps_per_epoch=3", "--out", str(out)]) == 1
    assert "non-finite parameter ext.0.weight after stage 3" in capsys.readouterr().err
    assert not (out / "matrix.csv").exists()


def test_run_zero_epochs_rows_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", cfg, "--out", str(out),
                     "--set", "epochs=0"]) == 0
    lines = (out / "matrix.csv").read_text().strip().splitlines()[1:]
    assert len(set(lines)) == 1  # every stage row equals the untrained row


def test_run_stationary_flag_runs_engine_in_flat_mode(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "flat"
    assert cli.main(["run", "--config", cfg, "--out", str(out),
                     "--set", "stationary=true"]) == 0
    log = (out / "train_log.csv").read_text().strip().splitlines()[1:]
    dis = [float(line.split(",")[5]) for line in log]
    assert all(v == 0.0 for v in dis)


# ------------------------------------------------------------ sweep / ablate

def test_sweep_layout_summary_and_recomputation(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out),
                     "--param", "r_con", "--values", "0.5,0.9"]) == 0
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == "value,tdg_mean,tda_mean,fa_mean"
    assert len(summary) == 3  # one row per value
    for value_label, line in zip(("0.5", "0.9"), summary[1:]):
        cells = line.split(",")
        assert cells[0] == value_label
        recomputed = []
        for seed in cli.SWEEP_SEEDS:
            sub = out / f"r_con={value_label}" / f"seed{seed}"
            recomputed.append(json.loads((sub / "metrics.json").read_text()))
        for i, key in enumerate(("tdg_avg", "tda_avg", "fa_avg")):
            mean = sum(r[key] for r in recomputed) / len(recomputed)
            assert float(cells[1 + i]) == pytest.approx(mean, abs=5e-7)


def test_sweep_rejects_bad_param_and_values(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                  "--param", "epochs", "--values", "1,2"])
    assert exc.value.code == 2
    assert "r_top_prime" in capsys.readouterr().err  # the valid values are listed
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                     "--param", "r_con", "--values", "0.5,high"]) == 2
    err = capsys.readouterr().err
    assert "--values" in err and "r_con" in err
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                     "--param", "r_con", "--values", " , "]) == 2
    assert "--values: empty list" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("param,value", [("r_top", "0.5"), ("r_top_prime", "1"),
                                         ("r_top_prime", "101")])
def test_sweep_rejects_invalid_swept_value_before_any_run(param, value, tmp_path,
                                                          capsys, monkeypatch):
    def any_run(*_, **__):
        raise AssertionError("a run started")

    monkeypatch.setattr(protocol, "run_cdsl", any_run)
    out = tmp_path / "s"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path), "--out", str(out),
                     "--param", param, "--values", f"2,{value}"]) == 2
    assert param in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"],
                                     ["sweep", "--param", "r_con", "--values", "0.5"],
                                     ["ablate", "--variant", "no_pca"]],
                         ids=["run", "sweep", "ablate"])
def test_seed_flag_is_rejected_by_every_command(command, tmp_path, capsys, monkeypatch):
    def any_run(*_, **__):
        raise AssertionError("a run started")

    monkeypatch.setattr(protocol, "run_cdsl", any_run)
    out = tmp_path / "s"
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--config", write_cfg(tmp_path), "--seed", "7",
                            "--out", str(out)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("param,values", [("r_con", "0.5,0.5000001"), ("r_top", "2,2.0")])
def test_sweep_rejects_values_that_share_a_directory(param, values, tmp_path, capsys,
                                                     monkeypatch):
    def any_run(*_, **__):
        raise AssertionError("a run started")

    monkeypatch.setattr(protocol, "run_cdsl", any_run)
    out = tmp_path / "s"
    assert cli.main(["sweep", "--config", write_cfg(tmp_path), "--out", str(out),
                     "--param", param, "--values", values]) == 2
    first, second = values.split(",")
    assert f"{first} and {second} would share" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", [["sweep", "--param", "r_con", "--values", "0.5"],
                                     ["ablate", "--variant", "no_pca"]],
                         ids=["sweep", "ablate"])
def test_jobs_below_one_exits_two_before_any_run(command, jobs, tmp_path, capsys,
                                                 monkeypatch):
    def any_run(*_, **__):
        raise AssertionError("a run started")

    monkeypatch.setattr(protocol, "run_cdsl", any_run)
    out = tmp_path / "s"
    assert cli.main([*command, "--config", write_cfg(tmp_path), "--out", str(out),
                     "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_workers_are_capped_at_the_number_of_runs(tmp_path, monkeypatch):
    started = []

    class SerialPool:  # records the pool size, starts no process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    for jobs in ("64", "2"):
        assert cli.main(["sweep", "--config", write_cfg(tmp_path),
                         "--out", str(tmp_path / f"jobs{jobs}"), "--param", "r_con",
                         "--values", "0.5", "--jobs", jobs]) == 0
    assert started == [len(cli.SWEEP_SEEDS), 2]


@pytest.mark.parametrize("command,table", [
    (["sweep", "--param", "r_top", "--values", "2,4"], "summary.csv"),
    (["ablate", "--variant", "labeler=softmax"], "ablation.csv"),
], ids=["sweep", "ablate"])
def test_panel_parallel_equals_serial(command, table, tmp_path):
    cfg = write_cfg(tmp_path)
    a, b = tmp_path / "serial", tmp_path / "par"
    assert cli.main([*command, "--config", cfg, "--out", str(a)]) == 0
    assert cli.main([*command, "--config", cfg, "--out", str(b), "--jobs", "3"]) == 0
    assert (a / table).read_bytes() == (b / table).read_bytes()


def test_ablate_pairs_and_delta_table(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "abl"
    assert cli.main(["ablate", "--config", cfg, "--out", str(out),
                     "--variant", "no_randmix"]) == 0
    table = (out / "ablation.csv").read_text().strip().splitlines()
    assert table[0].startswith("seed,full_tdg,ablated_tdg,delta_tdg")
    assert len(table) == 1 + 3 + 1  # header, three seeds, mean row
    for row, seed in zip(table[1:], cli.SWEEP_SEEDS):
        cells = row.split(",")
        full = json.loads((out / "full" / f"seed{seed}" / "metrics.json").read_text())
        abl = json.loads(
            (out / "no_randmix" / f"seed{seed}" / "metrics.json").read_text())
        assert float(cells[1]) == pytest.approx(full["tdg_avg"], abs=5e-7)
        assert float(cells[2]) == pytest.approx(abl["tdg_avg"], abs=5e-7)
        assert float(cells[3]) == pytest.approx(
            full["tdg_avg"] - abl["tdg_avg"], abs=1e-6)
    assert "delta = full - ablated" in capsys.readouterr().out


def test_ablate_rejects_unknown_variant(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["ablate", "--config", cfg, "--out", str(tmp_path / "x"),
                  "--variant", "no_memory"])
    assert exc.value.code == 2
    assert "labeler=shot_style" in capsys.readouterr().err  # the valid values are listed


# ------------------------------------------------------------ report

def metrics_from_csv(text: str) -> MetricsReport:
    """Oracle for `report --format csv`: parse the table back into a report."""
    lines = [line for line in text.strip().splitlines() if line]
    body = {}
    for line in lines[1:]:
        name, *cells = line.split(",")
        body[name] = [None if c == "" else float(c) for c in cells]
    return MetricsReport(tdg=body["tdg"][:-1], tda=body["tda"][:-1],
                         fa=body["fa"][:-1], tdg_avg=body["tdg"][-1],
                         tda_avg=body["tda"][-1], fa_avg=body["fa"][-1])


@pytest.fixture(scope="module")
def results_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("res")
    cfg = write_cfg(tmp)
    out = tmp / "run"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    return out


def test_report_text_column_count(results_dir, capsys):
    assert cli.main(["report", str(results_dir)]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0].split()
    assert len(header) == 5 + 1  # one metric-name column plus one per domain
    assert "tdg_avg" in out


def test_report_csv_roundtrips(results_dir, capsys):
    assert cli.main(["report", str(results_dir), "--format", "csv"]) == 0
    text = capsys.readouterr().out
    stored = MetricsReport(**json.loads((results_dir / "metrics.json").read_text()))
    assert metrics_from_csv(text) == stored


def console_tables(stdout: str) -> list[list[str]]:
    """The tables a command prints: runs of lines split by blank lines, without
    the `wrote <path>` and `variant:` lines."""
    tables = [[]]
    for line in stdout.splitlines():
        if not line:
            tables.append([])
        elif not line.startswith(("wrote ", "variant: ")):
            tables[-1].append(line)
    return [table for table in tables if table]


@pytest.mark.parametrize("argv,count", [
    (["sweep", "--param", "r_top", "--values", "2,4"], 1),
    (["ablate", "--variant", "labeler=softmax"], 1),
    (["report"], 2),
], ids=["sweep", "ablate", "report"])
def test_console_tables_align_every_column(argv, count, results_dir, tmp_path, capsys):
    if argv == ["report"]:
        argv = ["report", str(results_dir)]
    else:
        argv = [*argv, "--config", write_cfg(tmp_path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    tables = console_tables(capsys.readouterr().out)
    assert len(tables) == count
    for table in tables:
        spans = [[m.span() for m in re.finditer(r"\S+", line)] for line in table]
        columns = list(zip(*spans))
        assert all(len(row) == len(columns) for row in spans), table
        assert len({start for start, _ in columns[0]}) == 1, table  # one left edge
        for column in columns[1:]:
            assert len({end for _, end in column}) == 1, table  # one right edge
        for left, right in zip(columns, columns[1:]):  # the widest cells two spaces apart
            assert min(b[0] - a[1] for a, b in zip(left, right)) == 2, table


def test_text_table_pads_to_the_widest_cell():
    assert cli.text_table([["a", "bb", "c"], ["dddd", "e", "-"]]) == "a     bb  c\ndddd   e  -"


def test_report_missing_dir_exits_two(tmp_path):
    assert cli.main(["report", str(tmp_path / "absent")]) == 2


GOOD_METRICS = {"tdg": [None, 0.5], "tda": [0.9, 0.8], "fa": [0.85, None],
                "tdg_avg": 0.5, "tda_avg": 0.85, "fa_avg": 0.85}


@pytest.mark.parametrize("text", [
    "{",
    json.dumps({**GOOD_METRICS, "extra": 1}),
    json.dumps({k: v for k, v in GOOD_METRICS.items() if k != "fa_avg"}),
    json.dumps({**GOOD_METRICS, "tda": "ab", "tda_avg": "x"}),
    json.dumps({**GOOD_METRICS, "tda": [0.9, True]}),
    json.dumps({**GOOD_METRICS, "tdg": [None, 0.5, 0.7]}),
    json.dumps({**GOOD_METRICS, "tda": [0.9, float("nan")]}),
    json.dumps({**GOOD_METRICS, "fa_avg": float("inf")}),
    json.dumps({**GOOD_METRICS, "tdg": [None, 1.7]}),
    json.dumps({**GOOD_METRICS, "tda_avg": -0.2}),
    json.dumps({**GOOD_METRICS, "fa": [10**400, None]}),
], ids=["bad_json", "unknown_key", "missing_key", "string_value", "bool_value",
        "ragged_lists", "nan_value", "inf_value", "above_one", "below_zero", "huge_int"])
def test_report_on_a_file_that_is_no_metrics_report_exits_two(tmp_path, capsys, text):
    (tmp_path / "metrics.json").write_text(text)
    assert cli.main(["report", str(tmp_path)]) == 2
    assert str(tmp_path / "metrics.json") in capsys.readouterr().err


# ------------------------------------------------------------ parser plumbing

def test_help_exits_zero(capsys):
    for argv in (["--help"], ["run", "--help"], ["sweep", "--help"],
                 ["ablate", "--help"], ["report", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--" in text


def test_runtime_failure_exits_one(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path)

    def boom(config):
        raise RuntimeError("disk full")

    monkeypatch.setattr(protocol, "run_cdsl", boom)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
