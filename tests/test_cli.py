import json
from dataclasses import fields

import pytest

from cdsl_lab import cli, protocol
from cdsl_lab.cli import MetricsReport, RunConfig


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


BAD_VALUE = {int: 2.5, float: "fast", bool: "yes", tuple: "64,64", str: 3}
BAD_TEXT = {int: "2.5", float: "fast", bool: "yes", tuple: "1,x"}  # any text is a str


@pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
def test_every_field_parses_its_default_from_text(field):
    default = getattr(RunConfig(), field.name)
    parsed = cli.parse_value(field.name, render(default))
    assert parsed == default and type(parsed) is type(default)
    cfg = RunConfig.from_dict({field.name: parsed})
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
def test_every_field_rejects_a_bad_value_by_name(field):
    kind = protocol.FIELD_KINDS[field.name]
    with pytest.raises(ValueError, match=f"config: {field.name} must be"):
        RunConfig.from_dict({field.name: BAD_VALUE[kind]})
    if kind in BAD_TEXT:
        with pytest.raises(cli.UsageError, match=f"field {field.name}:"):
            cli.parse_value(field.name, BAD_TEXT[kind])


def test_missing_config_file_is_usage_error(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 2


def test_env_seed_fallback_and_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "31")
    args = cli.build_parser().parse_args(["run", "--out", "x"])
    assert cli.build_config(args).seed == 31
    # config file beats the env fallback
    path = write_cfg(tmp_path, "seed = 5\n")
    args = cli.build_parser().parse_args(["run", "--config", path, "--out", "x"])
    assert cli.build_config(args).seed == 5
    # --set beats the file, --seed beats everything
    args = cli.build_parser().parse_args(
        ["run", "--config", path, "--set", "seed=9", "--out", "x"])
    assert cli.build_config(args).seed == 9
    args = cli.build_parser().parse_args(
        ["run", "--config", path, "--set", "seed=9", "--seed", "4", "--out", "x"])
    assert cli.build_config(args).seed == 4
    monkeypatch.setenv(cli.SEED_ENV_VAR, "not-an-int")
    args = cli.build_parser().parse_args(["run", "--out", "x"])
    with pytest.raises(cli.UsageError, match="CDSL_LAB_SEED"):
        cli.build_config(args)


def test_set_overrides_last_wins(tmp_path):
    args = cli.build_parser().parse_args(
        ["run", "--out", "x", "--set", "epochs=3", "--set", "epochs=5"])
    assert cli.build_config(args).epochs == 5


def test_unknown_sequence_is_usage_error(tmp_path):
    assert cli.main(["run", "--out", str(tmp_path / "o"),
                     "--set", "sequence=missing"]) == 2


# ------------------------------------------------------------ run command

def test_run_writes_layout_and_exits_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "results"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    for name in ("matrix.csv", "metrics.json", "train_log.csv",
                 "config.resolved.json", "run.meta"):
        assert (out / name).is_file(), name
    lines = (out / "matrix.csv").read_text().strip().splitlines()
    assert len(lines) == 6  # header plus five stage rows
    echoed = RunConfig.from_dict(json.loads((out / "config.resolved.json").read_text()))
    assert echoed.batch_size == 16
    assert "tdg_avg=" in capsys.readouterr().out


def test_run_reruns_byte_identical_except_meta(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(b)]) == 0
    for name in ("matrix.csv", "metrics.json", "train_log.csv",
                 "config.resolved.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_fails_loudly_on_non_finite_loss(tmp_path, capsys):
    # at this learning rate the rot5 PCA term overflows early in stage 0
    out = tmp_path / "blowup"
    assert cli.main(["run", "--set", "learning_rate=0.1", "--set", "epochs=3",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "non-finite loss at stage 0 epoch 2 step 2" in err
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


def test_sweep_rejects_bad_param_and_values(tmp_path):
    cfg = write_cfg(tmp_path)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                     "--param", "epochs", "--values", "1,2"]) == 2
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                     "--param", "r_con", "--values", "0.5,high"]) == 2


def test_sweep_parallel_equals_serial(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b = tmp_path / "serial", tmp_path / "par"
    assert cli.main(["sweep", "--config", cfg, "--out", str(a),
                     "--param", "r_top", "--values", "2,4"]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(b),
                     "--param", "r_top", "--values", "2,4", "--jobs", "3"]) == 0
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()


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


def test_ablate_rejects_unknown_variant(tmp_path):
    cfg = write_cfg(tmp_path)
    assert cli.main(["ablate", "--config", cfg, "--out", str(tmp_path / "x"),
                     "--variant", "no_memory"]) == 2


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


def test_report_json_parses(results_dir, capsys):
    assert cli.main(["report", str(results_dir), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    stored = json.loads((results_dir / "metrics.json").read_text())
    assert payload == stored


def test_report_csv_roundtrips(results_dir, capsys):
    assert cli.main(["report", str(results_dir), "--format", "csv"]) == 0
    text = capsys.readouterr().out
    stored = MetricsReport.from_dict(
        json.loads((results_dir / "metrics.json").read_text()))
    assert metrics_from_csv(text) == stored


def test_report_missing_dir_exits_two(tmp_path):
    assert cli.main(["report", str(tmp_path / "absent")]) == 2


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
