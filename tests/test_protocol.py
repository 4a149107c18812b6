import json

import numpy as np
import pytest

from cdsl_lab import cli, nets, protocol, synthdata
from cdsl_lab.protocol import AccuracyMatrix, MetricsReport, RunConfig


def tiny_config(**overrides):
    base = dict(epochs=2, steps_per_epoch=4, batch_size=16, replay_n=4,
                hidden=(16,), bottleneck=(12, 8), memory_capacity=40, seed=2022)
    base.update(overrides)
    return RunConfig(**base)


def tiny_sequence(n_domains=3, samples=60):
    specs = [synthdata.DomainSpec("gauss_mix", classes=2, samples=samples,
                                  rotation_deg=20.0 * i, sigma=0.15)
             for i in range(n_domains)]
    return synthdata.DomainSequence("tiny", specs)


# ---------------------------------------------------------------- metrics

def test_metrics_on_hand_matrix():
    m = np.array([[0.9, 0.5, 0.4],
                  [0.8, 0.7, 0.5],
                  [0.7, 0.6, 0.8]])
    rep = protocol.compute_metrics(m)
    assert rep.tdg[0] is None
    assert rep.tdg[1] == pytest.approx(0.5)
    assert rep.tdg[2] == pytest.approx(0.45)
    assert rep.tda == pytest.approx([0.9, 0.7, 0.8])
    assert rep.fa[0] == pytest.approx(0.75)
    assert rep.fa[1] == pytest.approx(0.6)
    assert rep.fa[2] is None
    assert rep.tdg_avg == pytest.approx((0.5 + 0.45) / 2)
    assert rep.fa_avg == pytest.approx((0.75 + 0.6) / 2)


def test_metrics_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        protocol.compute_metrics(np.zeros((2, 3)))


def test_metrics_roundtrip_through_dict():
    rep = protocol.compute_metrics(np.eye(3) * 0.5 + 0.25)
    again = MetricsReport(**json.loads(json.dumps(rep.to_dict())))
    assert again == rep


def test_accuracy_matrix_validates_range():
    with pytest.raises(ValueError, match="0, 1"):
        AccuracyMatrix(np.array([[0.5, 1.2], [0.1, 0.3]]))


# ---------------------------------------------------------------- config

def test_config_rejects_unknown_keys():
    with pytest.raises(cli.UsageError, match="unknown key.*batchsize"):
        cli.parse_value("batchsize", "32")


def test_config_validates_values():
    with pytest.raises(ValueError, match="replay_n"):
        RunConfig(batch_size=8, replay_n=8)
    with pytest.raises(ValueError, match="epochs"):
        RunConfig(epochs=-1)
    with pytest.raises(ValueError, match="r_top"):
        RunConfig(r_top=0.0)
    with pytest.raises(ValueError, match="learning_rate"):
        RunConfig(learning_rate=-0.1)
    with pytest.raises(ValueError, match="hidden"):
        RunConfig(hidden=(16, 0))
    with pytest.raises(ValueError, match="bottleneck"):
        RunConfig(bottleneck=(12, 0))
    with pytest.raises(ValueError, match="memory_capacity"):
        RunConfig(memory_capacity=0)
    # every domain needs a memory slot; checked before any data or step
    with pytest.raises(ValueError, match="memory_capacity"):
        protocol.run_cdsl(tiny_config(memory_capacity=2), sequence=tiny_sequence(3))


def test_config_coercion_errors():
    with pytest.raises(ValueError, match="hidden must be a list of integers"):
        RunConfig(hidden=None)
    for value in ((1, 2, 3), (8,)):
        with pytest.raises(ValueError,
                           match="bottleneck must be a list of 2 integers or none"):
            RunConfig(bottleneck=value)
    assert RunConfig(bottleneck=None).bottleneck is None


def test_unknown_sequence_name_lists_presets():
    with pytest.raises(ValueError, match="rot5"):
        protocol.resolve_sequence(RunConfig(sequence="nope"))


def test_order_permutes_specs():
    cfg = RunConfig(order=(4, 3, 2, 1, 0))
    seq = protocol.resolve_sequence(cfg)
    assert [s.rotation_deg for s in seq.specs] == [80, 60, 40, 20, 0]
    with pytest.raises(ValueError, match="permutation"):
        protocol.resolve_sequence(RunConfig(order=(0, 0, 1, 2, 3)))


# ---------------------------------------------------------------- runs

def test_run_shapes_and_logs():
    res = protocol.run_cdsl(tiny_config(), sequence=tiny_sequence())
    assert res.matrix.values.shape == (3, 3)
    assert res.metrics.tda == [res.matrix.values[i, i] for i in range(3)]
    # source stage plus two target stages, 2 epochs x 4 steps each
    assert len(res.logs["train_log"]) == 3 * 2 * 4
    stages = {r["stage"] for r in res.logs["train_log"]}
    assert stages == {0, 1, 2}
    # every target stage logged the configured labeler each epoch and the
    # softmax baseline once
    for stage in (1, 2):
        rows = [r for r in res.logs["label_log"] if r["stage"] == stage]
        assert sum(r["method"] == "t2pl" for r in rows) == 2
        assert sum(r["method"] == "softmax_baseline" for r in rows) == 1


def test_run_is_deterministic():
    a = protocol.run_cdsl(tiny_config(), sequence=tiny_sequence())
    b = protocol.run_cdsl(tiny_config(), sequence=tiny_sequence())
    assert np.array_equal(a.matrix.values, b.matrix.values)
    assert a.logs["train_log"] == b.logs["train_log"]
    assert nets.param_hash(a.model) == nets.param_hash(b.model)


def test_seed_changes_run():
    a = protocol.run_cdsl(tiny_config(), sequence=tiny_sequence())
    b = protocol.run_cdsl(tiny_config(seed=2023), sequence=tiny_sequence())
    assert nets.param_hash(a.model) != nets.param_hash(b.model)


def test_zero_epochs_rows_equal_untrained_accuracy():
    cfg = tiny_config(epochs=0)
    res = protocol.run_cdsl(cfg, sequence=tiny_sequence())
    assert len(res.logs["train_log"]) == 0
    for row in res.matrix.values:
        assert np.array_equal(row, res.matrix.values[0])


def test_memory_grows_only_when_enabled():
    res = protocol.run_cdsl(tiny_config(), sequence=tiny_sequence())
    assert res.memory is not None
    assert res.memory.total() <= 40
    assert list(res.memory.sizes()) == [0, 1, 2]
    for entry in res.logs["stage_log"]:
        assert list(entry["bucket_sizes"]) == list(range(entry["stage"] + 1))
        assert sum(entry["bucket_sizes"].values()) == entry["memory_total"]
    flat = protocol.run_cdsl(tiny_config(stationary=True), sequence=tiny_sequence())
    assert flat.memory is None


def test_evaluation_never_mutates_parameters():
    res = protocol.run_cdsl(tiny_config(), sequence=tiny_sequence())
    before = nets.param_hash(res.model)
    for i, spec in enumerate(tiny_sequence().specs):
        x, _ = synthdata.generate(spec, seed=i)
        nets.predict_labels(res.model, x)
    assert nets.param_hash(res.model) == before


def test_stage_log_snapshot_tracks_model():
    res = protocol.run_cdsl(tiny_config(), sequence=tiny_sequence())
    assert res.logs["stage_log"][-1]["snapshot_hash"] == nets.param_hash(res.model)


def test_stationary_helper_matches_engine():
    specs = tiny_sequence(2).specs
    cfg = tiny_config()
    acc = protocol.run_stationary(cfg, specs[0], specs[1])
    from dataclasses import replace
    direct = protocol.run_cdsl(replace(cfg, stationary=True),
                               sequence=synthdata.DomainSequence("s", list(specs)))
    assert acc == direct.matrix.values[1, 1]


def test_ablate_variants():
    cfg = tiny_config()
    full = protocol.run_cdsl(cfg, sequence=tiny_sequence())
    for variant in protocol.ABLATION_VARIANTS:
        res = protocol.ablate(cfg, variant)
        assert res.matrix.values.shape == (5, 5)  # preset rot5 (config default)
    with pytest.raises(ValueError, match="unknown ablation"):
        protocol.ablate(cfg, "no_memory")
    # variant flag reflected in the resolved config
    assert protocol.ablate(cfg, "no_pca").config.disable_pca
    assert protocol.ablate(cfg, "labeler=softmax").config.labeler_method == "softmax"
    assert full.config == cfg  # caller's config never mutated


def test_write_results_files(tmp_path):
    res = protocol.run_cdsl(tiny_config(), sequence=tiny_sequence())
    protocol.write_results(res, tmp_path)
    matrix_lines = (tmp_path / "matrix.csv").read_text().strip().splitlines()
    assert matrix_lines[0] == "domain_0,domain_1,domain_2"
    assert len(matrix_lines) == 1 + 3
    for line, row in zip(matrix_lines[1:], res.matrix.values):
        assert line == ",".join(f"{v:.6f}" for v in row)
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics == res.metrics.to_dict()
    assert MetricsReport(**metrics) == res.metrics
    log_lines = (tmp_path / "train_log.csv").read_text().strip().splitlines()
    assert log_lines[0] == "stage,epoch,step,ce,pca,dis,total"
    assert len(log_lines) == 1 + len(res.logs["train_log"])
    cfg_echo = json.loads((tmp_path / "config.resolved.json").read_text())
    assert cfg_echo == json.loads(json.dumps(res.config.to_dict()))


def test_write_results_bytes_are_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    protocol.write_results(protocol.run_cdsl(tiny_config(), sequence=tiny_sequence()), a)
    protocol.write_results(protocol.run_cdsl(tiny_config(), sequence=tiny_sequence()), b)
    for name in ("matrix.csv", "metrics.json", "train_log.csv", "config.resolved.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_train_log_losses_decompose():
    res = protocol.run_cdsl(tiny_config(), sequence=tiny_sequence())
    for row in res.logs["train_log"]:
        assert row["ce"] >= 0.0 and row["pca"] >= 0.0 and row["dis"] >= 0.0
        assert abs(row["total"] - (row["ce"] + row["pca"] + row["dis"])) <= 1e-12
        if row["stage"] == 0:
            assert row["dis"] == 0.0
