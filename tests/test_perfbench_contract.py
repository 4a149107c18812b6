"""The names the benchmark in perfbench/ wraps or patches must keep working.

perfbench/spans.py replaces module attributes with timing wrappers and
perfbench/setup_probe.py replaces `objective.build_context` to cut a run
off at its first training step. Both only work while every call site looks
these functions up as module attributes at call time.
"""

import sys
from pathlib import Path

import pytest

from cdsl_lab import objective, protocol
from cdsl_lab.protocol import RunConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402


def tiny_config():
    return RunConfig(epochs=1, steps_per_epoch=2, batch_size=16, replay_n=4,
                     hidden=(8,), bottleneck=(8, 4), memory_capacity=40)


def test_every_traced_target_exists_and_is_callable():
    for module, attr, _, _ in spans.targets():
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_every_traced_target_is_called_through_its_module(tmp_path):
    with spans.installed(spans.Tracer()) as tracer:
        protocol.write_results(protocol.run_cdsl(tiny_config()), tmp_path)
    assert set(tracer.calls) == {name for _, _, name, _ in spans.targets()}


def test_ensemble_and_update_spans_run_once_per_training_step():
    """Each training step draws one stack, autoencodes and mixes it in one call
    each and makes one SGD update, so these spans time whole steps."""
    cfg = tiny_config()
    with spans.installed(spans.Tracer()) as tracer:
        result = protocol.run_cdsl(cfg)
    steps = len(result.logs["train_log"])
    assert steps == result.matrix.values.shape[0] * cfg.epochs * cfg.steps_per_epoch
    for name in ("randmix.draw", "randmix.autoencode", "randmix.mix", "diffcore.sgd"):
        assert tracer.calls[name] == steps, name


def test_run_reaches_build_context_through_the_module(monkeypatch):
    class FirstStep(Exception):
        pass

    def first_step(*_, **__):
        raise FirstStep

    monkeypatch.setattr(objective, "build_context", first_step)
    with pytest.raises(FirstStep):
        protocol.run_cdsl(tiny_config())
