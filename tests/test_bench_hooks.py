"""The benchmark's tracer (perfbench/tracing.py) wraps adamoge entry points by
name from outside; this checks that every name it wraps still exists and that
the layers it times still show up as spans in a train step and a predict."""

import os
import sys

import numpy as np
import pytest

from adamoge import training
from adamoge.autodiff import ParameterStore, Tape, Variable
from adamoge.moge import AdaMoGeModel, ModelConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    return tracing


def test_train_step_and_predict_record_layer_spans(tracing):
    tracer = tracing.Tracer()
    store = ParameterStore()
    model = AdaMoGeModel(store, 32, 8, 2, ModelConfig(e_max=3, feature_dim=8), seed=0)
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((4, 32, 2)), rng.standard_normal((4, 8, 2))
    with tracer.installed():
        with Tape() as tape:
            loss = training.mse_loss(model.forward(Variable(x)), y)
            tape.backward(loss)
        training.Adam(store).step(1e-3)
        train_spans = {s[tracing.NAME] for s in tracer.spans}
        tracer.spans.clear()
        model.predict(x[:1])
        predict_spans = {s[tracing.NAME] for s in tracer.spans}
    layers = {"filterbank.apply", "moge.experts_forward", "moge.mix",
              "autodiff.complex_expert_map"}
    assert layers | {"autodiff.backward", "training.adam_step"} <= train_spans
    assert layers <= predict_spans
    assert all(s[tracing.END] is not None for s in tracer.spans)
