"""Smoke test of the benchmark's span tracer against the current package: it
must install over every layer module, record a traced `train` run, and leave
every name it rebound as it found it."""

import importlib.util
import pathlib

import margin_auditor
from margin_auditor import TrainConfig, synth_blobs, train, training
from margin_auditor.network import Network

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_train_records_spans_and_restores_names():
    tracer = _load_tracer().Tracer()
    namespaces = (margin_auditor, *tracer.modules.values(), Network)
    before = [dict(vars(ns)) for ns in namespaces]
    ds = synth_blobs(20, 3, 2, separation=2.0, seed=1)
    cfg = TrainConfig(layer_widths=(3, 4, 2), epochs=1, batch_size=4, seed=0)
    tracer.install()
    try:
        assert training.train is not train
        snaps = margin_auditor.train(cfg, ds, ds)
    finally:
        tracer.uninstall()
    assert len(snaps) == 1
    spans = {span.name: span for span in tracer.spans}
    assert spans["training.train"].parent == -1
    assert spans["training.init_network"].parent == spans["training.train"].id
    for ns, saved in zip(namespaces, before):
        now = vars(ns)
        assert set(now) == set(saved)
        assert all(now[attr] is obj for attr, obj in saved.items())
