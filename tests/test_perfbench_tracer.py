"""The benchmark reaches the package from outside: its tracer looks each
target up in its owner's namespace, and its pipeline imports and calls the
public API.  Every name it uses must still be there."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    targets = tracer.Tracer(n_lc=1, n_out=1)._targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
               if attr not in owner.__dict__]
    assert missing == []


def test_every_pipeline_import_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # for its `stimuli` import
    pipeline = _load("pipeline", monkeypatch)  # a name missing from lcsnn fails here
    engine_names = ["PhaseSchedule", "build_network", "checkpoint_load", "checkpoint_save",
                    "evaluate", "network_to_arrays", "train_decoder", "train_lc"]
    assert [n for n in engine_names if not callable(getattr(pipeline, n, None))] == []
    # the readout functions are looked up on the module when the pipeline runs
    readout_names = ["extract_feature_matrix", "train_linear", "predict"]
    assert [n for n in readout_names if not callable(getattr(pipeline.readout, n, None))] == []
    assert callable(pipeline.RewardState)
