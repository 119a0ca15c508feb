"""The benchmark's traced runs find a site for every layer they require.

A traced run fails when a required layer records no call, which happens when
a refactor renames or inlines the function at every site the tracer patches.
This test catches that in Tier-1, from the benchmark's own files, loaded as
they are.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")
workloads = load("workloads")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_required_layer_has_a_site(workload):
    missing = [
        layer
        for layer in workloads.WORKLOADS[workload].required_layers
        if not any(
            getattr(tracer._resolve(site), attr, None) is not None
            for site, attr in tracer.LAYER_SITES.get(layer, ())
        )
    ]
    assert missing == [], f"{workload}: no tracer site resolves for {missing}"
