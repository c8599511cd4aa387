"""The benchmark's contract with the package, checked at the package's tier.

The benchmark under ``bench/`` drives ``metricregions.cli.main`` and its
tracer wraps package names found with ``getattr`` and reads their call
arguments, so renaming or reshaping a traced name breaks a traced run
without failing any package test.  Each test here runs one traced op of
a workload (``predict_bulk`` on a smaller set-up) and requires it to pass
the workload's own output check.
"""

import os
import sys
from pathlib import Path
from unittest import mock

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

# the runner pins the BLAS thread count in the environment on import; keep
# that pin out of the rest of the test session
with mock.patch.dict(os.environ):
    import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "make",
    [
        lambda work: workloads.PredictBulk(work, 1, n_train=400, n_queries=80),
        lambda work: workloads.FitTunedW2(work, 1),
        lambda work: workloads.ReplicateGlobal(work, 1),
    ],
    ids=["predict_bulk", "fit_tuned_w2", "replicate_global"],
)
def test_traced_op_passes_its_check(tmp_path, make):
    workload = make(tmp_path)
    workload.setup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        record = run.run_op(workload, 0, tracer)
    finally:
        tracer.uninstall()
    assert record.ok, record.problems
    assert tracer.spans and tracer.spans[0].name == "cli.main"
    metrics = tracer.layer_metrics(1, [0])
    assert set(metrics) == {name for name, _, _ in tracing.LAYER_METRICS}
