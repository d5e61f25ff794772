"""The benchmark's use of the library, run once at a small size: every name
``perfbench/workloads.py`` calls must still exist and give correct values."""

import importlib.util
from pathlib import Path

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_pass_and_micro_row_passes_its_checks():
    workloads = _load_workloads()
    checks = workloads.Checks()
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(16, checks)
        workload.setup()
        components = workload.run_pass(0)
        assert components, name
        workload.finish()
    rows = workloads.micro_rows(16, checks)
    assert rows and checks.attempted > 0
    assert checks.failures == [], checks.failures
