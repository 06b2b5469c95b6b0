"""What perfbench reads from exporder is still there.

perfbench/run.py reads each per-layer metric of BENCHMARK.json from its
tracer, which wraps the functions named in each module's ``__all__``; a
public function that leaves ``__all__`` makes a traced run fail with a
KeyError.  run.py also requires the identity times to add up to
run_suite's time, counting only the ids in ``workloads.IDENTITY_IDS``; a
report family outside that tuple fails every traced identity_sweep run.
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

from exporder import identities

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


IDENTITY_IDS = _load("workloads").IDENTITY_IDS


def _added_by_run_py(name: str) -> bool:
    """Per-layer metrics that run.py sets itself rather than reading from the tracer."""
    return (
        name in ("identities.max_bits", "cli.output_bytes")
        or name.startswith("trace.")
        or name in {f"identities.{iid}_s" for iid in IDENTITY_IDS}
    )


def test_every_per_layer_metric_is_traced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer"] if not _added_by_run_py(m["name"])]
    tracer = _load("tracing").Tracer()
    try:
        tracer.install()
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert [name for name in wanted if name not in metrics] == []


def test_every_report_id_is_a_benchmark_identity():
    reports = identities.run_suite(3, 2, (Fraction(1),))
    assert {r.identity_id for r in reports} - set(IDENTITY_IDS) == set()
