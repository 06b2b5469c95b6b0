"""What perfbench reads from exporder is still there.

perfbench/run.py reads each per-layer metric of BENCHMARK.json from its
tracer, which wraps the functions named in each module's ``__all__``; a
public function that leaves ``__all__`` makes a traced run fail with a
KeyError.  run.py also requires the identity times to add up to
run_suite's time, counting only the ids in ``workloads.IDENTITY_IDS``; a
report family outside that tuple fails every traced identity_sweep run.
The monte_carlo workload counts the sample batches its observers see, so
the command layer must reach each sampler through its module at call time.
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import exporder
from exporder import cli, identities, sampling

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")
IDENTITY_IDS = WORKLOADS.IDENTITY_IDS


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


def test_tracer_times_every_report_of_run_suite():
    # the traced run_suite gate adds up per-identity times, which the tracer
    # takes from the verify_* globals that run_suite's cases read at run time
    tracer = _load("tracing").Tracer()
    try:
        tracer.install()
        reports = identities.run_suite(3, 2, (Fraction(1),))
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert metrics["identities.checks"] == len(reports)
    assert all(f"identities.{r.identity_id}_s" in metrics for r in reports)


def test_tracer_sees_every_sampler_batch_and_restores_the_package():
    config = cli.parse_args(["simulate", "--max-n", "2", "--replicates", "50"])
    cli._simulate_results(config)  # a sampler bound on a first, untraced call would go unseen
    originals = sampling.sample_orderstat_direct, identities.run_suite
    seen = []
    tracer = _load("tracing").Tracer(
        {name: lambda name, batch: seen.append((name, batch.n, batch.k)) for name in WORKLOADS.SAMPLERS}
    )
    try:
        tracer.install()
        wrapped = exporder.sample_orderstat_direct, exporder.run_suite
        cli._simulate_results(config)
    finally:
        tracer.uninstall()
    cells = [(1, 1), (2, 1), (2, 2)]
    assert sorted(seen) == sorted((name, n, k) for n, k in cells for name in WORKLOADS.SAMPLERS)
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert exporder.sample_orderstat_direct is sampling.sample_orderstat_direct is originals[0]
    assert exporder.run_suite is identities.run_suite is originals[1]
    # a name cached in the package while the tracer was installed would keep its wrapper
    assert {"sample_orderstat_direct", "run_suite"}.isdisjoint(vars(exporder))
