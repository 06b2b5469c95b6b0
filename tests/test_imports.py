"""The package loads lazily: the exact layer runs without numpy, every public name stays."""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import exporder

ROOT = Path(__file__).resolve().parents[1]

# the names `from exporder import *` binds, one entry per submodule
PUBLIC = {
    "exact": "Polynomial Rational RationalFunction binomial poly_gcd",
    "laplace": (
        "OrderStatParams double_sum_form erlang_weighted_sum generalized_double_sum "
        "product_form product_value"
    ),
    "identities": (
        "IdentityReport binomial_invert report_to_json reports_to_json_lines run_suite "
        "verify_generalized verify_integer_rate verify_inversion_involution verify_main "
        "verify_max_order verify_max_order_value verify_min_order verify_nested "
        "verify_square_closed_form verify_square_min_order"
    ),
    "distributions": "GammaParams orderstat_cdf orderstat_mean orderstat_var race_probability_exact",
    "sampling": (
        "SampleBatch SeededStream estimate_race race_chunk_summary sample_normalized_spacings "
        "sample_orderstat_direct sample_orderstat_representation sample_race_indicators"
    ),
    "convergence": (
        "ConvergenceRow EULER_GAMMA PI_SQUARED_OVER_6 TestResult basel_table euler_gamma_table "
        "gumbel_approx_error ks_one_sample ks_two_sample tail_bound_audit variance_convergence_check"
    ),
}


def _fresh_python(source: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_verify_runs_without_numpy():
    proc = _fresh_python("""
        import sys
        from exporder import cli
        code = cli.main(["verify", "--max-n", "4", "--max-r", "1", "--s", "1"])
        print("numpy" in sys.modules, code)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("identity sweep: ")
    assert proc.stdout.splitlines()[-1] == "False 0"


def test_exact_submodules_load_without_numpy():
    proc = _fresh_python("""
        import sys
        from exporder import distributions, identities, laplace, exact
        print("numpy" in sys.modules)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_every_public_name_resolves_to_its_submodule():
    names = [name for text in PUBLIC.values() for name in text.split()]
    assert len(names) == 50
    for module, text in PUBLIC.items():
        sub = importlib.import_module(f"exporder.{module}")
        assert getattr(exporder, module) is sub
        for name in text.split():
            assert getattr(exporder, name) is getattr(sub, name), name
    star: dict = {}
    exec("from exporder import *", star)
    wanted = {*PUBLIC, *names}
    assert len(wanted) == 56
    assert wanted <= star.keys()
    assert wanted <= set(dir(exporder))
