"""Power of `simulate` and `race`: a planted defect fails exactly the verdicts it should.

Each test wraps one sampler or kernel of the default `simulate` or `race`
run, so the run draws from a wrong law in some cells, and checks the exit
code and the set of failing test ids.  Every other cell keeps its seeded
draws and still passes.

The defects asserted here are gross ones.  The measured edge, at the
default seed, is recorded here and asserted nowhere:

- every exponential scaled by 1.01 fails 7 `spacing_unit_exponential`
  cells, and by 1.005 one;
- the race's gamma rate times 1.01 passes in one chunk (|error| 0.00188
  against the band 0.00200) and fails in 1,000 (0.00361);
- the shared scale leaves the race's estimate at 0.501014, and no
  `sampler_equivalence` cell sees it either, since both of its sides move:
  nothing compares X_(k) with its exact law yet.
"""

import json
from dataclasses import replace

import pytest

import exporder.cli as cli
import exporder.sampling as sampling
from exporder.laplace import OrderStatParams

CELLS = [(n, k) for n in range(1, 7) for k in range(1, n + 1)]


def failing_ids(capsys):
    code = cli.main(["simulate", "--format", "json"])
    results = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(results) == 2 * len(CELLS)
    return code, {r["test_id"] for r in results if r["verdict"] == "fail"}


def ids(family, cells):
    return {f"{family}[n={n},k={k}]" for n, k in cells}


@pytest.fixture(autouse=True)
def default_seed(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)


@pytest.mark.parametrize(
    "shift, cells",
    [(1, CELLS), (-1, [(n, k) for n, k in CELLS if k < n])],
    ids=["rates_one_up", "rates_one_down"],
)
def test_representation_with_shifted_rates(monkeypatch, capsys, shift, cells):
    """Rates n-k+1+shift..n+shift fail every shifted sampler_equivalence cell, and no spacing."""
    honest = sampling.sample_orderstat_representation

    def shifted(stream, p, count):
        if p.k == p.n and shift < 0:
            return honest(stream, p, count)
        return honest(stream, OrderStatParams(p.n + shift, p.k), count)

    monkeypatch.setattr(sampling, "sample_orderstat_representation", shifted)
    code, failed = failing_ids(capsys)
    assert code == 1
    assert failed == ids("sampler_equivalence", cells)


def test_spacings_scaled_by_the_next_rate(monkeypatch, capsys):
    """Spacings scaled by n-k in place of n-k+1 fail every k < n spacing cell, and nothing else."""
    honest = sampling.sample_normalized_spacings

    def scaled(stream, n, k, count):
        batch = honest(stream, n, k, count)
        if k == n:
            return batch
        return replace(batch, values=batch.values * ((n - k) / (n - k + 1)))

    monkeypatch.setattr(sampling, "sample_normalized_spacings", scaled)
    code, failed = failing_ids(capsys)
    assert code == 1
    assert failed == ids("spacing_unit_exponential", [(n, k) for n, k in CELLS if k < n])


def test_every_exponential_scaled_by_two_percent(monkeypatch, capsys):
    """A shared 2% scale fails 20 of the 21 spacing cells, all but [n=6,k=3], and no equivalence."""
    honest = sampling._to_exponential

    def scaled(u):
        out = honest(u)
        out *= 1.02
        return out

    monkeypatch.setattr(sampling, "_to_exponential", scaled)
    code, failed = failing_ids(capsys)
    assert code == 1
    assert failed == ids("spacing_unit_exponential", [c for c in CELLS if c != (6, 3)])


@pytest.mark.parametrize("chunks", ["1", "1000"])
def test_race_gamma_rate_two_percent_high(monkeypatch, capsys, chunks):
    """The gamma rate times 1.02 fails the race in one chunk (|error| 0.00472) and in 1,000 (0.00648)."""
    honest = sampling._float_rate
    monkeypatch.setattr(sampling, "_float_rate", lambda s: honest(s) * 1.02)
    code = cli.main(["race", "--format", "json", "--chunks", chunks])
    (result,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 1
    assert result["verdict"] == "fail"
    assert result["abs_error"] > result["band_4sigma"]
