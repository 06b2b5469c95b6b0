"""The three benchmark workloads: the commands they run and their checks.

Each workload has
- ``argv(seed)``: the exporder command lines it runs through ``exporder.cli.run``;
- ``observe``: public functions whose results are checked as the commands
  make them, on a traced check pass (the sample means of ``monte_carlo``);
- ``count_checks(outputs)``: the checks the commands' output contains, the
  base of ``checks_per_s``;
- ``check_outputs``: checks on the commands' output files, computed apart
  from exporder (own polynomial expansion, sympy, mpmath, exact fractions).

A timed pass is one whole command, so every step of the command is timed.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from exporder import cli, identities


class Checker:
    """Counts attempted and failed checks; failures are printed to stderr."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self._log = log

    def __call__(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._log(f"CHECK FAILED: {what}")
        return ok


class Workload:
    name = ""
    commands: list = []
    observe: tuple = ()

    def __init__(self, check: Checker):
        self.check = check

    def argv(self, seed: int) -> list[list[str]]:
        return [list(c) for c in self.commands]

    def configs(self, seed: int) -> list:
        """The parsed commands: the inputs the checks derive their expectations from."""
        return [cli.parse_args(argv) for argv in self.argv(seed)]

    def observed(self, name: str, result) -> None:
        """Called with the result of each call of a function named in ``observe``."""

    def count_checks(self, outputs: list) -> int:
        raise NotImplementedError

    def check_outputs(self, seed: int, outputs: list) -> None:
        raise NotImplementedError


def _json_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines()]


# -- identity_sweep ----------------------------------------------------------

SYMPY_CELLS = 3  # (n, k) cells of power sums re-derived with sympy per run


def identity_counts(max_n: int, max_r: int, s_grid) -> dict:
    """Report count per identity id on run_suite's grid."""
    return {
        "product_vs_double_sum": sum(range(1, max_n + 1)),
        "double_sum_min_order": max_n,
        "double_sum_max_order": max_n + identities.DEFAULT_MAX_N_POINTWISE * len(s_grid),
        "integer_rate_reciprocal_binomial": identities.DEFAULT_MAX_INTEGER_RATE**2,
        "nested_product_sum": sum(range(1, identities.DEFAULT_MAX_N_NESTED + 1)) * len(s_grid),
        "power_sum_vs_derivative_sum": sum(range(1, identities.DEFAULT_MAX_N_POWER + 1)) * max_r * len(s_grid),
        "square_power_closed_form": sum(range(1, identities.DEFAULT_MAX_N_POWER + 1)) * len(s_grid),
        "square_power_min_order": identities.DEFAULT_MAX_N_SQUARE_MIN * len(s_grid),
        "inversion_involution": 3,
    }


IDENTITY_IDS = tuple(identity_counts(1, 1, ()))


def _expand_product(js) -> list[int]:
    """Coefficients, lowest degree first, of prod_j (s + j)."""
    coeffs = [1]
    for j in js:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += j * c
            nxt[i + 1] += c
        coeffs = nxt
    return coeffs


def _product_side(n: int, k: int) -> dict:
    """prod_{j=n-k+1..n} j/(s+j) in canonical form: monic denominator, content 1."""
    js = range(n - k + 1, n + 1)
    return {"numer": [math.prod(js)], "denom": _expand_product(js)}


class IdentitySweep(Workload):
    name = "identity_sweep"
    commands = [["verify", "--format", "json"]]

    def count_checks(self, outputs):
        (_, text), = outputs
        return len(text.splitlines())

    def check_outputs(self, seed, outputs):
        check = self.check
        config, = self.configs(seed)
        (code, text), = outputs
        reports = _json_lines(text)
        check(code == 0, f"verify exit code {code}")
        counts: dict = {}
        for r in reports:
            counts[r["identity_id"]] = counts.get(r["identity_id"], 0) + 1
        # report families added later are timed and counted in checks_per_s,
        # and their two sides must agree, but their grid is not known here
        for iid, want in identity_counts(config.max_n, config.max_r, config.s_grid).items():
            check(counts.get(iid, 0) == want, f"{iid}: {counts.get(iid, 0)} reports, grid gives {want}")
        for r in reports:
            check(r["lhs"] == r["rhs"] and r["verdict"] == "exact_match",
                  f"{r['identity_id']} {r['params']}: sides differ")
        for r in reports:
            p = r["params"]
            n = int(p.get("n", 0))
            if r["identity_id"] == "product_vs_double_sum":
                want = _product_side(n, int(p["k"]))
            elif r["identity_id"] == "double_sum_min_order":
                want = {"numer": [n], "denom": [n, 1]}
            elif r["identity_id"] == "double_sum_max_order" and "s" not in p:
                want = _product_side(n, n)
            else:
                continue
            check(r["lhs"] == want and r["rhs"] == want, f"{r['identity_id']} {p}: not prod j/(s+j)")
        self._check_power_sums_with_sympy(seed, config, reports)

    def _check_power_sums_with_sympy(self, seed, config, reports):
        import sympy

        s = sympy.Symbol("s")
        cells = [(n, k) for n in range(1, identities.DEFAULT_MAX_N_POWER + 1) for k in range(1, n + 1)]
        sample = random.Random(seed).sample(cells, SYMPY_CELLS)
        by_cell = {}
        for r in reports:
            if r["identity_id"] == "power_sum_vs_derivative_sum":
                p = r["params"]
                by_cell[(p["n"], p["k"], p["r"], p["s"])] = r["rhs"]
        for n, k in sample:
            f = sympy.Integer(1)
            for j in range(n - k + 1, n + 1):
                f *= sympy.Integer(j) / (s + j)
            derivs = [f]
            for _ in range(config.max_r - 1):
                derivs.append(sympy.diff(derivs[-1], s))
            for r in range(1, config.max_r + 1):
                expr = sum((-1) ** j * s**j / sympy.factorial(j) * derivs[j] for j in range(r))
                for sv in config.s_grid:
                    want = expr.subs(s, sympy.Rational(sv.numerator, sv.denominator))
                    got = by_cell.get((n, k, r, str(sv)))
                    self.check(got is not None and sympy.Rational(got) == want,
                               f"power sum (n={n},k={k},r={r},s={sv}): {got} != sympy {want}")


# -- monte_carlo -------------------------------------------------------------

RACE_REPLICATES = 1_000_000
RACE_CHUNKS = (1, 1000)
KS_ALPHA = 0.001
KS_TAIL = 1e-4  # a rejection count this unlikely under alpha fails the run
SAMPLERS = ("sampling.sample_orderstat_direct", "sampling.sample_orderstat_representation",
            "sampling.sample_normalized_spacings")


class MonteCarlo(Workload):
    name = "monte_carlo"
    observe = SAMPLERS

    def __init__(self, check):
        super().__init__(check)
        self.batches: list = []  # (sampler, n, k) of each batch whose mean was checked

    def argv(self, seed):
        sd = str(seed % 2**64)
        out = [["simulate", "--format", "json", "--seed", sd]]
        for chunks in RACE_CHUNKS:
            out.append(["race", "--format", "json", "--seed", sd,
                        "--replicates", str(RACE_REPLICATES), "--chunks", str(chunks)])
        return out

    def observed(self, name, batch):
        """Each sample mean lies within 6 sigma of the exact mean."""
        if name == "sampling.sample_normalized_spacings":
            mean, var = Fraction(1), Fraction(1)
        else:
            rates = range(batch.n - batch.k + 1, batch.n + 1)
            mean = sum(Fraction(1, j) for j in rates)  # H_n - H_{n-k}
            var = sum(Fraction(1, j * j) for j in rates)
        sigma = math.sqrt(var / len(batch))
        got = batch.mean()
        self.check(abs(got - float(mean)) <= 6 * sigma,
                   f"{name} n={batch.n} k={batch.k}: mean {got} is "
                   f"{abs(got - float(mean)) / sigma:.1f} sigma from {float(mean)}")
        self.batches.append((name, batch.n, batch.k))

    def count_checks(self, outputs):
        return sum(len(text.splitlines()) for _, text in outputs)

    def check_outputs(self, seed, outputs):
        check = self.check
        sim, *races = self.configs(seed)
        (sim_code, sim_text), *race_outputs = outputs
        cells = [(n, k) for n in range(1, sim.max_n + 1) for k in range(1, n + 1)]
        check(sorted(self.batches) == sorted((name, n, k) for n, k in cells for name in SAMPLERS),
              f"simulate: {len(self.batches)} sample batches seen for {len(cells)} cells")
        results = _json_lines(sim_text)
        check(len(results) == 2 * len(cells), f"simulate: {len(results)} results for {len(cells)} cells")
        rejected = sum(r["verdict"] != "pass" for r in results)
        check(all((r["verdict"] == "pass") == (r["threshold_or_pvalue"] > KS_ALPHA) for r in results),
              "simulate: a verdict disagrees with its p-value")
        check(_binomial_tail(len(results), KS_ALPHA, rejected) >= KS_TAIL,
              f"simulate: {rejected} KS rejections in {len(results)} tests at alpha={KS_ALPHA}")
        check(sim_code == (1 if rejected else 0), f"simulate exit code {sim_code} with {rejected} rejections")
        for config, (code, text) in zip(races, race_outputs):
            rec = json.loads(text)
            check((rec["n"], rec["k"], rec["r"], Fraction(rec["s"]), rec["replicates"])
                  == (config.race_n, config.race_k, config.race_r, config.race_s, config.replicates),
                  f"race chunks={config.chunks}: inputs {rec}")
            # P(Exp(rate s) > X) = E[exp(-s X)] = prod_{j=n-k+1..n} j/(s+j), for shape r = 1
            exact = math.prod(Fraction(j) / (config.race_s + j)
                              for j in range(config.race_n - config.race_k + 1, config.race_n + 1))
            check(config.race_r == 1, f"race: shape {config.race_r}, the check knows only shape 1")
            band = 4 * math.sqrt(float(exact) * (1 - float(exact)) / config.replicates)
            check(Fraction(rec["exact"]) == exact, f"race chunks={config.chunks}: exact {rec['exact']} != {exact}")
            check(abs(rec["estimate"] - float(exact)) <= band,
                  f"race chunks={config.chunks}: estimate {rec['estimate']} outside 4 sigma of {exact}")
            check(code == 0 and rec["verdict"] == "pass", f"race chunks={config.chunks}: exit code {code}")


def _binomial_tail(n: int, p: float, k: int) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k, n + 1))


# -- limit_tables ------------------------------------------------------------

TABLES = ("gamma", "basel", "variance", "gumbel")


class LimitTables(Workload):
    name = "limit_tables"
    commands = [["converge", "--format", "json"]]

    def count_checks(self, outputs):
        (_, text), = outputs
        return sum(len(rec["rows"]) if "rows" in rec else 1 for rec in _json_lines(text))

    def check_outputs(self, seed, outputs):
        import mpmath

        check = self.check
        config, = self.configs(seed)
        (code, text), = outputs
        check(code == 0, f"converge exit code {code}")
        lines = _json_lines(text)
        tables = {rec["table"]: rec["rows"] for rec in lines[: len(TABLES)] if "table" in rec}
        check(list(tables) == list(TABLES), f"converge tables {list(tables)}")
        for target in TABLES:
            check([r["n"] for r in tables.get(target, [])] == list(config.n_list), f"{target}: n list")
        mpmath.mp.dps = 50
        for r in tables.get("gamma", []):
            n, err = r["n"], r["abs_error"]
            check(1 / (2 * n + 2) < err < 1 / (2 * n), f"gamma n={n}: error {err} outside (1/(2n+2), 1/(2n))")
            h = float(mpmath.harmonic(n))  # 50-digit H_n, rounded once
            check(abs(r["value"] - (h - math.log(n))) <= math.ulp(h),
                  f"gamma n={n}: {r['value']} vs mpmath H_n - ln n = {h - math.log(n)}")
        for r in tables.get("basel", []):
            n, err = r["n"], r["abs_error"]
            check(1 / (n + 1) < err < 1 / n, f"basel n={n}: error {err} outside (1/(n+1), 1/n)")
            want = float(mpmath.zeta(2) - mpmath.zeta(2, n + 1))  # sum_{j<=n} 1/j^2
            check(abs(r["value"] - want) <= math.ulp(want), f"basel n={n}: {r['value']} vs mpmath {want}")
        check(tables.get("variance") == tables.get("basel"), "variance rows differ from basel rows")
        tail = lines[len(TABLES):]
        check(len(tail) == 2 * len(cli.TAIL_X_GRID), f"tail: {len(tail)} results")
        for t in tail:
            ok = t["verdict"] == "pass"
            if t["test_id"].startswith("tail_bound["):
                x = float(t["test_id"][len("tail_bound[x="):-1])
                ok = ok and t["statistic"] < 2 * math.exp(-x)
            check(ok, f"{t['test_id']} failed")


WORKLOADS = {w.name: w for w in (IdentitySweep, MonteCarlo, LimitTables)}
