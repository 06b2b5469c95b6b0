"""Command-line front end: identity sweeps, simulations, tables, races.

Commands
--------
verify    run the exact identity suite over a parameter grid
simulate  sampler-equivalence and spacing KS checks at fixed seeds
converge  Euler-constant / Basel / variance / Gumbel tables and tail audit
race      exact vs Monte Carlo probability that a gamma draw wins
all       verify, simulate, converge with the default verification grids

Exit codes: 0 all checks passed, 1 any mismatch or failed test, 2 usage
error.  Rationals cross the boundary as exact fraction strings ("7/2");
output is byte-identical for identical configurations in every format,
and no output mode prints timings.  EXPORDER_SEED (decimal, checked like
--seed) overrides the default seed when --seed is not given.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from . import identities
from .laplace import OrderStatParams

if TYPE_CHECKING:
    from . import convergence

__all__ = ["RunConfig", "parse_args", "run", "main"]

DEFAULT_SEED = 20170807
SEED_ENV_VAR = "EXPORDER_SEED"

DEFAULT_N_LIST = (10, 100, 1_000, 10_000, 100_000, 1_000_000)

# converge table target -> convergence function; looked up by name at call
# time, so a wrapper later bound to the module attribute is the one called
_TABLES = {
    "gamma": "euler_gamma_table",
    "basel": "basel_table",
    "variance": "variance_convergence_check",
    "gumbel": "gumbel_approx_error",
}
DEFAULT_TARGETS = (*_TABLES, "tail")
_TAIL_CSV = "the tail audit has no CSV form; use --format json, or --targets without tail"

# audit defaults: 50 log-spaced sizes in [1, 10^4], x = 0.01 .. 10 step 0.01
TAIL_N_GRID = tuple(
    int(round(10 ** (4 * i / 49))) for i in range(50)
)
TAIL_X_GRID = tuple(0.01 * i for i in range(1, 1001))

GUMBEL_ERROR_BUDGET = 0.3  # sup distance must stay below this over n


@dataclass
class RunConfig:
    """Validated CLI invocation; an option the parser leaves unset takes its default here."""

    command: str
    max_n: int = identities.DEFAULT_MAX_N_STRUCTURAL
    max_r: int = 4
    s_grid: tuple = identities.DEFAULT_S_GRID
    seed: int = DEFAULT_SEED
    replicates: int = 100_000
    output_format: str = "pretty"
    output_path: Optional[str] = None
    targets: tuple = DEFAULT_TARGETS
    n_list: tuple = DEFAULT_N_LIST
    race_n: int = 3
    race_k: int = 2
    race_r: int = 1
    race_s: Fraction = Fraction(1)
    chunks: int = 1


def _positive_fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r} ({exc})")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"s must be > 0, got {text!r}")
    return value


def _fraction_list(text: str) -> tuple:
    return tuple(_positive_fraction(part) for part in text.split(","))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _unsigned_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {value}")
    return value


def _n_list(text: str) -> tuple:
    ns = tuple(_positive_int(part) for part in text.split(","))
    if any(b < a for a, b in zip(ns, ns[1:])):
        raise argparse.ArgumentTypeError(f"n list must be nondecreasing, got {text!r}")
    return ns


def _targets(text: str) -> tuple:
    targets = tuple(part.strip() for part in text.split(","))
    bad = [t for t in targets if t not in DEFAULT_TARGETS]
    if bad:
        raise argparse.ArgumentTypeError(
            f"unknown targets {bad}; choose from {', '.join(DEFAULT_TARGETS)}"
        )
    return targets


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every parse.

    Parsing keeps no state in the parser: every parse fills a fresh
    namespace, and the defaults are immutable.
    """
    parser = argparse.ArgumentParser(
        prog="exporder",
        description="Exact identities and seeded simulations for exponential order statistics.",
        epilog=f"The default seed is {DEFAULT_SEED}; set {SEED_ENV_VAR} to override it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: Sequence[str]) -> None:
        p.add_argument("--format", choices=formats, dest="output_format")
        p.add_argument("--output", dest="output_path", metavar="PATH")
        p.add_argument("--seed", type=_unsigned_int)

    p_verify = sub.add_parser("verify", help="run the exact identity sweep")
    p_verify.add_argument("--max-n", type=_positive_int)
    p_verify.add_argument("--max-r", type=_positive_int)
    p_verify.add_argument("--s", type=_fraction_list, dest="s_grid")
    add_common(p_verify, ("json", "pretty"))

    p_sim = sub.add_parser("simulate", help="fixed-seed sampler checks")
    p_sim.add_argument("--max-n", type=_positive_int, default=6)
    p_sim.add_argument("--replicates", type=_positive_int)
    add_common(p_sim, ("json", "pretty"))

    p_conv = sub.add_parser("converge", help="limit tables and the tail audit")
    p_conv.add_argument("--targets", type=_targets)
    p_conv.add_argument("--n", type=_n_list, dest="n_list")
    add_common(p_conv, ("json", "csv", "pretty"))

    p_race = sub.add_parser("race", help="gamma vs order statistic, exact and simulated")
    p_race.add_argument("--n", type=_positive_int, dest="race_n")
    p_race.add_argument("--k", type=_positive_int, dest="race_k")
    p_race.add_argument("--r", type=_positive_int, dest="race_r")
    p_race.add_argument("--s", type=_positive_fraction, dest="race_s")
    p_race.add_argument("--replicates", type=_positive_int, default=1_000_000)
    p_race.add_argument("--chunks", type=_positive_int)
    add_common(p_race, ("json", "pretty"))

    p_all = sub.add_parser("all", help="verify, simulate, converge with default grids")
    p_all.add_argument("--replicates", type=_positive_int)
    add_common(p_all, ("json", "pretty"))

    return parser


def _config(ns: argparse.Namespace) -> RunConfig:
    fields = RunConfig.__dataclass_fields__
    return RunConfig(**{k: v for k, v in vars(ns).items() if k in fields and v is not None})


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    """Parse argv into a RunConfig; argparse exits with code 2 on usage errors."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    env = os.environ.get(SEED_ENV_VAR)
    if ns.seed is None and env:
        try:
            ns.seed = _unsigned_int(env)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"{SEED_ENV_VAR}: {exc}")
    config = _config(ns)
    if config.command == "race":
        if config.race_k > config.race_n:
            parser.error(f"--k must be <= --n, got k={config.race_k}, n={config.race_n}")
        if config.chunks > config.replicates:
            parser.error(
                f"--chunks must be <= --replicates, got {config.chunks} > {config.replicates}"
            )
    if config.command == "converge" and config.output_format == "csv" and "tail" in config.targets:
        parser.error(_TAIL_CSV)
    return config


def _run_verify(config: RunConfig) -> tuple[int, list[str]]:
    reports = identities.run_suite(config.max_n, config.max_r, config.s_grid)
    mismatches = [r for r in reports if not r.matched]
    if config.output_format == "json":
        text = identities.reports_to_json_lines(reports)
    else:
        lines = [f"identity sweep: {len(reports)} checks, {len(mismatches)} mismatches"]
        for r in mismatches:
            lines.append(f"  MISMATCH {r.identity_id} {r.params}")
        text = "\n".join(lines) + "\n"
    return (0 if not mismatches else 1), [text]


def _simulate_results(config: RunConfig) -> list[convergence.TestResult]:
    from . import convergence, sampling

    results = []
    sid = 0
    for n in range(1, config.max_n + 1):
        for k in range(1, n + 1):
            p = OrderStatParams(n, k)
            direct = sampling.sample_orderstat_direct(
                sampling.SeededStream(config.seed, sid), p, config.replicates
            )
            rep = sampling.sample_orderstat_representation(
                sampling.SeededStream(config.seed, sid + 1), p, config.replicates
            )
            results.append(
                convergence.ks_two_sample(direct, rep, test_id=f"sampler_equivalence[n={n},k={k}]")
            )
            spacing = sampling.sample_normalized_spacings(
                sampling.SeededStream(config.seed, sid + 2), n, k, config.replicates
            )
            results.append(
                convergence.ks_one_sample(
                    spacing,
                    _unit_exponential_cdf,
                    test_id=f"spacing_unit_exponential[n={n},k={k}]",
                )
            )
            sid += 3
    return results


def _unit_exponential_cdf(t):
    import numpy as np

    return -np.expm1(-np.asarray(t, dtype=np.float64))


def _run_simulate(config: RunConfig) -> tuple[int, list[str]]:
    from . import convergence

    results = _simulate_results(config)
    failures = [t for t in results if not t.passed]
    if config.output_format == "json":
        text = convergence.results_to_json_lines(results)
    else:
        lines = [f"simulation checks: {len(results)} tests, {len(failures)} failures"]
        for t in results:
            lines.append(f"  {t.verdict.upper():4s} {t.test_id} D={t.statistic:.5f} p={t.threshold_or_pvalue:.5f}")
        text = "\n".join(lines) + "\n"
    return (0 if not failures else 1), [text]


def _audit_rows(target: str, rows: Sequence[convergence.ConvergenceRow]) -> list[str]:
    """Built-in per-row sanity checks mirrored from the verification suite."""
    problems = []
    if target in ("gamma", "gumbel"):
        for a, b in zip(rows, rows[1:]):
            if b.n > a.n and not b.abs_error < a.abs_error:
                problems.append(f"{target}: error not decreasing between n={a.n} and n={b.n}")
    if target == "gamma":
        for r in rows:
            if not 1.0 / (2 * r.n + 2) < r.abs_error < 1.0 / (2 * r.n):
                problems.append(f"gamma: error outside (1/(2n+2), 1/(2n)) at n={r.n}")
    if target in ("basel", "variance"):
        for r in rows:
            if not 1.0 / (r.n + 1) < r.abs_error < 1.0 / r.n:
                problems.append(f"{target}: error outside (1/(n+1), 1/n) at n={r.n}")
    if target == "gumbel":
        for r in rows:
            if r.n >= 10 and not r.abs_error < GUMBEL_ERROR_BUDGET / r.n:
                problems.append(f"gumbel: sup distance {r.abs_error} >= {GUMBEL_ERROR_BUDGET}/n at n={r.n}")
    return problems


def _run_converge(config: RunConfig) -> tuple[int, list[str]]:
    from . import convergence

    table_targets = [t for t in config.targets if t in _TABLES]
    want_tail = "tail" in config.targets
    if config.output_format == "csv" and want_tail:
        raise ValueError(_TAIL_CSV)

    problems: list[str] = []
    chunks: list[str] = []
    ran: dict[str, list] = {}
    for target in table_targets:
        # the variance rows are the Basel rows, so a basel run in this call serves both
        reuse = target == "variance" and "basel" in ran
        rows = ran["basel"] if reuse else getattr(convergence, _TABLES[target])(config.n_list)
        ran[target] = rows
        problems.extend(_audit_rows(target, rows))
        if config.output_format == "csv":
            header = "" if len(table_targets) == 1 else f"table,{target}\n"
            chunks.append(header + convergence.rows_to_csv(rows))
        elif config.output_format == "json":
            chunks.append(f'{{"table": {json.dumps(target)}, "rows": {convergence.rows_to_json(rows)}}}\n')
        else:
            body = "\n".join(
                f"  n={r.n:>9d} value={r.value:.12f} abs_error={r.abs_error:.3e}" for r in rows
            )
            chunks.append(f"{target}:\n{body}\n")

    if want_tail:
        checks, failed, lines = convergence.tail_bound_summary(
            TAIL_N_GRID, TAIL_X_GRID, json_lines=config.output_format == "json"
        )
        problems.extend(f"tail: {test_id} failed" for test_id in failed)
        if config.output_format == "json":
            chunks.append(lines)
        else:
            chunks.append(
                f"tail audit: {checks} checks over {len(TAIL_N_GRID)} sizes x "
                f"{len(TAIL_X_GRID)} points, {len(failed)} failures\n"
            )

    if config.output_format == "pretty":
        chunks.extend(f"PROBLEM {p}\n" for p in problems)
    return (0 if not problems else 1), chunks


def _run_race(config: RunConfig) -> tuple[int, list[str]]:
    from . import distributions, sampling

    p = OrderStatParams(config.race_n, config.race_k)
    g = distributions.GammaParams(config.race_s, config.race_r)
    exact = distributions.race_probability_exact(p, g)
    stream = sampling.SeededStream(config.seed)
    estimate = sampling.estimate_race(stream, p, g, config.replicates, config.chunks)
    sigma = (float(exact) * (1.0 - float(exact))) ** 0.5
    band = 4.0 * sigma / config.replicates**0.5
    error = abs(estimate - float(exact))
    ok = error <= band
    if config.output_format == "json":
        text = (
            json.dumps(
                {
                    "n": config.race_n,
                    "k": config.race_k,
                    "r": config.race_r,
                    "s": str(config.race_s),
                    "replicates": config.replicates,
                    "seed": config.seed,
                    "exact": str(exact),
                    "estimate": estimate,
                    "abs_error": error,
                    "band_4sigma": band,
                    "verdict": "pass" if ok else "fail",
                },
                sort_keys=True,
            )
            + "\n"
        )
    else:
        text = (
            f"exact      = {exact} ({float(exact):.6f})\n"
            f"estimate   = {estimate:.6f}  ({config.replicates} replicates, seed {config.seed})\n"
            f"abs error  = {error:.6f}\n"
            f"4-sigma    = {band:.6f}\n"
            f"verdict    = {'pass' if ok else 'fail'}\n"
        )
    return (0 if ok else 1), [text]


def _run_all(config: RunConfig) -> tuple[int, list[str]]:
    parser = build_parser()
    code, pieces = 0, []
    for command in ("verify", "simulate", "converge"):
        sub = replace(
            _config(parser.parse_args([command])),
            seed=config.seed,
            replicates=config.replicates,
            output_format=config.output_format,
        )
        sub_code, sub_pieces = _COMMANDS[command](sub)
        code = max(code, sub_code)
        pieces.extend(sub_pieces)
    return code, pieces


# command -> function of a RunConfig giving the exit code and the output as
# pieces of text, written in order and never joined: joining the 309 KB
# ``converge --format json`` output and encoding the copy took ~0.19 ms a
# pass, encoding its pieces ~0.02 ms (in process, 2-core x86-64 machine)
_COMMANDS = {
    "verify": _run_verify,
    "simulate": _run_simulate,
    "converge": _run_converge,
    "race": _run_race,
    "all": _run_all,
}


def _cannot_write(path: str, exc: OSError) -> int:
    sys.stderr.write(f"exporder: cannot write {path}: {exc.strerror or exc}\n")
    return 2


def _write_output(fd: int, pieces: Sequence[str]) -> None:
    """Replace what the open file fd holds with the pieces of text, in order.

    A regular file is overwritten in place and then cut to the bytes written,
    never truncated first: on ext4, truncating a file whose old pages are
    still being written back waits for that writeback, and a file truncated
    to zero is flushed when it is closed (3-15 ms per 309 KB ``converge``
    rewrite on a busy disk, against 0.2 ms in place).  Every piece is encoded
    before the first write, so text that cannot be encoded leaves the file as
    it was; a failed write leaves only what was written.
    """
    data = [memoryview(piece.encode("utf-8")) for piece in pieces]
    done = 0
    try:
        for view in data:
            while view:
                written = os.write(fd, view)
                done += written
                view = view[written:]
    finally:
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, done)


def run(config: RunConfig) -> int:
    """Execute one configured command; returns the process exit code."""
    path = config.output_path
    if path is None:
        code, pieces = _COMMANDS[config.command](config)
        sys.stdout.writelines(pieces)
        return code
    # opened once, before the work and not truncated: an unwritable path fails
    # with the OS's reason before the command runs, and a command that raises
    # leaves an old file as it was and removes a file this run created
    created = True
    try:
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            created = False
            fd = os.open(path, os.O_WRONLY)
    except OSError as exc:
        return _cannot_write(path, exc)
    try:
        code, pieces = _COMMANDS[config.command](config)
        try:
            _write_output(fd, pieces)
        except OSError as exc:
            return _cannot_write(path, exc)
    except BaseException:
        if created:
            os.unlink(path)
        raise
    finally:
        os.close(fd)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
