"""Benchmark for exporder: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload identity_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload monte_carlo --trace 1 --record perfbench/out/new.jsonl
    python3 perfbench/run.py --compare perfbench/out/base.jsonl perfbench/out/new.jsonl

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json, with ``--trace 1`` the per-layer ones.
exporder is imported from ``src/`` of the same checkout; without it the
benchmark exits with code 2 and prints no result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("identity_sweep", "monte_carlo", "limit_tables")
DEFAULT_SEED = 20170807  # exporder's own default seed
REF_S = 3.5e-4  # the reference kernel's time at the reference speed (see README.md)
PERIOD_S = 0.02  # interval between kernel readings during a pass
CLI_SELF_SHARE = 0.05  # traced time the command layer may keep for itself
RUN_SUITE_SHARE = 0.05  # run_suite time that need not be inside an identity check


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="exporder benchmark")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="FILE", help="append this run's result to a JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two --record files")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.compare and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def import_exporder():
    """Import exporder from this checkout's src/, never from elsewhere."""
    if not (SRC / "exporder" / "__init__.py").is_file():
        log(f"perfbench: no exporder source at {SRC / 'exporder'}")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import exporder

    if Path(exporder.__file__).resolve().parent != SRC / "exporder":
        log(f"perfbench: exporder was imported from {exporder.__file__}, not {SRC}")
        sys.exit(2)
    return exporder


class Speed:
    """The machine's speed, read from a fixed reference kernel during each pass.

    The kernel is one product of two ~10,000-bit integers (~0.3 ms): pure
    computation, no allocation to speak of and no memory traffic beyond the
    cache.  While a pass runs, an interval timer reads the kernel every
    PERIOD_S seconds, between two bytecodes of the pass; one more reading is
    taken just before and just after it.  ``timed(fn)`` returns fn's result,
    its wall time and its time at the reference speed, the speed at which
    the kernel takes REF_S seconds: the pass's own time (the readings' time
    taken out) times REF_S and the mean of 1/reading.
    """

    def __init__(self):
        self._big = 3**12600, 7**7100
        self.readings: list[float] = []
        self._reading_s = 0.0  # time spent reading the kernel

    def read(self) -> float:
        t0 = time.perf_counter()
        self._big[0] * self._big[1]
        seconds = time.perf_counter() - t0
        self.readings.append(seconds)
        self._reading_s += seconds
        return seconds

    def timed(self, fn):
        self.read()
        first, reading_s = len(self.readings) - 1, self._reading_s
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.read())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            t0 = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        busy = seconds - (self._reading_s - reading_s)
        self.read()
        inverse = statistics.fmean(1 / r for r in self.readings[first:])
        return result, seconds, busy * REF_S * inverse


def time_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to its inputs being built.

    The new process reads the reference kernel itself once it is ready, and
    the time is scaled by that reading, like a pass time.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        ready = proc.stdout.readline()
        dt = time.perf_counter() - t0
        reading = proc.stdout.read()
    if ready.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
    return dt * REF_S / float(reading)


def run_commands(cli, argvs, tmpdir: str, speed: Speed | None = None):
    """Run each command through exporder.cli, output to a temporary file.

    Returns each command's (exit code, output) and, with ``speed``, each
    command's time at the reference speed, parsing its arguments included.
    """
    outputs, times = [], []
    for i, argv in enumerate(argvs):
        path = f"{tmpdir}/out{i}.txt"

        def command(argv=argv, path=path):
            return cli.run(cli.parse_args([*argv, "--output", path]))

        code, seconds = speed.timed(command)[::2] if speed else (command(), 0.0)
        with open(path, encoding="utf-8") as fh:
            outputs.append((code, fh.read()))
        times.append(seconds)
    return outputs, times


def first_outputs(args, workload, cli, tmpdir, check) -> list[tuple[int, str]]:
    """Run the commands twice, once traced with the workload's observers.

    The outputs must agree byte for byte; they are the reference every
    later pass is compared with.
    """
    from tracing import Tracer

    argvs = workload.argv(args.seed)
    tracer = Tracer({name: workload.observed for name in workload.observe})
    tracer.install()
    try:
        outputs, _ = run_commands(cli, argvs, tmpdir)
    finally:
        tracer.uninstall()
    again, _ = run_commands(cli, argvs, tmpdir)
    for argv, a, b in zip(argvs, outputs, again):
        check(a == b, f"exporder {' '.join(argv)}: two passes at one seed differ")
    return outputs


def end_to_end(args, workload, cli, tmpdir, check) -> dict:
    argvs = workload.argv(args.seed)
    outputs = first_outputs(args, workload, cli, tmpdir, check)
    times = []  # per round, each command's time at the reference speed
    setups = []
    speed = Speed()
    deadline = time.perf_counter() + args.seconds
    while True:  # whole rounds: every command once, then one set-up
        again, seconds = run_commands(cli, argvs, tmpdir, speed)
        times.append(seconds)
        for argv, a, b in zip(argvs, again, outputs):
            check(a == b, f"exporder {' '.join(argv)}: output differs from the first pass")
        setups.append(time_setup(args))
        if time.perf_counter() >= deadline:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.check_outputs(args.seed, outputs)

    wall = sum(statistics.median(column) for column in zip(*times))
    log(f"{len(times)} rounds of {len(argvs)} commands; median kernel reading "
        f"{statistics.median(speed.readings) * 1e3:.3f} ms over {len(speed.readings)} readings")
    return {
        "wall_s": wall,
        "checks_per_s": workload.count_checks(outputs) / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mib,
    }


def _max_bits(outputs) -> int:
    """Largest bit length among the integers of identity report sides."""
    best = 0

    def ints(side):
        if isinstance(side, dict):
            return [*side["numer"], *side["denom"]]
        if isinstance(side, list):
            return [int(x) for s in side for x in s.split("/")]
        return [int(x) for x in side.split("/")]

    for _, text in outputs:
        for line in text.splitlines():
            rec = json.loads(line)
            if isinstance(rec, dict) and "lhs" in rec:
                for side in (rec["lhs"], rec["rhs"]):
                    best = max(best, *(abs(i).bit_length() for i in ints(side)))
    return best


def per_layer(args, workload, cli, tmpdir, check, units: dict) -> dict:
    from tracing import Tracer
    from workloads import IDENTITY_IDS

    argvs = workload.argv(args.seed)
    outputs = first_outputs(args, workload, cli, tmpdir, check)
    workload.check_outputs(args.seed, outputs)
    layers = []
    speed = Speed()
    deadline = time.perf_counter() + args.seconds
    while True:  # whole rounds: one untraced pass, then one traced pass
        (again, _), _, untraced = speed.timed(lambda: run_commands(cli, argvs, tmpdir))
        check(again == outputs, "an untraced pass differs from the first")

        tracer = Tracer()
        tracer.install()
        try:
            (again, _), wall, traced = speed.timed(lambda: run_commands(cli, argvs, tmpdir))
        finally:
            tracer.uninstall()
        check(again == outputs, "a traced pass differs from the untraced output")
        m = tracer.metrics()
        check(abs(tracer.self_total() - wall) <= 0.03 * wall,
              f"module self times add up to {tracer.self_total():.4f} s of {wall:.4f} s")
        # time spent in the command layer itself, not in a layer below it
        check(m["cli.self_s"] <= CLI_SELF_SHARE * wall,
              f"cli.self_s {m['cli.self_s']:.4f} s is over {CLI_SELF_SHARE:.0%} of {wall:.4f} s")
        if m["identities.run_suite_calls"]:
            ids = sum(m.get(f"identities.{iid}_s", 0.0) for iid in IDENTITY_IDS)
            check(abs(ids - m["identities.run_suite_s"]) <= RUN_SUITE_SHARE * m["identities.run_suite_s"],
                  f"identity times add up to {ids:.4f} s of run_suite's {m['identities.run_suite_s']:.4f} s")
        for iid in IDENTITY_IDS:
            m.setdefault(f"identities.{iid}_s", 0.0)
        m["identities.max_bits"] = _max_bits(again)
        m["cli.output_bytes"] = sum(len(text.encode()) for _, text in again)
        # times and rates at the reference speed, like the end-to-end times
        factor = traced / wall
        for name, unit in units.items():
            if unit == "s" and name in m:
                m[name] *= factor
            elif unit == "1/s":
                m[name] /= factor
        m["trace.wall_s"] = traced
        m["trace.overhead_s"] = traced - untraced
        layers.append(m)
        if time.perf_counter() >= deadline:
            break

    log(f"{len(layers)} traced and {len(layers)} untraced passes")
    return {name: statistics.median(m[name] for m in layers) for name in units}


def compare(base_path: str, new_path: str) -> None:
    """Print, per workload and metric, the median of each file and their ratio."""
    def load(path):
        runs: dict = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                for name, m in rec["result"]["metrics"].items():
                    runs.setdefault((rec["workload"], name, m["unit"]), []).append(m["value"])
        return runs

    base, new = load(base_path), load(new_path)
    print(f"{'workload':15s} {'metric':45s} {'unit':6s} {'base (runs)':>20s} {'new (runs)':>20s} {'new/base':>9s}")
    for key in sorted(base.keys() & new.keys()):
        workload, name, unit = key
        b, n = statistics.median(base[key]), statistics.median(new[key])
        ratio = f"{n / b:9.4f}" if b else "      n/a"
        print(f"{workload:15s} {name:45s} {unit:6s} {b:14.6g} ({len(base[key]):3d}) "
              f"{n:14.6g} ({len(new[key]):3d}) {ratio}")
    for key in sorted(base.keys() ^ new.keys()):
        print(f"{key[0]:15s} {key[1]:45s} only in {'base' if key in base else 'new'}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    import_exporder()
    from exporder import cli
    from workloads import WORKLOADS, Checker

    check = Checker(log)
    workload = WORKLOADS[args.workload](check)
    if args.setup_only:
        workload.configs(args.seed)
        print("ready", flush=True)
        speed = Speed()
        print(statistics.median(speed.read() for _ in range(3)), flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        if args.trace:
            values = per_layer(args, workload, cli, tmpdir, check, {m["name"]: m["unit"] for m in wanted})
        else:
            values = end_to_end(args, workload, cli, tmpdir, check)
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
