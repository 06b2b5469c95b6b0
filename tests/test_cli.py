"""Command-line interface: parsing, output contracts, exit codes."""

import errno
import hashlib
import json
import os
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

import exporder.cli as cli
import exporder.identities as identities
from exporder.exact import Polynomial, RationalFunction
from exporder.identities import IdentityReport


def parse(argv):
    return cli.parse_args(argv)


class TestParsing:
    def test_fraction_flag(self):
        config = parse(["verify", "--s", "7/2"])
        assert config.s_grid == (Fraction(7, 2),)

    def test_fraction_list(self):
        config = parse(["verify", "--s", "1/3,1/2,1,2,7/2,5"])
        assert config.s_grid == identities.DEFAULT_S_GRID

    def test_zero_s_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse(["verify", "--s", "0"])
        assert exc.value.code == 2

    def test_zero_max_n_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse(["verify", "--max-n", "0"])
        assert exc.value.code == 2

    def test_garbage_fraction_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse(["race", "--s", "banana"])
        assert exc.value.code == 2

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse([])
        assert exc.value.code == 2

    def test_default_seed(self, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        assert parse(["race"]).seed == cli.DEFAULT_SEED

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "987654321")
        assert parse(["race"]).seed == 987654321

    @pytest.mark.parametrize("env", ["abc", "-1", str(2**64)])
    def test_bad_env_seed_is_usage_error(self, monkeypatch, env):
        monkeypatch.setenv(cli.SEED_ENV_VAR, env)
        with pytest.raises(SystemExit) as exc:
            parse(["race"])
        assert exc.value.code == 2

    def test_explicit_seed_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "987654321")
        assert parse(["race", "--seed", "5"]).seed == 5

    def test_converge_targets_validated(self):
        with pytest.raises(SystemExit) as exc:
            parse(["converge", "--targets", "gamma,nonsense"])
        assert exc.value.code == 2

    def test_decreasing_n_list_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse(["converge", "--n", "20000,10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["race", "--n", "3", "--k", "5"],
            ["race", "--k", "4"],
            ["race", "--replicates", "10", "--chunks", "20"],
            ["race", "--chunks", "1000001"],
        ],
    )
    def test_impossible_race_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 2
        assert "must be <=" in capsys.readouterr().err

    def test_readme_command_lines_parse(self, monkeypatch):
        """Every line of README's command-line block is a valid invocation."""
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
        argvs = [shlex.split(line, comments=True) for line in block.splitlines()]
        assert [argv[:1] for argv in argvs] == [["exporder"]] * 5
        for argv in argvs:
            assert parse(argv[1:]).command == argv[1]

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_repeated_parses_give_equal_configs(self, monkeypatch):
        """The shared parser carries nothing from one parse into the next."""
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        argvs = [
            ["race", "--n", "5", "--k", "3", "--s", "7/2", "--chunks", "4"],
            ["race"],
            ["simulate", "--max-n", "3", "--format", "json"],
            ["simulate"],
            ["converge", "--targets", "gamma", "--n", "10,20"],
            ["converge"],
            ["verify", "--s", "1/2"],
            ["verify"],
        ]
        first = [parse(argv) for argv in argvs]
        assert [parse(argv) for argv in reversed(argvs)] == first[::-1]
        assert first[1] == cli.RunConfig("race", replicates=1_000_000)
        assert first[3] == cli.RunConfig("simulate", max_n=6)
        assert first[5] == cli.RunConfig("converge")
        assert first[7] == cli.RunConfig("verify")

    def test_env_seed_read_on_every_parse(self, monkeypatch):
        for seed in ("1", "2"):
            monkeypatch.setenv(cli.SEED_ENV_VAR, seed)
            assert parse(["race"]).seed == int(seed)
        monkeypatch.delenv(cli.SEED_ENV_VAR)
        assert parse(["race"]).seed == cli.DEFAULT_SEED

    def test_usage_errors_exit_2_on_every_parse(self):
        good = parse(["race", "--n", "4"])
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                parse(["race", "--n", "0"])
            assert exc.value.code == 2
        assert parse(["race", "--n", "4"]) == good

    def test_all_builds_its_sub_configs(self, monkeypatch):
        seen = []
        for command in ("verify", "simulate", "converge"):
            monkeypatch.setitem(cli._COMMANDS, command, lambda config: (seen.append(config), (0, ""))[1])
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        for _ in range(2):
            seen.clear()
            code, _ = cli._run_all(parse(["all", "--seed", "5", "--replicates", "10", "--format", "json"]))
            assert code == 0
            common = dict(seed=5, replicates=10, output_format="json")
            assert seen == [
                cli.RunConfig("verify", **common),
                cli.RunConfig("simulate", max_n=6, **common),
                cli.RunConfig("converge", **common),
            ]

    def test_race_bounds_are_inclusive(self):
        config = parse(["race", "--n", "4", "--k", "4", "--replicates", "20", "--chunks", "20"])
        assert (config.race_k, config.chunks) == (4, 20)


def run_cli(argv, capsys):
    code = cli.run(cli.parse_args(argv))
    return code, capsys.readouterr().out


class TestVerifyCommand:
    ARGS = ["verify", "--max-n", "3", "--max-r", "2", "--s", "1", "--format", "json"]

    def test_small_sweep_exits_zero(self, capsys):
        code, out = run_cli(self.ARGS, capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines
        for line in lines:
            assert json.loads(line)["verdict"] == "exact_match"

    def test_output_byte_identical_across_runs(self, capsys):
        _, first = run_cli(self.ARGS, capsys)
        _, second = run_cli(self.ARGS, capsys)
        assert first == second

    def test_no_elapsed_in_json(self, capsys):
        _, out = run_cli(self.ARGS, capsys)
        assert "elapsed_us" not in out

    def test_injected_mismatch_forces_exit_one(self, capsys, monkeypatch):
        """Corrupt one identity and the process must fail."""
        broken = IdentityReport(
            "product_vs_double_sum",
            {"n": 1, "k": 1},
            RationalFunction(Polynomial((1,)), Polynomial((1, 1))),
            RationalFunction(Polynomial((2,)), Polynomial((1, 1))),
            "mismatch",
        )
        monkeypatch.setattr(identities, "verify_main", lambda n, k: broken)
        code, out = run_cli(self.ARGS, capsys)
        assert code == 1
        assert "mismatch" in out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "reports.jsonl"
        code, out = run_cli(self.ARGS + ["--output", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text().count("\n") > 10


class TestOutputPath:
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x"
        code = cli.main(["race", "--replicates", "10", "--output", str(target)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"exporder: cannot write {target}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not target.exists()

    UNWRITABLE = {  # kind -> path under tmp_path, errno
        "directory": ("", errno.EISDIR),
        "missing directory": ("missing/x", errno.ENOENT),
        "300-byte name": ("x" * 300, errno.ENAMETOOLONG),
        "dangling symlink": ("link", errno.ENOENT),
    }

    @pytest.mark.parametrize("kind", UNWRITABLE)
    def test_unwritable_output_fails_before_the_command(self, tmp_path, capsys, monkeypatch, kind):
        calls = []
        monkeypatch.setitem(cli._COMMANDS, "race", lambda config: calls.append(config) or (0, ""))
        name, err = self.UNWRITABLE[kind]
        target = tmp_path / name
        if kind == "dangling symlink":
            target.symlink_to(tmp_path / "missing" / "x")
        assert cli.main(["race", "--output", str(target)]) == 2
        assert calls == []
        assert capsys.readouterr().err == f"exporder: cannot write {target}: {os.strerror(err)}\n"
        assert [p.name for p in tmp_path.iterdir()] == (["link"] if kind == "dangling symlink" else [])

    def test_empty_output_path_is_usage_error(self, capsys):
        assert cli.main(["race", "--replicates", "1000", "--output", ""]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "exporder: cannot write : No such file or directory\n"

    def test_failed_command_keeps_an_old_file(self, tmp_path, monkeypatch):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_bytes(b"old bytes")

        def failing(config):
            raise RuntimeError("command failed")

        monkeypatch.setitem(cli._COMMANDS, "race", failing)
        for target in (old, new):
            with pytest.raises(RuntimeError):
                cli.main(["race", "--output", str(target)])
        assert old.read_bytes() == b"old bytes"
        assert not new.exists()

    RACE = ["race", "--replicates", "10", "--format", "json"]

    def test_rewrite_cuts_a_longer_old_file(self, tmp_path, capsys):
        code, out = run_cli(self.RACE, capsys)
        target = tmp_path / "old.json"
        target.write_bytes(b"x" * (3 * len(out)))
        assert run_cli(self.RACE + ["--output", str(target)], capsys) == (code, "")
        assert target.read_text() == out

    def test_output_to_a_device(self, capsys):
        code, _ = run_cli(self.RACE, capsys)
        assert run_cli(self.RACE + ["--output", os.devnull], capsys) == (code, "")

    def test_failed_write_leaves_only_what_was_written(self, tmp_path, capsys, monkeypatch):
        _, out = run_cli(self.RACE, capsys)
        target = tmp_path / "old.json"
        target.write_bytes(b"x" * (3 * len(out)))

        class FullDisk:  # os, but the disk fills after five bytes
            writes = 0

            def __getattr__(self, name):
                return getattr(os, name)

            def write(self, fd, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return os.write(fd, data[:5])

        monkeypatch.setattr(cli, "os", FullDisk())
        assert cli.main(self.RACE + ["--output", str(target)]) == 2
        assert capsys.readouterr().err == f"exporder: cannot write {target}: {os.strerror(errno.ENOSPC)}\n"
        assert target.read_text() == out[:5]

    def test_pieces_written_whole_through_short_writes(self, tmp_path, monkeypatch):
        text = "".join(f"{i} \u00e9\u2264\U0001d53c\n" for i in range(40_000))
        target = tmp_path / "long.txt"
        target.write_bytes(b"x" * (2 * len(text.encode())))

        class ShortWrites:  # os, but each write takes at most 1,000 bytes
            def __getattr__(self, name):
                return getattr(os, name)

            def write(self, fd, data):
                return os.write(fd, data[:1000])

        monkeypatch.setattr(cli, "os", ShortWrites())
        monkeypatch.setitem(cli._COMMANDS, "race", lambda config: (1, [text[:1000], text[1000:]]))
        assert cli.main(["race", "--output", str(target)]) == 1
        assert target.read_bytes() == text.encode()

    def test_text_that_cannot_be_encoded_leaves_the_old_file(self, tmp_path, monkeypatch):
        old, new = tmp_path / "old.txt", tmp_path / "new.txt"
        old.write_text("old output\n")
        pieces = ["new output\n", "new \ud800 output\n"]
        monkeypatch.setitem(cli._COMMANDS, "race", lambda config: (0, pieces))
        for target in (old, new):
            with pytest.raises(UnicodeEncodeError):
                cli.main(["race", "--output", str(target)])
        assert old.read_text() == "old output\n"
        assert not new.exists()


class TestSimulateCommand:
    def test_small_run(self, capsys):
        code, out = run_cli(
            ["simulate", "--max-n", "2", "--replicates", "20000", "--format", "json", "--seed", "7"],
            capsys,
        )
        assert code == 0
        results = [json.loads(l) for l in out.strip().split("\n")]
        assert all(r["verdict"] == "pass" for r in results)
        ids = {r["test_id"].split("[")[0] for r in results}
        assert ids == {"sampler_equivalence", "spacing_unit_exponential"}


class TestConvergeCommand:
    def test_csv_single_target(self, capsys):
        code, out = run_cli(
            ["converge", "--targets", "basel", "--n", "10,100,1000", "--format", "csv"], capsys
        )
        assert code == 0
        assert out.startswith("n,value,target,abs_error\n")

    def test_csv_deterministic(self, capsys):
        argv = ["converge", "--targets", "gamma,basel", "--n", "10,100", "--format", "csv"]
        _, first = run_cli(argv, capsys)
        _, second = run_cli(argv, capsys)
        assert first == second

    def test_final_basel_error_bound(self, capsys):
        code, out = run_cli(
            ["converge", "--targets", "basel", "--n", "10,100,1000,10000,100000,1000000",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        last = out.strip().split("\n")[-1]
        abs_error = float(last.split(",")[-1])
        assert abs_error < 1.000001e-6

    def test_variance_rows_are_audited(self, capsys, monkeypatch):
        """A variance row outside the Basel bracket 1/(n+1) < error < 1/n fails the run."""
        import exporder.convergence as convergence

        drifted = convergence.ConvergenceRow(10, 1.0, convergence.PI_SQUARED_OVER_6, 0.2)
        monkeypatch.setattr(convergence, "variance_convergence_check", lambda n_list: [drifted])
        code, out = run_cli(["converge", "--targets", "variance", "--n", "10"], capsys)
        assert code == 1
        assert "PROBLEM variance: error outside (1/(n+1), 1/n) at n=10\n" in out

    def test_default_run_builds_the_basel_rows_once(self, capsys, monkeypatch):
        """The variance table reuses the basel table's rows instead of building them again."""
        import exporder.convergence as convergence

        calls = {"basel_table": 0, "variance_convergence_check": 0}
        for name in calls:
            table = getattr(convergence, name)

            def counted(n_list, name=name, table=table):
                calls[name] += 1
                return table(n_list)

            monkeypatch.setattr(convergence, name, counted)
        code, out = run_cli(["converge", "--format", "json"], capsys)
        tables = {t["table"]: t["rows"] for t in map(json.loads, out.splitlines()) if "table" in t}
        assert code == 0
        assert calls == {"basel_table": 1, "variance_convergence_check": 0}
        assert tables["variance"] == tables["basel"]

    def test_tail_with_csv_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "old.csv"
        target.write_bytes(b"old bytes")
        # the default targets include tail
        for targets in (["--targets", "tail"], ["--targets", "gamma,tail"], []):
            with pytest.raises(SystemExit) as exc:
                cli.main(["converge", "--format", "csv", "--output", str(target), *targets])
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(f"exporder: error: {cli._TAIL_CSV}\n")
        assert target.read_bytes() == b"old bytes"

    def test_hand_built_tail_with_csv_raises(self):
        config = cli.RunConfig("converge", output_format="csv", targets=("tail",))
        with pytest.raises(ValueError, match="no CSV form"):
            cli.run(config)


class TestRaceCommand:
    ARGS = ["race", "--n", "3", "--k", "2", "--r", "1", "--s", "1",
            "--replicates", "50000", "--seed", "42"]

    def test_pretty_output_has_exact_value(self, capsys):
        code, out = run_cli(self.ARGS, capsys)
        assert code == 0
        assert "1/2" in out

    def test_json_output(self, capsys):
        code, out = run_cli(self.ARGS + ["--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == "1/2"
        assert payload["verdict"] == "pass"
        assert abs(payload["estimate"] - 0.5) <= payload["band_4sigma"]

    def test_json_deterministic(self, capsys):
        _, first = run_cli(self.ARGS + ["--format", "json"], capsys)
        _, second = run_cli(self.ARGS + ["--format", "json"], capsys)
        assert first == second

    def test_rate_beyond_float_range(self, capsys):
        """The gamma draws are all 0 at such a rate, so none beats the order statistic."""
        argv = ["race", "--s", str(10**400), "--replicates", "1000", "--format", "json"]
        code, out = run_cli(argv, capsys)
        payload = json.loads(out)
        assert code == 0
        assert (payload["estimate"], payload["verdict"]) == (0.0, "pass")

    @pytest.mark.filterwarnings("error")
    def test_rate_below_float_range(self, capsys):
        """The rate rounds to 0.0, so every gamma draw is inf and beats the order statistic."""
        argv = ["race", "--s", f"1/{10**400}", "--replicates", "1000", "--format", "json"]
        code, out = run_cli(argv, capsys)
        payload = json.loads(out)
        assert code == 0
        assert (payload["estimate"], payload["verdict"]) == (1.0, "pass")


class TestBehaviourAnchors:
    """Stdout of the default commands, pinned by sha256 prefix and byte count."""

    VERIFY_JSON = ("2d0ffff83ac3c35d", 304_729)

    @staticmethod
    def anchor(data: bytes) -> tuple:
        return hashlib.sha256(data).hexdigest()[:16], len(data)

    def test_all_json(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        code, out = run_cli(["all", "--format", "json"], capsys)
        data = out.encode()
        assert code == 0
        assert self.anchor(data) == ("59ba988b747208de", 620_727)
        # all starts with the output of verify at its defaults
        assert self.anchor(data[: self.VERIFY_JSON[1]]) == self.VERIFY_JSON

    def test_all_pretty(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        code, out = run_cli(["all"], capsys)
        assert code == 0
        assert self.anchor(out.encode()) == ("5ada1533eab2d126", 3_955)
        assert out.startswith("identity sweep: 1878 checks, 0 mismatches\n")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["simulate", "--format", "json"], ("63dea10eb13c9c0b", 6_999)),
            (["race", "--format", "json"], ("61d012c5f3b5e351", 191)),
            (["race", "--format", "json", "--chunks", "1000"], ("83db5f0dcb04f24b", 191)),
            # k = 8, 9: representation rows that numpy sums pairwise, not left to right
            (["simulate", "--max-n", "9", "--replicates", "2000", "--format", "json"],
             ("b62264abf70dae09", 14_738)),
        ],
    )
    def test_monte_carlo(self, capsys, monkeypatch, argv, expected):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert self.anchor(out.encode()) == expected

    def test_converge_tables_csv(self, capsys):
        code, out = run_cli(
            ["converge", "--format", "csv", "--targets", "gamma,basel,variance,gumbel"], capsys
        )
        assert code == 0
        assert self.anchor(out.encode()) == ("71d741d451e58a1d", 1_632)

    def test_converge_json(self, capsys):
        """The command the limit_tables benchmark workload times."""
        code, out = run_cli(["converge", "--format", "json"], capsys)
        assert code == 0
        assert self.anchor(out.encode()) == ("ec96d3e36479df1e", 308_999)
