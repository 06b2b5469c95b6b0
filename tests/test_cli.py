"""Command-line interface: parsing, output contracts, exit codes."""

import hashlib
import json
from fractions import Fraction

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

    def test_tail_with_csv_is_usage_error(self, capsys):
        code, _ = run_cli(["converge", "--targets", "tail", "--format", "csv"], capsys)
        assert code == 2


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
