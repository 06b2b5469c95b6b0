"""Identity verifiers, binomial inversion, and the batch suite."""

import inspect
import json
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from exporder.exact import Polynomial, RationalFunction, binomial
from exporder.laplace import OrderStatParams, product_form, product_value
from exporder.identities import (
    DEFAULT_MAX_INTEGER_RATE,
    DEFAULT_MAX_N_NESTED,
    DEFAULT_MAX_N_POINTWISE,
    DEFAULT_MAX_N_POWER,
    DEFAULT_S_GRID,
    IdentityReport,
    _cases,
    binomial_invert,
    report_to_json,
    reports_to_json_lines,
    run_suite,
    verify_generalized,
    verify_integer_rate,
    verify_inversion_involution,
    verify_main,
    verify_max_order,
    verify_max_order_value,
    verify_min_order,
    verify_nested,
    verify_square_closed_form,
    verify_square_min_order,
)

F = Fraction


class TestVerifyMain:
    def test_product_expansion_oracle(self):
        rep = verify_main(3, 2)
        assert rep.matched
        expected = RationalFunction(
            Polynomial((6,)), Polynomial((2, 1)) * Polynomial((3, 1))
        )
        assert rep.lhs == rep.rhs == expected

    def test_smallest_case(self):
        rep = verify_main(1, 1)
        assert rep.matched
        assert rep.lhs == RationalFunction(Polynomial((1,)), Polynomial((1, 1)))

    def test_sweep_member(self):
        assert verify_main(12, 7).matched

    def test_bad_params(self):
        with pytest.raises(ValueError):
            verify_main(3, 4)


class TestSpecialCases:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_min_order(self, n):
        rep = verify_min_order(n)
        assert rep.matched
        assert rep.rhs == RationalFunction(Polynomial((n,)), Polynomial((n, 1)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_max_order_structural(self, n):
        assert verify_max_order(n).matched

    def test_max_order_pointwise_big_n(self):
        for s in (F(1, 3), F(7, 2)):
            rep = verify_max_order_value(30, s)
            assert rep.matched

    @pytest.mark.parametrize("s", [F(0), F(-1, 2)])
    def test_max_order_value_nonpositive_s_rejected(self, s):
        with pytest.raises(ValueError):
            verify_max_order_value(3, s)


class TestIntegerRate:
    def test_hand_values(self):
        rep = verify_integer_rate(2, 1)
        assert rep.matched and rep.lhs == F(1, 3)
        rep = verify_integer_rate(2, 2)
        # 1 - 4/3 + 1/2 = 1/6 = 1/C(4,2)
        assert rep.matched and rep.lhs == F(1, 6)

    def test_big_integer_sweep_member(self):
        rep = verify_integer_rate(15, 15)
        assert rep.matched
        assert rep.lhs == F(1, 155117520)
        assert rep.rhs == F(1, binomial(30, 15))

    def test_bad_params(self):
        with pytest.raises(ValueError):
            verify_integer_rate(0, 1)


class TestNested:
    def test_hand_computation(self):
        rep = verify_nested(2, 1, F(1))
        # 1/3 + 1/3
        assert rep.matched and rep.lhs == F(2, 3)

    def test_single_term(self):
        rep = verify_nested(1, 1, F(1))
        assert rep.matched and rep.lhs == F(1, 2)

    def test_sweep_member(self):
        assert verify_nested(8, 5, F(7, 2)).matched

    def test_nonpositive_s_rejected(self):
        for s in (F(0), F(-1, 2)):
            with pytest.raises(ValueError):
                verify_nested(2, 1, s)

    @pytest.mark.parametrize("n", range(1, DEFAULT_MAX_N_NESTED + 1))
    def test_left_side_matches_the_fraction_double_loop(self, n):
        def double_loop(n, k, s):
            total = F(0)
            for m in range(k, n + 1):
                term = binomial(n, m) * s / (s + n - m)
                for i in range(1, m + 1):
                    term *= F(i) / (s + n - m + i)
                total += term
            return total

        for k in range(1, n + 1):
            for s in (*DEFAULT_S_GRID, F(1, 100), F(13, 7), F(10**6)):
                rep = verify_nested(n, k, s)
                assert rep.matched
                assert rep.lhs == double_loop(n, k, s)


class TestGeneralized:
    def test_hand_value(self):
        rep = verify_generalized(1, 1, 2, F(1))
        assert rep.matched and rep.lhs == F(3, 4)

    def test_square_closed_form_max_order(self):
        rep = verify_square_closed_form(3, 3, F(1))
        # product(1/2)(2/3)(3/4) times 1 + 1/2 + 1/3 + 1/4
        assert rep.matched and rep.lhs == F(1, 4) * F(25, 12) == F(25, 48)

    def test_square_min_order_value(self):
        rep = verify_square_min_order(2, F(1))
        assert rep.matched and rep.lhs == F(8, 9)

    def test_r1_matches_main_value(self):
        for n, k in [(3, 2), (5, 5), (4, 1)]:
            s = F(7, 2)
            rep = verify_generalized(n, k, 1, s)
            main = verify_main(n, k)
            assert rep.lhs == main.lhs.evaluate(s)


class TestBinomialInvert:
    def test_constant_sequence_annihilated(self):
        assert binomial_invert([1, 1, 1, 1, 1]) == (1, 0, 0, 0, 0)

    def test_harmonic_shift(self):
        a = [F(1, 1 + j) for j in range(4)]
        assert binomial_invert(a) == (F(1), F(1, 2), F(1, 3), F(1, 4))

    def test_involution_on_random_sequences(self):
        rng = random.Random(86420)
        for _ in range(25):
            a = tuple(F(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(8))
            assert binomial_invert(binomial_invert(a)) == a

    def test_involution_report(self):
        rep = verify_inversion_involution([F(1, 2), F(2, 3), F(5)])
        assert rep.matched

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            binomial_invert([])

    def test_transform_of_geometric_ratio_terms(self):
        """Inverting j -> s/(s+j) yields the running products prod j/(s+j)."""
        for s in (F(1), F(7, 2), F(1, 3)):
            a = [s / (s + j) for j in range(9)]
            b = binomial_invert(a)
            running = F(1)
            for n in range(9):
                if n:
                    running *= F(n) / (s + n)
                assert b[n] == running


def report_key(report):
    """The documented report order: identity id, then n, k (or k_s), r, s, index."""
    p = report.params
    return (
        report.identity_id, p.get("n", 0), p.get("k", p.get("k_s", 0)), p.get("r", 0),
        p.get("s", 0), p.get("index", 0),
    )


class TestRunSuite:
    def test_small_exhaustive_run(self):
        reports = run_suite(3, 2, (F(1),))
        assert reports
        assert all(r.matched for r in reports)

    def test_grid_membership_min_run(self):
        reports = run_suite(1, 1, (F(1),))
        main = [r for r in reports if r.identity_id == "product_vs_double_sum"]
        assert len(main) == 1
        assert main[0].params == {"n": 1, "k": 1}
        # max_n and max_r bound only their own sweeps; the rest keep the fixed ceilings
        counts = Counter(r.identity_id for r in reports)
        assert counts == {
            "product_vs_double_sum": 1,
            "double_sum_min_order": 1,
            "double_sum_max_order": 1 + DEFAULT_MAX_N_POINTWISE,
            "integer_rate_reciprocal_binomial": DEFAULT_MAX_INTEGER_RATE**2,
            "nested_product_sum": DEFAULT_MAX_N_NESTED * (DEFAULT_MAX_N_NESTED + 1) // 2,
            "power_sum_vs_derivative_sum": DEFAULT_MAX_N_POWER * (DEFAULT_MAX_N_POWER + 1) // 2,
            "inversion_involution": 3,
        }

    def test_deterministic_ordering(self):
        r1 = run_suite(2, 2, (F(1), F(1, 2)))
        r2 = run_suite(2, 2, (F(1), F(1, 2)))
        assert [(a.identity_id, a.params) for a in r1] == [
            (b.identity_id, b.params) for b in r2
        ]
        keys = [(a.identity_id, a.params.get("n", 0)) for a in r1]
        assert keys == sorted(keys)

    def test_unsorted_grid_reports_in_ascending_s(self):
        reports = run_suite(2, 2, (F(2), F(1, 3), F(1), F(1, 2), F(1)))
        keys = [report_key(r) for r in reports]
        assert keys == sorted(keys)
        assert [r.params["s"] for r in reports if r.identity_id == "nested_product_sum"][:5] == [
            F(1, 3), F(1, 2), F(1), F(1), F(2)
        ]

    def test_full_default_sweep_zero_mismatches(self):
        reports = run_suite(12, 4)
        assert len(reports) > 1500
        assert sum(1 for r in reports if not r.matched) == 0

    def test_errors_become_mismatch_reports(self):
        from exporder.identities import _run_case

        def boom(n, k):
            raise RuntimeError("injected failure")

        rep = _run_case(boom, "product_vs_double_sum", {"n": 1, "k": 1})
        assert rep.verdict == "mismatch"
        assert "injected failure" in rep.params["error"]

    def test_bad_max_n(self):
        with pytest.raises(ValueError):
            run_suite(0, 1, (F(1),))

    def test_planted_coefficient_fault_reaches_every_double_sum(self, monkeypatch):
        # every double sum is built from laplace._signed_coefficients, so a
        # wrong A_0 must show in each family that uses one, and nowhere else
        import exporder.laplace as laplace

        signed_coefficients = laplace._signed_coefficients

        def faulty(p):
            coeff = signed_coefficients(p)
            coeff[0] += 1
            return coeff

        monkeypatch.setattr(laplace, "_signed_coefficients", faulty)
        reports = run_suite(4, 2, (F(1),))
        failed = {(r.identity_id, "s" in r.params) for r in reports if not r.matched}
        assert failed == {
            ("product_vs_double_sum", False),
            ("double_sum_min_order", False),
            ("double_sum_max_order", False),
            ("double_sum_max_order", True),
            ("integer_rate_reciprocal_binomial", False),
            ("power_sum_vs_derivative_sum", True),
            ("square_power_min_order", True),
        }

    def test_planted_product_fault_is_seen_against_the_structural_form(self, monkeypatch):
        # laplace.product_value is the value side of the max-order family, the
        # left side of the nested family and the first term of
        # erlang_weighted_sum, so a wrong product must fail all three.
        # square_power_closed_form's left side is erlang_weighted_sum; the
        # nested and square right sides evaluate the structural product_form,
        # so the fault shows in both.  Were either right side product_value as
        # well, the fault would scale both sides alike and that family would
        # pass it.
        import exporder.identities as identities
        import exporder.laplace as laplace

        product_value = laplace.product_value

        def faulty(p, s):
            return product_value(p, s) * F(1001, 1000)

        monkeypatch.setattr(laplace, "product_value", faulty)
        monkeypatch.setattr(identities, "product_value", faulty)
        reports = run_suite(4, 2, (F(1),))
        failed = [(r.identity_id, "s" in r.params) for r in reports if not r.matched]
        assert set(failed) == {
            ("double_sum_max_order", True),
            ("nested_product_sum", True),
            ("power_sum_vs_derivative_sum", True),
            ("square_power_closed_form", True),
        }
        # every report of those four: one per max-order n, one per nested
        # (n, k) cell, and per power (n, k) cell two power sums (r = 1, 2) and
        # one square
        nested = sum(range(1, DEFAULT_MAX_N_NESTED + 1))
        cells = sum(range(1, DEFAULT_MAX_N_POWER + 1))
        assert len(failed) == DEFAULT_MAX_N_POINTWISE + nested + 2 * cells + cells


class TestOneNormalization:
    """The integer-accumulated sides are the Fraction sums they replace."""

    @pytest.mark.parametrize("n", range(1, DEFAULT_MAX_N_POWER + 1))
    def test_nested_and_square_sides_match_the_fraction_sums(self, n):
        for k in range(1, n + 1):
            p = OrderStatParams(n, k)
            for s in (*DEFAULT_S_GRID, F(1, 100), F(13, 7), F(10**6)):
                nested = verify_nested(n, k, s)
                assert nested.lhs == sum(
                    binomial(n, m) * s / (s + n - m) * product_value(OrderStatParams(m, m), s + n - m)
                    for m in range(k, n + 1)
                )
                square = verify_square_closed_form(n, k, s)
                bracket = 1 + sum(s / (s + j) for j in p.rates)
                assert square.rhs == product_form(p).evaluate(s) * bracket
                assert nested.matched and square.matched

    def test_square_min_order_side_matches_the_fraction_form(self):
        for n in range(1, 13):
            for s in (*DEFAULT_S_GRID, F(1, 100), F(10**6)):
                assert verify_square_min_order(n, s).rhs == F(n) * (n + 2 * s) / (s + n) ** 2

    def test_default_sweep_never_runs_euclid(self, monkeypatch):
        import exporder.exact as exact

        calls = []
        poly_gcd = exact.poly_gcd

        def counted(p, q):
            calls.append((p, q))
            return poly_gcd(p, q)

        monkeypatch.setattr(exact, "poly_gcd", counted)
        RationalFunction(Polynomial((1, 1)), Polynomial((1, 2, 1)))
        assert len(calls) == 1  # the general constructor is counted
        calls.clear()
        reports = run_suite(12, 4)
        assert len(reports) == 1878 and all(r.matched for r in reports)
        assert calls == []

    @pytest.mark.parametrize(
        "check, args",
        [
            (verify_nested, (3, 2)),
            (verify_square_closed_form, (3, 2)),
            (verify_square_min_order, (3,)),
            (verify_max_order_value, (3,)),
            (lambda n, k, s: verify_generalized(n, k, 2, s), (3, 2)),
        ],
    )
    @pytest.mark.parametrize("s", [0.5, True, "1/2"])
    def test_only_exact_points(self, check, args, s):
        with pytest.raises(TypeError):
            check(*args, s)

    def test_only_exact_grids(self):
        with pytest.raises(TypeError):
            run_suite(2, 1, (0.5,))


class TestReportOrder:
    @pytest.mark.parametrize("max_n, max_r", [(DEFAULT_MAX_N_POINTWISE + 1, 1), (12, 4)])
    def test_reports_come_out_sorted(self, max_n, max_r):
        # a structural max-order report has no s, so it leads the value reports of its n
        reports = run_suite(max_n, max_r)
        assert [report_key(r) for r in reports] == sorted(report_key(r) for r in reports)
        max_order_n = [r.params["n"] for r in reports if r.identity_id == "double_sum_max_order"]
        assert max_order_n[-1] == max(max_n, DEFAULT_MAX_N_POINTWISE)
        if max_r < 2:
            assert not {r.identity_id for r in reports} & {
                "square_power_closed_form", "square_power_min_order"
            }

    def test_every_case_binds_its_params_positionally(self):
        for check, _, params, *args in _cases(DEFAULT_MAX_N_POINTWISE + 1, 4, DEFAULT_S_GRID):
            bound = inspect.signature(check).bind(*(args or params.values())).arguments
            if args:
                assert (len(bound["a"]), bound["index"]) == (params["length"], params["index"])
            else:
                assert bound == params


class TestSerialization:
    def test_rational_sides_as_fraction_strings(self):
        rep = verify_generalized(3, 2, 2, F(1))
        payload = json.loads(report_to_json(rep))
        assert payload["lhs"] == "19/24"
        assert payload["rhs"] == "19/24"
        assert payload["verdict"] == "exact_match"
        assert payload["params"]["s"] == "1"
        assert set(payload) == {"identity_id", "params", "lhs", "rhs", "verdict"}

    def test_structural_sides_as_coefficient_lists(self):
        rep = verify_main(3, 2)
        payload = json.loads(report_to_json(rep))
        assert payload["lhs"] == {"numer": [6], "denom": [6, 5, 1]}

    def test_mismatch_keeps_both_sides(self):
        fake = IdentityReport(
            "product_vs_double_sum",
            {"n": 2, "k": 1},
            RationalFunction(Polynomial((2,)), Polynomial((2, 1))),
            RationalFunction(Polynomial((3,)), Polynomial((2, 1))),
            "mismatch",
        )
        payload = json.loads(report_to_json(fake))
        assert payload["lhs"]["numer"] == [2]
        assert payload["rhs"]["numer"] == [3]

    def test_json_lines_shape(self):
        text = reports_to_json_lines([verify_main(1, 1), verify_min_order(2)])
        lines = text.strip().split("\n")
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_equals_the_side_by_side_payload(self):
        """The template writes every report as the hand-built payload did, byte for byte."""
        reports = run_suite(12, 4)
        reports.append(
            IdentityReport(
                "inversion_involution",
                {"length": 2, "index": 0, "error": "ZeroDivisionError: division by zero"},
                (F(1, 3), F(-2)),
                (F(0),),
                "mismatch",
            )
        )
        assert [report_to_json(r) for r in reports] == [old_report_to_json(r) for r in reports]

    def test_template_writes_what_the_json_encoder_writes(self):
        def encoder_json(report):
            def hook(value):
                if isinstance(value, RationalFunction):
                    return {"numer": list(value.numer.coeffs), "denom": list(value.denom.coeffs)}
                return str(value)

            return json.dumps(vars(report), sort_keys=True, default=hook)

        zero = RationalFunction(Polynomial(), Polynomial((1,)))
        negative = RationalFunction(Polynomial((-3, 0, 2)), Polynomial((5, 1)))
        reports = [
            IdentityReport("a\"b\u00e9\n", {"z": 1, "a": F(-7, 3), "m": 10**40}, zero, negative, "mismatch"),
            IdentityReport("flag", {"b": True, "c": False}, F(0), F(-1, 2), "exact_match"),
            IdentityReport("keys", {"\u00e9": 2, 'q"': F(1, 2)}, F(1), F(1), "exact_match"),
            IdentityReport("error", {"n": 1, "error": "ValueError: \"x\""}, F(0), F(0), "mismatch"),
            IdentityReport("tuple", {}, (F(1, 3), F(-2)), (F(0),), "mismatch"),
            IdentityReport("empty", {"length": 0}, (), (), "exact_match"),
            IdentityReport("big", {"s": F(10**30, 7)}, F(-(10**50), 3), negative, "mismatch"),
        ]
        for r in reports:
            assert report_to_json(r) == encoder_json(r)
        assert reports_to_json_lines(reports) == "".join(encoder_json(r) + "\n" for r in reports)
        assert reports_to_json_lines([]) == "\n"

    @pytest.mark.parametrize("side", [0.5, 1, Decimal("0.5"), 1j, [F(1)], None])
    @pytest.mark.parametrize("which", ["lhs", "rhs"])
    def test_side_outside_side_types_rejected(self, side, which):
        rep = verify_generalized(2, 1, 1, F(1))
        setattr(rep, which, side)
        with pytest.raises(TypeError):
            report_to_json(rep)

    @pytest.mark.parametrize("value", [0.5, None, [1], Decimal("0.5")])
    def test_param_outside_param_types_rejected(self, value):
        rep = verify_generalized(2, 1, 1, F(1))
        rep.params["x"] = value
        with pytest.raises(TypeError, match=type(value).__name__):
            report_to_json(rep)

    def test_other_value_in_a_tuple_side_rejected(self):
        rep = verify_inversion_involution((F(1), F(2)))
        rep.lhs = (F(1), Decimal("2"))
        with pytest.raises(TypeError, match="Decimal"):
            report_to_json(rep)


def old_serialize_side(side):
    """A report side as the encoder wrote it before json's own hook did the job."""
    if isinstance(side, RationalFunction):
        return {"numer": list(side.numer.coeffs), "denom": list(side.denom.coeffs)}
    if isinstance(side, tuple):
        return [str(x) for x in side]
    return str(side)


def old_report_to_json(report):
    payload = {
        "identity_id": report.identity_id,
        "params": {key: str(v) if isinstance(v, F) else v for key, v in report.params.items()},
        "lhs": old_serialize_side(report.lhs),
        "rhs": old_serialize_side(report.rhs),
        "verdict": report.verdict,
    }
    return json.dumps(payload, sort_keys=True)
