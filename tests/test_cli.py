"""Command-line interface: outputs, schemas, round-trips, exit codes."""

import json
from fractions import Fraction

import pytest

from spinpaths import (InterfaceXXZ, LatticePath, LaurentPoly, Point, SamplerState,
                       sample_paths)
from spinpaths import partition, sampler
from spinpaths.cli import build_parser, main, parse_rational
from spinpaths.sampler import BLOCK


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPartitionCommand:
    def test_interface_json(self, capsys):
        code, out, _ = run(capsys, "partition", "--scheme", "interface", "--to", "2,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "spinpaths/polynomial/1"
        assert LaurentPoly.from_json_obj(payload["terms"]) == \
            LaurentPoly({6: 1, 8: 1, 10: 1})

    def test_rep1_requires_parameters(self, capsys):
        code, _, err = run(capsys, "partition", "--scheme", "rep1", "--to", "1,2")
        assert code == 2
        assert "requires K and L" in err

    def test_round_trip(self, capsys):
        _, out, _ = run(capsys, "partition", "--scheme", "rep1", "-K", "1", "-L", "1",
                        "--to", "1,2")
        payload = json.loads(out)
        assert LaurentPoly.from_json_obj(payload["terms"]) == LaurentPoly({0: 1, 2: 2})


class TestClosedFormCommand:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "closed-form", "-n", "2", "-m", "1")
        assert code == 0
        assert json.loads(out)["terms"] == {"6": "1", "8": "1", "10": "1"}


class TestNormCommand:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "norm", "-L", "1", "-K", "1", "-N", "1")
        assert code == 0
        assert json.loads(out)["terms"] == {"0": "1", "2": "2"}

    def test_wide_chain(self, capsys):
        code, out, _ = run(capsys, "norm", "-K", "99999", "-L", "0", "-N", "1")
        assert code == 0
        assert json.loads(out)["terms"] == {str(2 * x): "1" for x in range(100_000)}


class TestCorrelateCommand:
    def test_probability(self, capsys):
        code, out, _ = run(capsys, "correlate", "--scheme", "interface", "--to", "1,1",
                           "--through", "1,0", "--q", "1/2")
        assert code == 0
        payload = json.loads(out)
        assert payload["probability"]["numerator"] == "4"
        assert payload["probability"]["denominator"] == "5"

    def test_rejects_float_q(self, capsys):
        code, _, err = run(capsys, "correlate", "--scheme", "interface", "--to", "1,1",
                           "--through", "1,0", "--q", "0.5")
        assert code == 2
        assert "p/r" in err


class TestProfileCommand:
    def test_csv_column_order(self, capsys):
        code, out, _ = run(capsys, "profile", "-L", "1", "-K", "1", "-N", "1",
                           "--q", "1/2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "site,numerator,denominator,decimal"
        assert lines[1].startswith("-1,1,6,")
        assert lines[2].startswith("0,2,3,")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "profile", "-L", "1", "-K", "1", "-N", "1",
                           "--q", "1/2", "--format", "json")
        payload = json.loads(out)
        assert payload["schema"] == "spinpaths/profile/1"
        assert payload["sites"][1] == {"site": 0, "numerator": "2",
                                       "denominator": "3",
                                       "decimal": pytest.approx(2 / 3)}


class TestSampleCommand:
    def test_paths_parse_and_summary(self, capsys):
        code, out, err = run(capsys, "sample", "--scheme", "interface", "--to", "2,1",
                             "--q", "1/2", "--seed", "3", "--n", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            path = LatticePath.parse(line)
            assert path.endpoint().i == 2 and path.endpoint().j == 1
        summary = json.loads(err)
        assert summary["schema"] == "spinpaths/sample-summary/1"
        assert summary["n"] == 4 and summary["seed"] == 3

    def test_same_seed_same_paths(self, capsys):
        _, out1, _ = run(capsys, "sample", "--scheme", "interface", "--to", "2,2",
                         "--q", "1/2", "--seed", "12", "--n", "6")
        _, out2, _ = run(capsys, "sample", "--scheme", "interface", "--to", "2,2",
                         "--q", "1/2", "--seed", "12", "--n", "6")
        assert out1 == out2

    @pytest.mark.parametrize("n", [5, BLOCK + 3])
    def test_prints_the_blockwise_batch_draws(self, capsys, n):
        code, out, _ = run(capsys, "sample", "--scheme", "interface", "--to", "2,1",
                           "--q", "1/2", "--seed", "21", "--n", str(n))
        assert code == 0
        state = SamplerState(InterfaceXXZ(), Point(0, 0), Point(2, 1), Fraction(1, 2), 21)
        expected = [path.text() for lo in range(0, n, BLOCK)
                    for path in sample_paths(state, min(BLOCK, n - lo))]
        assert out.splitlines() == expected
        assert len(expected) == n

    def test_summary_counts_distinct_paths(self, capsys):
        code, out, err = run(capsys, "sample", "--scheme", "interface", "--to", "3,3",
                             "--q", "4/5", "--seed", "8", "--n", "300")
        assert code == 0
        assert json.loads(err)["distinct"] == len(set(out.splitlines())) > 1

    def test_negative_count(self, capsys):
        code, out, err = run(capsys, "sample", "--scheme", "interface", "--to", "2,1",
                             "--q", "1/2", "--n", "-3")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "-3" in err

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_out_of_range(self, capsys, seed):
        code, out, err = run(capsys, "sample", "--scheme", "interface", "--to", "2,1",
                             "--q", "1/2", "--seed", str(seed))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and f"seed {seed} " in err


class TestHamiltonianCommand:
    def test_residual_report(self, capsys):
        code, out, _ = run(capsys, "hamiltonian", "-L", "1", "-K", "1", "-N", "1",
                           "--q0", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True and payload["dimension"] == 3
        assert payload["residual"] <= 1e-10

    def test_config_amplitude(self, capsys):
        code, out, _ = run(capsys, "hamiltonian", "-L", "1", "-K", "1",
                           "--config", "100")
        assert code == 0
        payload = json.loads(out)
        assert payload["amplitude"]["terms"] == {"1": "1"}

    def test_bad_config_word(self, capsys):
        code, _, err = run(capsys, "hamiltonian", "-L", "1", "-K", "1",
                           "--config", "10")
        assert code == 2
        assert "length 3" in err


class TestVerifyCommand:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-K", "1", "--max-L", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_hold"] is True
        assert set(payload["summary"]) == {"TF", "ave", "norm-equality", "pf",
                                           "rec1", "rec2"}
        assert all(v["failed"] == 0 for v in payload["summary"].values())

    def test_default_grid_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-K", "3", "--max-L", "3")
        assert code == 0
        assert json.loads(out)["all_hold"] is True

    def test_injected_failure_exits_one(self, capsys, monkeypatch):
        real = partition.rec2_rhs
        monkeypatch.setattr(partition, "rec2_rhs", lambda inst: real(inst) + 1)
        code, out, _ = run(capsys, "verify", "--max-K", "0", "--max-L", "0")
        assert code == 1
        payload = json.loads(out)
        assert payload["all_hold"] is False
        failures = payload["failures"]
        assert {e["identity"] for e in failures} == {"rec2"}
        assert len(failures) == payload["summary"]["rec2"]["checked"]
        for e in failures:
            lhs = LaurentPoly.from_json_obj(e["lhs"]["terms"])
            rhs = LaurentPoly.from_json_obj(e["rhs"]["terms"])
            assert e["lhs"]["schema"] == e["rhs"]["schema"] == "spinpaths/polynomial/1"
            assert rhs == lhs + 1

    def test_full_listing(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-K", "0", "--max-L", "0", "--full")
        assert code == 0
        payload = json.loads(out)
        assert all(e["holds"] for e in payload["entries"])
        rec1 = [e for e in payload["entries"] if e["identity"] == "rec1"]
        assert all(e["parameters"]["reading"] == "fixed-weights" for e in rec1)
        for e in payload["entries"]:
            for side in (e["lhs"], e["rhs"]):
                if e["identity"] == "ave":
                    assert isinstance(side, str)
                else:
                    assert side["schema"] == "spinpaths/polynomial/1"
        assert payload["summary"]["TF"]["checked"] == 1225


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["partition", "--scheme", "interface"])
        assert exc.value.code == 2

    def test_bad_point(self, capsys):
        code, _, err = run(capsys, "partition", "--scheme", "interface",
                           "--to", "north")
        assert code == 2
        assert "point" in err


class TestParserReuse:
    def test_calls_in_a_row_match_calls_alone(self, capsys):
        # the parser is built once per process; append options must not carry over
        requests = [
            ("correlate", "--scheme", "interface", "--to", "2,2", "--through", "1,1",
             "--through", "1,2", "--q", "1/2"),
            ("correlate", "--scheme", "interface", "--to", "2,2", "--q", "1/2"),
            ("verify", "--max-K", "0", "--max-L", "1", "--q", "1/2", "--q", "3/10"),
            ("verify", "--max-K", "0", "--max-L", "1"),
        ]
        alone = {}
        for argv in requests:
            build_parser.cache_clear()
            alone[argv] = run(capsys, *argv)
        assert build_parser() is build_parser()
        for argv in requests + requests[::-1]:
            assert run(capsys, *argv) == alone[argv]


class TestCleanExits:
    @pytest.mark.parametrize("command", ["correlate", "sample"])
    def test_q_zero_with_negative_powers(self, capsys, command):
        # bonds left of the anti-diagonal weigh negative powers of q
        code, out, err = run(capsys, command, "--scheme", "interface", "--from=-2,-2",
                             "--to=2,2", "--q", "0")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "q = 0" in err

    def test_internal_failure_exits_one(self, capsys, monkeypatch):
        real = sampler.backward_table

        def corrupted(scheme, start, end, q0=None):
            table = real(scheme, start, end, q0)
            table.values[start] += 1
            return table

        monkeypatch.setattr(sampler, "backward_table", corrupted)
        code, out, err = run(capsys, "sample", "--scheme", "interface", "--to", "2,1",
                             "--q", "1/2")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: internal identity failed")


class TestParseRational:
    def test_fraction(self):
        assert parse_rational("3/10") == Fraction(3, 10)

    def test_integer(self):
        assert parse_rational("2") == 2

    def test_rejects_decimal(self):
        with pytest.raises(ValueError):
            parse_rational("0.5")

    def test_rejects_exponent(self):
        with pytest.raises(ValueError):
            parse_rational("1e-3")
