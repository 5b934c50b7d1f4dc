"""Command-line interface: outputs, schemas, round-trips, exit codes."""

import contextlib
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import spinpaths
from spinpaths import (CorrelationQuery, InterfaceXXZ, LatticePath, LaurentPoly, PinnedInstance,
                       PinnedRep2, Point, SamplerState, conditioned_partition, sample_paths)
from spinpaths import correlations, partition, spin
from spinpaths.cli import _emit, _poly, build_parser, main, parse_rational
from spinpaths.partition import _report_entry, identity_suite
from spinpaths.sampler import BLOCK
from sweep_reference import reference_json, reference_text, rendered


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

    def test_negative_start_joined_by_equals(self, capsys):
        # a separate '-3,-4' reads as an option, so such a point is written --from=-3,-4
        code, out, _ = run(capsys, "partition", "--scheme", "rep2", "--from=-3,-4", "--to", "1,1")
        assert code == 0
        assert LaurentPoly.from_json_obj(json.loads(out)["terms"]) == \
            partition.partition_dp(PinnedRep2(), Point(-3, -4), Point(1, 1))

    def test_rep1_requires_parameters(self, capsys):
        code, _, err = run(capsys, "partition", "--scheme", "rep1", "--to", "1,2")
        assert code == 2
        assert "requires K and L" in err

    # a column has no horizontal bond, so no exponent is asked, however tall
    def test_rep1_column_past_its_domain(self, capsys):
        code, out, err = run(capsys, "partition", "--scheme", "rep1", "-K", "1", "-L", "1",
                             "--to", "0,9", "--format", "text")
        assert (code, out, err) == (0, "1\n", "")

    def test_rep1_horizontal_bond_past_its_domain(self, capsys):
        code, out, err = run(capsys, "partition", "--scheme", "rep1", "-K", "1", "-L", "1",
                             "--to", "1,9")
        assert (code, out, err) == (2, "", "error: bond at radius 4 exceeds K+L+1 = 3\n")

    @pytest.mark.parametrize("argv", [
        ("partition", "--scheme", "interface", "-K", "3", "--to", "1,1"),
        ("partition", "--scheme", "rep2", "-L", "3", "--to", "1,1"),
        ("correlate", "--scheme", "interface", "-K", "3", "-L", "1", "--to", "1,1"),
        ("sample", "--scheme", "rep2", "-K", "3", "--to", "1,1", "--q", "1/2"),
    ])
    def test_extents_only_for_rep1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: scheme '{argv[2]}' takes no K or L\n"

    def test_round_trip(self, capsys):
        _, out, _ = run(capsys, "partition", "--scheme", "rep1", "-K", "1", "-L", "1",
                        "--to", "1,2")
        payload = json.loads(out)
        assert LaurentPoly.from_json_obj(payload["terms"]) == LaurentPoly({0: 1, 2: 2})


# sweeps past the Hypothesis rectangles, each pinned to its stdout's sha256: a
# table swept by another path or encoded another way must print the same bytes
@pytest.mark.parametrize("argv, digest", [
    ("partition --scheme interface --from=-3,2 --to 37,42",
     "20fe4523d33bcf9ce6d4cf350c2c10211afefc0af28d549f3a9323dbad9da183"),
    ("partition --scheme rep2 --to 400,1",
     "b4bef5a0fe2ec01dc6f41d8b2edd9ebea99fba7f39d5d36e1ee48f9fd6362d26"),
    ("partition --scheme rep1 -K 20 -L 20 --to 20,21",
     "d8e968bcc269a9f6db4e6ae4faeda0e869b7a140cee820a651f8383038cc5571"),
    ("profile -K 30 -L 30 -N 30 --q 3/10",
     "3b0fcbc44e190d3717d9430cbc856277e7b72d95d8cb9a3f7d2f09a9a94e0538"),
    ("sample --scheme rep2 --from=-10,-10 --to 10,10 --q 4/5 --seed 7 --n 200",
     "131868ee9b492670f180e2e49885be1e9b799f0676a123c308c518bfb0971fa2"),
], ids=["interface-40x40", "rep2-400x1", "rep1-20x21", "profile-30", "sample-rep2-20x20"])
def test_large_sweeps_print_the_same_bytes(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# one request per output shape the streaming writer prints, each pinned to the
# sha256 of its stdout as json.dumps(..., indent=2) printed it
@pytest.mark.parametrize("argv, digest", [
    ("correlate --scheme interface --from=-2,-1 --to 5,6 --through 1,2 --q 3/10",
     "c0e9a1f84bd91ed1601e5d324b7c2bb7698246ac4d401dc2547e7757a5be80f5"),
    ("profile -K 6 -L 5 -N 6 --q 1/2 --format json",
     "cbcb082281cf44a9491b5387e4624e97d5ee7b4a7f6045304ea72fdaea1db386"),
    ("hamiltonian -K 3 -L 2 --config 101100",
     "ac87066290c5df056ddb56195037dffcdce60e6cddc3136c8a6f2510d5eb1bdf"),
    ("closed-form -n 8 -m 7",
     "e428f58544de6f6c56ae4b5b188800f775a437f8e27534e8003fbcd6ed03efe1"),
    ("norm -K 5 -L 4 -N 5",
     "5b3de2691761fbff44ff735ed5cba2f39cf22412437a1218d12d10e4538f3609"),
    ("partition --scheme rep2 --from=-4,-3 --to 5,6 --format text",
     "5c6d9ad66752b0a21adddaf9217f7f2d942c9b1342944a1eba1fad61b5bfd7c2"),
], ids=["correlate-q", "profile-json", "hamiltonian-config", "closed-form", "norm",
        "partition-text"])
def test_output_shapes_print_the_same_bytes(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_residual_prints_as_the_indented_dump(capsys):
    # the residual is a LAPACK float, so its bytes are checked by shape, not by hash
    code, out, _ = run(capsys, "hamiltonian", "-K", "2", "-L", "2", "-N", "2", "--q0", "0.5")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# polynomials with coefficients of both signs, of magnitude 1 at exponents -1, 0
# and 1, and past the interpreter's 4 300-digit limit on int/str conversion; the
# same ints are leaves too
coefficients = st.one_of(st.sampled_from([1, -1]), st.integers(-10**6, 10**6).filter(bool),
                         st.builds(lambda sign, k: sign * (10**4400 + k),
                                   st.sampled_from([1, -1]), st.integers(0, 10**6)))
polys = st.builds(LaurentPoly, st.dictionaries(st.integers(-4, 4), coefficients, max_size=5))
leaves = st.one_of(polys, st.text(max_size=6), st.integers(), coefficients, st.floats(),
                   st.booleans(), st.none(), st.fractions(), st.just({}), st.just([]))
payloads = st.recursive(leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)


@contextlib.contextmanager
def no_digit_limit():
    """Lift the int/str digit limit, as the CLI does while a command runs."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int/str digit limit")
class TestStreamingWriter:
    @staticmethod
    def emitted(obj, poly=_poly):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _emit(obj, poly)
        return out.getvalue()

    @settings(max_examples=300, deadline=None)
    @given(payloads)
    @example(LaurentPoly())
    @example({"x": [LaurentPoly({-1: -1, 0: 1, 1: -1})], "y": {"z": [[LaurentPoly({1: 1})]]}})
    @example([float("nan"), float("inf"), -float("inf"), {}, [], None, True])
    def test_matches_the_indented_dump(self, payload):
        with no_digit_limit():
            want = reference_json(payload) + "\n"
            assert self.emitted(payload) == want
            assert self.emitted(payload, functools.cache(_poly)) == want

    @settings(max_examples=200, deadline=None)
    @given(polys)
    def test_text_form_is_the_json_text(self, p):
        # --format text prints str(p); JSON carries the same string in "text"
        with no_digit_limit():
            assert str(p) == reference_text(p) == json.loads(self.emitted(p))["text"]


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

    def test_wide_balanced_sector(self, capsys):
        # 705 432 configurations, which the norm never enumerates
        code, out, _ = run(capsys, "norm", "-K", "21", "-L", "0", "-N", "11")
        assert code == 0
        assert LaurentPoly.from_json_obj(json.loads(out)["terms"]) == \
            partition.pinned_rep1(PinnedInstance(K=21, L=0, N=11))

    def test_limit_counts_additions(self, capsys, monkeypatch):
        # 10^5 sites x 2 held spins x up to 10^5 + 1 exponents per addition
        def refuse(*args):
            raise AssertionError("the pass started past the guard")

        monkeypatch.setattr(spin, "add", refuse)
        code, out, err = run(capsys, "norm", "-K", "99999", "-L", "0", "-N", "2")
        assert (code, out) == (2, "")
        assert err == "error: 20000000000 additions exceeds 100000000\n"


class TestCorrelateCommand:
    def test_probability(self, capsys):
        code, out, _ = run(capsys, "correlate", "--scheme", "interface", "--to", "1,1",
                           "--through", "1,0", "--q", "1/2")
        assert code == 0
        payload = json.loads(out)
        assert payload["probability"]["numerator"] == "4"
        assert payload["probability"]["denominator"] == "5"

    def test_negative_points_joined_by_equals(self, capsys):
        # a separate '-2,-2' reads as an option, so such a point is written --from=-2,-2
        code, out, _ = run(capsys, "correlate", "--scheme", "interface", "--from=-2,-2",
                           "--to", "1,1", "--through=-1,0", "--q", "1/2")
        assert code == 0
        want = conditioned_partition(CorrelationQuery(InterfaceXXZ(), Point(-2, -2),
                                                      Point(1, 1), (Point(-1, 0),)))
        assert LaurentPoly.from_json_obj(json.loads(out)["conditioned"]["terms"]) == want

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

    def test_cells_of_zero_weight_are_never_entered(self, capsys):
        # at q = 0 a rep2 path weighs 1 only if its one H step ends on the
        # diagonal 0, so the cell (-1,1), whose H step ends on diagonal 1, has Z = 0
        code, out, _ = run(capsys, "sample", "--scheme", "rep2", "--from=-1,-1", "--to", "0,1",
                           "--q", "0", "--n", "5")
        assert code == 0 and out == "(-1,-1):VHV\n" * 5

    @pytest.mark.parametrize("argv, code, out, err", [
        (("--from=2,3", "--to", "2,3", "--n", "2"), 0, "(2,3):\n(2,3):\n",
         '{"schema": "spinpaths/sample-summary/1", "n": 2, "seed": 0, "scheme": "interface", '
         '"q": "1/2", "distinct": 1}\n'),
        (("--to", "3,3", "--n", "0"), 0, "",
         '{"schema": "spinpaths/sample-summary/1", "n": 0, "seed": 0, "scheme": "interface", '
         '"q": "1/2", "distinct": 0}\n'),
        (("--to", "3,3", "--n", "-1"), 2, "", "error: sample count -1 is negative\n"),
    ], ids=["start-is-end", "zero-count", "negative-count"])
    def test_edge_counts_print_these_bytes(self, capsys, argv, code, out, err):
        assert run(capsys, "sample", "--scheme", "interface", "--q", "1/2", *argv) == (code, out, err)

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


def reference_identity_suite(max_k, max_l, q_values):
    """identity_suite computed entry by entry through the public slow paths:
    each check sweeps its own tables."""
    entries = []
    for K in range(max_k + 1):
        for L in range(max_l + 1):
            for N in range(K + L + 2):
                inst = PinnedInstance(K=K, L=L, N=N)
                params = {"K": K, "L": L, "N": N, "M": inst.M}
                nsq = spin.norm_squared(L, K, N)
                rep1 = partition.pinned_rep1(inst)
                rep2 = partition.pinned_rep2(inst)
                entries.append(_report_entry(
                    "norm-equality", params, nsq == rep1 == rep2, nsq, rep1))
                conv = partition.pinned_via_convolution(inst)
                entries.append(_report_entry("pf", params, rep2 == conv, rep2, conv))
                rec2 = partition.rec2_rhs(inst)
                entries.append(_report_entry("rec2", params, rep2 == rec2, rep2, rec2))
                if N >= 1 and inst.M >= 1:
                    readings = partition.rec1_readings(inst)
                    lhs1, rhs1 = partition.rec1_sides(inst)
                    entries.append(_report_entry(
                        "rec1", {**params, "reading": "fixed-weights",
                                 "alternative_readings": {
                                     k: readings[k] for k in
                                     ("reinstanced_shrink_K", "reinstanced_shrink_L")}},
                        lhs1 == rhs1, lhs1, rhs1))
                for q0 in q_values:
                    report = partition.verify_average_representation(inst, q0)
                    entries.append(_report_entry(
                        "ave", report["parameters"], report["holds"],
                        report["lhs"], report["rhs"]))
    pts = [Point(i, j) for i in range(-2, 3) for j in range(-2, 3)]
    for start in pts:
        for end in pts:
            if not end.dominates(start):
                continue
            direct = partition.partition_dp(InterfaceXXZ(), start, end)
            for ref in pts:
                if not (ref.i <= start.i and ref.j <= start.j):
                    continue
                translated = partition.translated_interface(start, end, ref)
                entries.append(_report_entry(
                    "TF", {"I": str(start), "F": str(end), "P": str(ref)},
                    direct == translated, direct, translated))
    return entries


class TestIdentitySuite:
    Q_VALUES = [Fraction(3, 10), Fraction(1, 2), Fraction(4, 5)]

    @pytest.mark.parametrize("max_k", range(3))
    @pytest.mark.parametrize("max_l", range(3))
    def test_matches_the_slow_path(self, max_k, max_l):
        fast = [rendered(e) for e in identity_suite(max_k, max_l, self.Q_VALUES)]
        slow = [rendered(e) for e in reference_identity_suite(max_k, max_l, self.Q_VALUES)]
        assert fast == slow

    def test_sweeps_each_distinct_table_once(self, monkeypatch):
        calls = []
        real = partition._sweep

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(partition, "_sweep", counted)
        identity_suite(1, 1, [Fraction(1, 2)])
        instances = [PinnedInstance(K=K, L=L, N=N)
                     for K in range(2) for L in range(2) for N in range(K + L + 2)]
        # 50 translation tables, then per instance one rep1 and one rep2 table;
        # the slow path sweeps over 1 450 tables here
        assert len(calls) <= 50 + 2 * len(instances)

    @pytest.mark.parametrize("max_k, max_l, q_values, message", [
        (-1, 0, [Fraction(1, 2)], "max_K and max_L must be nonnegative, got -1 and 0"),
        (0, -2, [Fraction(1, 2)], "max_K and max_L must be nonnegative, got 0 and -2"),
        (1, 1, [Fraction(3, 2)], "q0 must lie in (0, 1)"),
        (1, 1, [Fraction(1, 2), Fraction(0)], "q0 must lie in (0, 1)"),
    ])
    def test_refuses_its_input_before_any_sweep(self, monkeypatch, max_k, max_l, q_values,
                                                message):
        def refused(*args):
            raise AssertionError("swept a table before checking the input")

        monkeypatch.setattr(partition, "_sweep", refused)
        with pytest.raises(ValueError) as exc:
            identity_suite(max_k, max_l, q_values)
        assert str(exc.value) == message


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

    def test_grid_past_enumeration_passes(self, capsys):
        # sectors up to C(21, 10) = 352 716 configurations, none enumerated
        code, out, _ = run(capsys, "verify", "--max-K", "10", "--max-L", "10")
        assert code == 0
        assert json.loads(out)["all_hold"] is True

    def test_injected_failure_exits_one(self, capsys, monkeypatch):
        real = partition._convolution
        monkeypatch.setattr(partition, "_convolution", lambda *args: real(*args) + 1)
        code, out, _ = run(capsys, "verify", "--max-K", "0", "--max-L", "0")
        assert code == 1
        payload = json.loads(out)
        assert payload["all_hold"] is False
        failures = payload["failures"]
        assert {e["identity"] for e in failures} == {"pf", "rec2"}
        summary = payload["summary"]
        assert len(failures) == summary["pf"]["checked"] + summary["rec2"]["checked"]
        for e in failures:
            lhs = LaurentPoly.from_json_obj(e["lhs"]["terms"])
            rhs = LaurentPoly.from_json_obj(e["rhs"]["terms"])
            assert e["lhs"]["schema"] == e["rhs"]["schema"] == "spinpaths/polynomial/1"
            assert rhs == lhs + 1

    def test_injected_failure_report_bytes(self, capsys, monkeypatch):
        # the failures list: polynomial sides at depth 2, beside ave's string sides
        real = partition._convolution
        monkeypatch.setattr(partition, "_convolution", lambda *args: real(*args) + 1)
        code, out, _ = run(capsys, "verify", "--max-K", "1", "--max-L", "1")
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "a4f2fc4e394a45edb2f3c6ac98b6f1b82b3642ece5322015cba2e3c8fcbeb1e4"

    @pytest.mark.parametrize("perturb", [lambda z: 2 * z, lambda z: LaurentPoly.q_power(1) * z],
                             ids=["shape", "valuation"])
    def test_failing_translation_checks(self, capsys, monkeypatch, perturb):
        # one shifted table, the one from (1, 2), reads every cell perturbed
        shifted_start = Point(1, 2)
        real = partition.forward_table

        def perturbed(scheme, start, end, q0=None):
            table = real(scheme, start, end, q0)
            if (start, end) == (shifted_start, Point(4, 4)):
                decode = table._decode
                table._decode = lambda n, a: perturb(decode(n, a))
            return table

        monkeypatch.setattr(partition, "forward_table", perturbed)
        entries = [e for e in identity_suite(1, 0, [Fraction(1, 2)]) if e["identity"] == "TF"]
        named = {str(Point(i, j)): Point(i, j) for i in range(-2, 3) for j in range(-2, 3)}
        failing = []
        for e in entries:
            start, end, ref = (named[e["parameters"][k]] for k in "IFP")
            shifted = Point(start.i - ref.i, start.j - ref.j)
            assert e["holds"] is (shifted != shifted_start), e["parameters"]
            if shifted == shifted_start:
                failing.append(e)
                # the sides by the enumeration oracle, which reads no table
                z = partition.partition_bruteforce(InterfaceXXZ(), shifted,
                                                   Point(end.i - ref.i, end.j - ref.j))
                k = 2 * (ref.i + ref.j) * (end.i - start.i)
                assert e["rhs"] == LaurentPoly.q_power(k) * perturb(z)
                assert e["lhs"] == partition.partition_bruteforce(InterfaceXXZ(), start, end)
        assert failing
        code, out, _ = run(capsys, "verify", "--max-K", "1", "--max-L", "0")
        assert code == 1
        payload = json.loads(out)
        assert payload["all_hold"] is False
        assert {e["identity"] for e in payload["failures"]} == {"TF"}
        assert len(payload["failures"]) == payload["summary"]["TF"]["failed"] == len(failing)

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

    def test_full_report_bytes(self, capsys):
        # the report is exact and deterministic: any reordered or re-rendered entry shows
        code, out, _ = run(capsys, "verify", "--max-K", "2", "--max-L", "2", "--full")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "0ee7df4a373f7f8e8bb58d645989310cd819800738e5222dae6291684dcc4b7c"

    @pytest.mark.parametrize("argv, digest", [
        (("--max-K", "5", "--max-L", "5", "--full"),
         "4575caa1a98ced1029459d122bce11f4620fc44be28f570d9d2bd2edd44dbbcc"),
        (("--max-K", "3", "--max-L", "2", "--q", "1/3", "--q", "9/10", "--full"),
         "2d2be69a252dbc0b0f9fbff97ef52db69de051f6d18ecf5e8f01cab34958680b"),
    ], ids=["5x5-full", "3x2-two-q-full"])
    def test_report_bytes_at_more_grids(self, capsys, argv, digest):
        # a dict comparison misses reordered keys, which change the JSON
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("grid", [("-1", "0"), ("0", "-1")])
    def test_negative_grid(self, capsys, grid):
        code, out, err = run(capsys, "verify", "--max-K", grid[0], "--max-L", grid[1])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "nonnegative" in err

    def test_bad_q_is_refused_before_any_sweep(self, capsys, monkeypatch):
        def refused(*args):
            raise AssertionError("swept a table before checking --q")

        monkeypatch.setattr(partition, "_sweep", refused)
        code, out, err = run(capsys, "verify", "--max-K", "3", "--max-L", "3", "--q", "1")
        assert code == 2 and out == ""
        assert err == "error: q0 must lie in (0, 1)\n"


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

    @pytest.mark.parametrize("command", ["correlate", "sample"])
    def test_vanishing_normalizer(self, capsys, command):
        # at q = 0 a rep2 path weighs 0 unless each H step ends on the diagonal 0,
        # which at most one step of a monotone path does
        code, out, err = run(capsys, command, "--scheme", "rep2", "--from=-2,-2", "--to=2,2",
                             "--q", "0")
        assert (code, out, err) == (2, "", "error: Z((-2,-2),(2,2)) = 0 at q = 0\n")

    def test_vanishing_normalizer_after_the_conditioned_polynomial(self, capsys, monkeypatch):
        # stdout is written only once every value is known, so the polynomial
        # computed first is not printed either
        real, conditioned = correlations.conditioned_partition, []

        def recorded(query):
            conditioned.append(real(query))
            return conditioned[-1]

        monkeypatch.setattr(correlations, "conditioned_partition", recorded)
        code, out, err = run(capsys, "correlate", "--scheme", "rep2", "--from=-2,-2", "--to=2,2",
                             "--through", "0,0", "--q", "0")
        assert conditioned and conditioned[0]
        assert (code, out, err) == (2, "", "error: Z((-2,-2),(2,2)) = 0 at q = 0\n")

    def test_verify_internal_failure_prints_nothing(self, capsys, monkeypatch):
        # the translation tables are the suite's last sweeps; every pinned
        # entry is computed before one of them fails
        real = partition.forward_table

        def failing(scheme, start, end, q0=None):
            if end == Point(2, 2):
                raise partition.InternalIdentityFailure("injected")
            return real(scheme, start, end, q0)

        monkeypatch.setattr(partition, "forward_table", failing)
        code, out, err = run(capsys, "verify", "--max-K", "1", "--max-L", "1")
        assert (code, out, err) == (1, "", "error: internal identity failed: injected\n")

    @pytest.mark.parametrize("argv, message", [
        pytest.param(("profile", "-K", "1", "-L", "1", "-N", "1", "--q", "abc"),
                     "cannot parse rational 'abc'", id="profile-q"),
        pytest.param(("hamiltonian", "-K", "1", "-L", "1"),
                     "hamiltonian needs -N (or --config)", id="hamiltonian-no-N"),
    ])
    def test_refused_input(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_internal_failure_exits_one(self, capsys, monkeypatch):
        # the start cell (-1, -1): the last diagonal the sampler's backward sweep
        # yields.  A rep2 step table is swept, and the sweep checks h + v = z
        real = partition._sweep

        def corrupted(table):
            for s, lo, cells in real(table):
                if s == -2:
                    cells[0] += 1
                yield s, lo, cells

        monkeypatch.setattr(partition, "_sweep", corrupted)
        code, out, err = run(capsys, "sample", "--scheme", "rep2", "--from=-1,-1", "--to", "2,1",
                             "--q", "1/2")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: internal identity failed")

    def test_out_of_memory_exits_two(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(partition, "partition_dp", exhausted)
        code, out, err = run(capsys, "partition", "--scheme", "rep2", "--to", "2000,1")
        assert code == 2 and out == ""
        assert err == "error: out of memory\n"

    # K and L are checked before anything else reads them, such as the
    # length of a --config word
    @pytest.mark.parametrize("argv", [
        pytest.param(("norm", "-K", "1", "-L", "-5", "-N", "0"), id="norm"),
        pytest.param(("hamiltonian", "-K", "1", "-L", "-5", "-N", "0"), id="hamiltonian"),
        pytest.param(("hamiltonian", "-K", "1", "-L", "-5", "--config", "0"),
                     id="hamiltonian-config-short"),
        pytest.param(("hamiltonian", "-K", "1", "-L", "-1", "--config", "1"),
                     id="hamiltonian-config-one-site"),
        pytest.param(("profile", "-K", "1", "-L", "-5", "-N", "0", "--q", "1/2"), id="profile"),
    ])
    def test_negative_extent(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: K and L must be nonnegative\n"

    @pytest.mark.parametrize("extra", [("-N", "0"), ("-N", "3")])
    def test_config_with_another_down_count(self, capsys, extra):
        code, out, err = run(capsys, "hamiltonian", "-K", "1", "-L", "1", *extra,
                             "--config", "110")
        assert code == 2 and out == ""
        assert err == f"error: -N {extra[1]} disagrees with --config, which has 2 down spins\n"

    @pytest.mark.parametrize("q0", ["7", "0.5"])
    def test_config_with_q0(self, capsys, q0):
        # the amplitude is a polynomial in q; no number is taken for it
        code, out, err = run(capsys, "hamiltonian", "-K", "1", "-L", "1", "-N", "3",
                             "--config", "111", "--q0", q0)
        assert code == 2 and out == ""
        assert err == "error: --q0 is for the Hamiltonian oracle; --config takes no q\n"

    def test_config_with_its_own_down_count(self, capsys):
        with_n = run(capsys, "hamiltonian", "-K", "1", "-L", "1", "-N", "2", "--config", "110")
        assert with_n == run(capsys, "hamiltonian", "-K", "1", "-L", "1", "--config", "110")
        assert with_n[0] == 0

    def test_q0_with_overflowing_reciprocal(self, capsys, recwarn):
        # 1/q0 is inf below about 5.6e-309; the oracle would weigh bonds by it
        code, out, err = run(capsys, "hamiltonian", "-K", "1", "-L", "1", "-N", "1",
                             "--q0", "1e-309")
        assert code == 2 and out == "" and not recwarn.list
        assert err == "error: 1/q0 overflows a float at q0 = 1e-309\n"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="the interpreter has no int/str digit limit")
    def test_exact_output_past_the_digit_limit(self, capsys):
        # Z at q = 10^-6 has over 4 300 digits, the interpreter's default limit
        # on int/str conversion; main lifts it and puts back what it found
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4400)
        try:
            code, out, err = run(capsys, "profile", "-K", "30", "-L", "30", "-N", "30",
                                 "--q", "1/1000000")
            assert (code, err) == (0, "")
            rows = out.splitlines()[1:]
            assert [int(row.split(",")[0]) for row in rows] == list(range(-30, 31))
            assert max(len(row) for row in rows) > 4400
            assert sys.get_int_max_str_digits() == 4400
            code, out, err = run(capsys, "profile", "-K", "30", "-L", "30", "-N", "99",
                                 "--q", "1/1000000")
            assert code == 2 and out == "" and err.count("\n") == 1
            assert sys.get_int_max_str_digits() == 4400
        finally:
            sys.set_int_max_str_digits(previous)


# runs in a fresh interpreter: import the package, then call each subcommand
# in turn and print whether numpy was loaded after each call
NUMPY_PROBE = """
import contextlib, io, sys
import spinpaths, spinpaths.cli
print("import", 0, "numpy" in sys.modules)
for argv in [
    ["partition", "--scheme", "interface", "--to", "2,1"],
    ["closed-form", "-n", "2", "-m", "1"],
    ["correlate", "--scheme", "interface", "--to", "1,1", "--through", "1,0", "--q", "1/2"],
    ["profile", "-L", "1", "-K", "1", "-N", "1", "--q", "1/2"],
    ["norm", "-L", "1", "-K", "1", "-N", "1"],
    ["sample", "--scheme", "interface", "--to", "2,1", "--q", "1/2", "--n", "2"],
]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = spinpaths.cli.main(argv)
    print(argv[0], code, "numpy" in sys.modules)
"""


class TestNumpyStaysUnloaded:
    def test_exact_subcommands_leave_numpy_unloaded(self):
        src = str(Path(spinpaths.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", NUMPY_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines() == [
            "import 0 False", "partition 0 False", "closed-form 0 False",
            "correlate 0 False", "profile 0 False", "norm 0 False", "sample 0 True"]

    def test_no_module_level_numpy_import(self):
        package = Path(spinpaths.__file__).parent
        top_level = re.compile(r"^(import|from) numpy\b", re.MULTILINE)
        for path in sorted(package.rglob("*.py")):
            assert not top_level.search(path.read_text()), path


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
