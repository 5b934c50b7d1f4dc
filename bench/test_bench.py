"""Self-tests of the benchmark: validators, seeding, tracer, exact counts.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spinpaths  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import run_pass  # noqa: E402
from validators import validate  # noqa: E402
from workloads import Request, execute, partition_request, sample_request  # noqa: E402


# -- validators -------------------------------------------------------------------


def test_validators_accept_every_workload_request_kind():
    small = [
        partition_request("rep2", (-2, -3), (2, 1)),
        Request("closed-form", ("closed-form", "-n", "3", "-m", "4"),
                {"start": (0, 0), "end": (3, 4)}),
        workloads.correlate_request((0, 0), (4, 4), [(2, 2)], "1/2"),
        Request("profile", ("profile", "-K", "2", "-L", "1", "-N", "2", "--q", "3/10"),
                {"K": 2, "L": 1, "N": 2, "q": "3/10"}),
        Request("norm", ("norm", "-K", "2", "-L", "2", "-N", "2"), {"K": 2, "L": 2, "N": 2}),
        Request("verify", ("verify", "--max-K", "1", "--max-L", "0"), {"max_K": 1, "max_L": 0}),
        Request("hamiltonian", ("hamiltonian", "-K", "2", "-L", "2", "-N", "2"),
                {"K": 2, "L": 2, "N": 2}),
        sample_request("interface", (0, 0), (2, 3), "4/5", 5, 20),
        Request("pinning", (), {"K": 2, "L": 2, "N": 3, "q": "1/2"}),
        Request("estimate", (), {"scheme": "interface", "start": (0, 0), "end": (3, 3),
                                 "q": "4/5", "point": (1, 2), "seed": 3, "samples": 20000}),
    ]
    for request in small:
        assert validate(request, execute(request)) is None, request


def test_validator_rejects_changed_coefficient():
    request = partition_request("interface", (0, 0), (3, 2))
    out = execute(request)
    doc = json.loads(out.stdout)
    exponent = next(iter(doc["terms"]))
    doc["terms"][exponent] = str(int(doc["terms"][exponent]) + 1)
    out.stdout = json.dumps(doc)
    assert "coefficient sum" in validate(request, out)


def test_validator_rejects_path_ending_elsewhere():
    request = sample_request("rep2", (-1, -2), (2, 1), "1/2", 9, 5)
    out = execute(request)
    lines = out.stdout.splitlines()
    lines[2] = lines[2][:-1] + ("H" if lines[2].endswith("V") else "V")
    out.stdout = "\n".join(lines) + "\n"
    assert "does not run" in validate(request, out)


def test_two_token_negative_point_is_a_usage_error():
    request = Request("partition", ("partition", "--scheme", "rep2", "--from", "-3,-4",
                                    "--to", "1,1"), {"start": (-3, -4), "end": (1, 1)})
    out = execute(request)
    assert out.code == 2
    assert validate(request, out).startswith("exit code 2")


# -- seeding --------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_request_list(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.build(name, 7) != workloads.build(name, 8)


# -- tracer ----------------------------------------------------------------------------


def _bindings():
    """Every attribute of every spinpaths module and class, by identity."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "spinpaths" or mod_name.startswith("spinpaths."):
            for key, value in vars(mod).items():
                out[mod_name, key] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        out[mod_name, key, attr] = member
    return out


def test_tracer_records_the_partition_chain():
    request = Request("partition", ("partition", "--scheme", "interface", "--to", "3,2"),
                      {"start": (0, 0), "end": (3, 2)})
    with tracing.Tracer() as tracer:
        tracer.begin_request(41)
        execute(request)
        spans = list(tracer.spans)
        tracer.end_request()
    by_name = {}
    for k, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(k)
    (main,) = by_name["cli.main"]
    (dp,) = by_name["partition.partition_dp"]
    (table,) = by_name["partition.forward_table"]
    assert spans[main][3] == -1 and spans[dp][3] == main and spans[table][3] == dp
    assert {span[4] for span in spans} == {41}
    assert tracer.layer_metrics()["partition.sweep_cells"] == 12


def test_tracer_restores_every_patched_attribute():
    before = _bindings()
    requests = workloads.build("identity_grid", 3)[:4] + workloads.build("sampling", 3)[:2]
    with tracing.Tracer() as tracer:
        assert spinpaths.cli.main is not before["spinpaths.cli", "main"]
        run_pass(requests, {}, tracer)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_exact_counts_repeat_in_process():
    requests = [r for name in sorted(workloads.WORKLOADS)
                for r in workloads.build(name, 5)[:3]]
    with tracing.Tracer() as tracer:
        first = run_pass(requests, {}, tracer)
        second = run_pass(requests, {}, tracer)
    assert not first.failures and not second.failures
    for name in tracing.EXACT_COUNTS:
        assert first.layers[name] == second.layers[name], name


def test_exact_counts_repeat_across_traced_runs():
    def counts():
        out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                              "identity_grid", "--seed", "11", "--seconds", "1", "--trace", "1"],
                             capture_output=True, text=True, check=True, timeout=170)
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        return {k: result["metrics"][k]["value"] for k in tracing.EXACT_COUNTS}

    first = counts()
    assert first == counts()
    assert first["spin.oracle_dim_max"] == 3432
