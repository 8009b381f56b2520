"""Each correctness check passes on a right value and fails on a wrong one.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from history import synthesize  # noqa: E402


def _rec(user, start_ms, latency_ms):
    return SimpleNamespace(user_index=user, start_ms=start_ms, latency_ms=latency_ms)


def test_token_matches_documented_kernel_and_rejects_a_wrong_body():
    # a known answer, computed by hand from the kernel's definition
    x = 0x9E3779B97F4A7C15
    x = (x * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
    x ^= x >> 29
    assert checks.login_kernel(1) == x
    body = checks.expected_login_body(1, 40, "alice", "pw1")
    assert body.startswith(b'{"token":"tok') and len(body) == len(b'{"token":""}') + 40
    assert checks.token_errors({("alice", "pw1"): body}, 1, 40, "v") == []
    wrong = checks.expected_login_body(2, 40, "alice", "pw1")
    assert checks.token_errors({("alice", "pw1"): wrong}, 1, 40, "v")
    other_user = checks.expected_login_body(1, 40, "bob", "pw1")
    assert checks.token_errors({("alice", "pw1"): other_user}, 1, 40, "v")


def test_closed_loop_accepts_sequential_requests_and_rejects_overlap():
    ok = [_rec(0, 0, 10.0), _rec(0, 10, 5.0), _rec(1, 3, 50.0), _rec(1, 53, 1.0)]
    assert checks.closed_loop_errors(ok, "run") == []
    rounded = [_rec(0, 0, 10.4), _rec(0, 10, 1.0)]  # start_ms rounds down by < 1 ms
    assert checks.closed_loop_errors(rounded, "run") == []
    overlap = [_rec(0, 0, 10.0), _rec(0, 5, 5.0)]
    assert checks.closed_loop_errors(overlap, "run")


def test_energy_bounds():
    args = dict(window_s=10.0, interval_s=0.1, idle_watts=20.0, watts_per_cpu=25.0,
                dram_watts=0.3, ncpu=2, label="run")
    assert checks.energy_bound_errors(230.0, 3.0, **args) == []
    assert checks.energy_bound_errors(199.0, 3.0, **args)  # below idle power
    assert checks.energy_bound_errors(710.0, 3.0, **args)  # above full load plus an interval
    assert checks.energy_bound_errors(230.0, 3.0 + 0.3 * 0.2, **args)  # DRAM span too long


def test_version_orderings():
    epr = {"v1": 1.0, "v2": 1.1, "v3": 2.0, "v4": 1.7}
    lat = {"v1": 6.0, "v2": 6.0, "v3": 45.0, "v4": 33.0}
    assert checks.ordering_errors(epr, lat) == []
    assert checks.ordering_errors({**epr, "v4": 0.9}, lat)
    assert checks.ordering_errors({**epr, "v2": 2.5}, lat)
    assert checks.ordering_errors({**epr, "v3": 0.9}, lat)
    assert checks.ordering_errors(epr, {**lat, "v1": 40.0})
    assert checks.ordering_errors(epr, {**lat, "v3": 5.0})


def test_sut_cpu_bounds():
    assert checks.sut_cpu_errors(16.0, 14.8, "v3") == []
    assert checks.sut_cpu_errors(0.05, 0.0, "zero") == []
    assert checks.sut_cpu_errors(40.0, 14.8, "v3")
    assert checks.sut_cpu_errors(3.0, 14.8, "v3")


def test_history_energies_exclusion_and_deltas():
    hist = synthesize(5)
    expected = {r.record.run_id: r.cpu_energy_j for r in hist.valid_runs}
    assert checks.energy_errors(dict(expected), expected, "h") == []
    some_run = next(iter(expected))
    assert checks.energy_errors({**expected, some_run: expected[some_run] * 1.001}, expected, "h")
    invalid = next(iter(hist.invalid_ids))
    assert checks.exclusion_errors(expected, expected, hist.invalid_ids) == []
    assert checks.exclusion_errors([*expected, invalid], expected, hist.invalid_ids)
    assert checks.exclusion_errors(list(expected)[1:], expected, hist.invalid_ids)
    deltas = hist.expected_deltas()
    step = (hist.commits[hist.step_index - 1], hist.commits[hist.step_index])
    assert 18.0 < deltas[step] < 22.0
    assert checks.delta_errors(dict(deltas), deltas) == []
    assert checks.delta_errors({**deltas, step: deltas[step] + 0.01}, deltas)
    assert checks.delta_errors({**deltas, step: None}, deltas)


def test_synthesized_counters_wrap_and_are_seeded():
    hist = synthesize(5)
    assert [r.files for r in synthesize(5).runs] == [r.files for r in hist.runs]
    assert [r.files for r in synthesize(6).runs] != [r.files for r in hist.runs]
    small = [r for r in hist.runs if r.record.domains[0]["max_range_uj"] < 2**32]
    assert small and any(r.cpu_energy_j * 1e6 > r.record.domains[0]["max_range_uj"] for r in small)


def test_gate_output_consistency():
    assert checks.gate_errors(1, 1, "regression") == []
    assert checks.gate_errors(0, 1, "unchanged") == []  # a wrong verdict, counted as failed
    assert checks.gate_errors(2, 1, None)
    assert checks.gate_errors(1, 1, "unchanged")
