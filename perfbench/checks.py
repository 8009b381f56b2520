"""Correctness checks for the harness benchmark.

Each check is computed apart from wattbench: from the documented SUT
kernel, from properties the measurement method must have, or from the
inputs the benchmark generated itself. Every function returns a list of
human-readable violations; an empty list means the check passed.
"""

from __future__ import annotations

import math
import zlib
from typing import Iterable, Mapping

_MASK64 = (1 << 64) - 1
_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_KERNEL_SEED = 0x9E3779B97F4A7C15


def login_kernel(units: int) -> int:
    """The documented per-request kernel: a 64-bit LCG step followed by an
    xor-shift by 29, applied ``units`` times to a fixed seed."""
    x = _KERNEL_SEED
    for _ in range(units):
        x = (x * _LCG_MUL + _LCG_INC) % (1 << 64)
        x = x ^ (x >> 29)
    return x


def expected_login_body(units: int, payload_bytes: int, user: str, password: str) -> bytes:
    """Body of a successful ``/login`` reply: the kernel output mixed with
    crc32 of ``user:pass``, rendered as ``tok<16 hex>`` and repeated to
    ``payload_bytes``."""
    mixed = (login_kernel(units) ^ zlib.crc32(f"{user}:{password}".encode("utf-8"))) & _MASK64
    unit = ("tok" + format(mixed, "016x")).encode("ascii")
    repeats = -(-payload_bytes // len(unit))
    token = (unit * repeats)[:payload_bytes]
    return b'{"token":"' + token + b'"}'


def token_errors(observed: Mapping[tuple[str, str], bytes], units: int,
                 payload_bytes: int, label: str) -> list[str]:
    """Compare observed login bodies, keyed by (user, password)."""
    errors = []
    for (user, password), body in sorted(observed.items()):
        want = expected_login_body(units, payload_bytes, user, password)
        if body != want:
            errors.append(f"{label}: token for {user} is {body[:40]!r}..., expected {want[:40]!r}...")
    return errors


def closed_loop_errors(records: Iterable, label: str) -> list[str]:
    """No two requests of one user overlap.

    ``start_ms`` is rounded to whole milliseconds, so a request may appear
    to start up to 1 ms before its predecessor's end.
    """
    by_user: dict[int, list] = {}
    for record in records:
        by_user.setdefault(record.user_index, []).append(record)
    errors = []
    for user, recs in sorted(by_user.items()):
        recs.sort(key=lambda r: r.start_ms)
        for prev, nxt in zip(recs, recs[1:]):
            if nxt.start_ms + 1 < prev.start_ms + prev.latency_ms:
                errors.append(
                    f"{label}: user {user} started a request at {nxt.start_ms} ms while the one "
                    f"from {prev.start_ms} ms ran until {prev.start_ms + prev.latency_ms:.1f} ms"
                )
                break
    return errors


def energy_bound_errors(cpu_energy_j: float, dram_energy_j: float, window_s: float,
                        interval_s: float, idle_watts: float, watts_per_cpu: float,
                        dram_watts: float, ncpu: int, label: str) -> list[str]:
    """``cpu_model`` energy lies between idle power over the window and full
    load on every CPU over the window plus one sampling interval; the span
    that DRAM energy covers lies within one interval of the window."""
    errors = []
    low = idle_watts * window_s
    high = (idle_watts + watts_per_cpu * ncpu) * (window_s + interval_s)
    if not low <= cpu_energy_j <= high:
        errors.append(f"{label}: cpu_energy_j {cpu_energy_j:.3f} outside [{low:.3f}, {high:.3f}]")
    span_s = dram_energy_j / dram_watts
    if abs(span_s - window_s) > interval_s + 1e-9:
        errors.append(
            f"{label}: DRAM energy covers {span_s:.3f} s, window is {window_s:.3f} s "
            f"(allowed +/- {interval_s:.3f} s)"
        )
    return errors


def ordering_errors(energy_per_request: Mapping[str, float],
                    latency: Mapping[str, float]) -> list[str]:
    """Orderings implied by the profiles' work units: v3 > v1, v4 > v1 and
    v3 > v2 in energy per request, v3 > v1 and v4 > v1 in latency.

    v3 (70 000 units) is not compared with v4 (50 000). With two users in
    step, a repetition's median latency falls in one of two modes, as the
    users' requests collide or alternate, and v3's low mode lies below
    v4's high mode. Energy per request follows throughput, so it flips
    with latency. Over the medians of three repetitions both orders
    inverted now and then, on any seed (see CHANGES.md).
    """
    e, r = energy_per_request, latency
    errors = []
    if not (e["v3"] > e["v1"] and e["v4"] > e["v1"] and e["v3"] > e["v2"]):
        errors.append(f"energy per request ordering violated: {dict(e)}")
    if not (r["v3"] > r["v1"] and r["v4"] > r["v1"]):
        errors.append(f"latency ordering violated: {dict(r)}")
    return errors


def sut_cpu_errors(cpu_ms_per_req: float, burn_ms: float, label: str,
                   low: float = 0.5, high: float = 2.0, slack_ms: float = 0.2) -> list[str]:
    """SUT CPU per request, integrated from stored samples, stays within
    [low, high] times the standalone burn time, give or take ``slack_ms``."""
    lo = low * burn_ms - slack_ms
    hi = high * burn_ms + slack_ms
    if not lo <= cpu_ms_per_req <= hi:
        return [f"{label}: SUT CPU {cpu_ms_per_req:.3f} ms/req outside [{lo:.3f}, {hi:.3f}] "
                f"(standalone burn {burn_ms:.3f} ms)"]
    return []


def energy_errors(observed: Mapping[str, float], expected: Mapping[str, float],
                  label: str, tol_j: float = 1e-5) -> list[str]:
    """Observed per-run energies equal the generated ones."""
    errors = []
    if set(observed) != set(expected):
        errors.append(f"{label}: summarised runs {len(observed)} differ from expected {len(expected)}")
    for run_id in sorted(set(observed) & set(expected)):
        if not math.isclose(observed[run_id], expected[run_id], rel_tol=0.0, abs_tol=tol_j):
            errors.append(f"{label}: {run_id} has {observed[run_id]:.6f} J, "
                          f"generated {expected[run_id]:.6f} J")
    return errors


def exclusion_errors(reported_run_ids: Iterable[str], valid_ids: Iterable[str],
                     invalid_ids: Iterable[str]) -> list[str]:
    """The report lists exactly the valid runs and none of the invalid ones."""
    reported = set(reported_run_ids)
    errors = []
    leaked = reported & set(invalid_ids)
    if leaked:
        errors.append(f"invalid runs in report: {sorted(leaked)[:5]}")
    missing = set(valid_ids) - reported
    if missing:
        errors.append(f"valid runs missing from report: {sorted(missing)[:5]}")
    return errors


def delta_errors(observed: Mapping[tuple[str, str], float | None],
                 expected: Mapping[tuple[str, str], float], tol_pct: float = 1e-4) -> list[str]:
    """``delta_percent`` of each comparison equals the generated ratio."""
    errors = []
    for pair in sorted(expected):
        got = observed.get(pair)
        if got is None or not math.isclose(got, expected[pair], rel_tol=0.0, abs_tol=tol_pct):
            errors.append(f"delta_percent {pair[0]}->{pair[1]} is {got}, generated {expected[pair]:.6f}")
    return errors


def gate_errors(exit_code: int, expected_exit: int, verdict: str | None) -> list[str]:
    """The gate's verdict agrees with its exit code and ran without error.

    A wrong verdict is reported by the caller as a failed operation; only
    an exit outside {0, 1} or a verdict that contradicts the exit code is a
    wrong output.
    """
    if exit_code not in (0, 1):
        return [f"gate exited {exit_code}, expected {expected_exit}"]
    if (verdict == "regression") != (exit_code == 1):
        return [f"gate verdict {verdict!r} disagrees with exit code {exit_code}"]
    return []
