#!/usr/bin/env python3
"""CI gate over the committed perf trajectories.

Usage: bench_gate.py COMMITTED.json REGENERATED.json

The schema field of the committed document selects the gate:

abcd-bench-pipeline/3 (BENCH_pipeline.json)
  * schema                      — exact
  * suite_solver_steps          — exact: the demand prover's traversal is
                                  deterministic, any drift is an algorithm
                                  change
  * phases.steady_prove.allocs  — exactly 0: the zero-allocation prove-path
                                  claim, in both files
  * other alloc counts          — regression-banded (x1.25): allocation
                                  counts are deterministic per binary but may
                                  shift slightly across toolchains
  * wall times (ns)             — regression-banded (x2.5): runner hardware
                                  differs from the calibration host, so only
                                  order-of-magnitude slowdowns fail

abcd-bench-abcdd/2 (BENCH_abcdd.json, written by `loadgen`)
  * schema + params             — exact: the offered load is a pure function
                                  of the seed, so both runs must have replayed
                                  the identical request sequence against the
                                  same number of server workers
  * per-scenario requests_sent  — exact, and ok + fail_open + errors must
                                  account for every request (nothing dropped)
  * regenerated errors          — exactly 0: the differential guarantee and
                                  the retry contract must hold under load
  * throughput_rps              — regression-banded (x2.5 slowdown allowed):
                                  latency percentiles are reported, not gated
                                  (shared CI boxes make tails meaningless)

Improvements never fail the gate. Exit 0 on pass, 1 with a report on fail.
"""

import json
import sys

ALLOC_BAND = 1.25
WALL_BAND = 2.5
THROUGHPUT_BAND = 2.5

failures = []


def check(ok, msg):
    if not ok:
        failures.append(msg)


def banded(name, old, new, band):
    check(
        new <= old * band,
        f"{name}: {new:.0f} vs committed {old:.0f} (allowed x{band})",
    )


def gate_pipeline(old, new):
    check(new.get("schema") == old.get("schema"), "regenerated schema differs")

    check(
        new.get("suite_solver_steps") == old.get("suite_solver_steps"),
        f"suite_solver_steps: {new.get('suite_solver_steps')} vs committed "
        f"{old.get('suite_solver_steps')} (must match exactly)",
    )

    for name, row in old.get("phases", {}).items():
        got = new.get("phases", {}).get(name)
        check(got is not None, f"phases.{name}: missing from regenerated run")
        if got is None:
            continue
        if name == "steady_prove":
            check(row["allocs"] == 0, "committed steady_prove.allocs is not 0")
            check(
                got["allocs"] == 0,
                f"phases.steady_prove.allocs: {got['allocs']} — the "
                "zero-allocation prove path regressed",
            )
        else:
            banded(f"phases.{name}.allocs", row["allocs"], got["allocs"], ALLOC_BAND)
        banded(f"phases.{name}.ns", row["ns"], got["ns"], WALL_BAND)

    for name, row in old.get("benchmarks", {}).items():
        got = new.get("benchmarks", {}).get(name)
        check(got is not None, f"benchmarks[{name}]: missing from regenerated run")
        if got is None:
            continue
        banded(f"benchmarks[{name}].ns", row["ns"], got["ns"], WALL_BAND)
        banded(f"benchmarks[{name}].allocs", row["allocs"], got["allocs"], ALLOC_BAND)


def gate_abcdd(old, new):
    check(new.get("schema") == old.get("schema"), "regenerated schema differs")
    check(
        new.get("params") == old.get("params"),
        f"params differ: committed {old.get('params')} vs "
        f"regenerated {new.get('params')} — the offered load must replay exactly",
    )

    old_scenarios = {s["name"]: s for s in old.get("scenarios", [])}
    new_scenarios = {s["name"]: s for s in new.get("scenarios", [])}
    check(
        sorted(old_scenarios) == sorted(new_scenarios),
        f"scenario sets differ: {sorted(old_scenarios)} vs {sorted(new_scenarios)}",
    )

    for name, row in old_scenarios.items():
        got = new_scenarios.get(name)
        if got is None:
            continue
        check(
            got["requests_sent"] == row["requests_sent"],
            f"{name}.requests_sent: {got['requests_sent']} vs committed "
            f"{row['requests_sent']} (the seeded schedule is exact)",
        )
        for doc, which in ((row, "committed"), (got, "regenerated")):
            accounted = doc["ok"] + doc["fail_open"] + doc["errors"]
            check(
                accounted == doc["requests_sent"],
                f"{name} ({which}): ok {doc['ok']} + fail_open {doc['fail_open']} "
                f"+ errors {doc['errors']} != sent {doc['requests_sent']}",
            )
        check(
            got["errors"] == 0,
            f"{name}.errors: {got['errors']} — differential or retry "
            "contract violated under load",
        )
        banded_floor = row["throughput_rps"] / THROUGHPUT_BAND
        check(
            got["throughput_rps"] >= banded_floor,
            f"{name}.throughput_rps: {got['throughput_rps']:.1f} vs committed "
            f"{row['throughput_rps']:.1f} (floor {banded_floor:.1f}, x{THROUGHPUT_BAND})",
        )


def main(committed_path, regenerated_path):
    old = json.load(open(committed_path))
    new = json.load(open(regenerated_path))

    schema = old.get("schema")
    if schema == "abcd-bench-pipeline/3":
        gate_pipeline(old, new)
    elif schema == "abcd-bench-abcdd/2":
        gate_abcdd(old, new)
    else:
        check(False, f"unknown committed schema {schema!r}")

    if failures:
        print(f"bench gate: {len(failures)} regression(s) vs {committed_path}:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"bench gate: regenerated run is within tolerance of {committed_path}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
