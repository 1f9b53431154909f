#!/usr/bin/env python3
"""Bench-trend regression gate.

Diffs a freshly produced BENCH_<name>.json against the committed baseline
under bench/baselines/ and fails (exit 1) on a regression beyond the
tolerance in any gated metric. Only *deterministic* metrics are gated —
simulated-time results, convolution counts, and pooled probability bounds
are pure functions of the seeds, so a committed baseline stays valid on
any machine; wall-clock fields (selections/sec, wall seconds) are reported
in the JSON but never gated.

Gated metrics:
  selection_scale — cached_convolutions_per_read per verify point and
                    convolutions_per_read per scale/open-loop point (the
                    memoized hot path must not regress), zero tolerance on
                    selection mismatches vs the uncached and
                    exhaustive-scan oracles, and the absolute open-loop
                    ns/selection budget committed with the baseline;
                    --include-wall-clock adds relative ns/selection trend
                    gates (off by default: machine-dependent);
  recovery        — pooled mean time-to-rejoin (seconds of simulated time)
                    and the Pc(d) lower bound, i.e. the pooled Wilson lower
                    bound of steady-state deadline-hit probability
                    (1 - upper CI bound of the steady timing-failure rate);
  gray_failure    — per-severity timing-failure rate inside the degradation
                    window (hardening must not erode under gray faults),
                    the steady-state Pc(d) lower bound outside it, zero
                    safety-invariant violations (absolute), and a nonzero
                    injected-fault total (the chaos layer must actually
                    have fired);
  shard_scaling   — per-width (1/4/16 shards) Pc(d) lower bound and
                    simulated-time throughput, zero safety-invariant
                    violations (absolute);
  hot_shard       — degraded-window timing-failure rate at the hot shard,
                    the steady Pc(d) lower bound, zero safety-invariant
                    violations (absolute), and 16 rack restarts per seed
                    at the correlated-rack point (absolute);
  protocol_overhead — network messages and bytes per completed request at
                    each point the baseline lists (the plan runs 2/8/16/32
                    clients, and 16 clients over 4 shards), with zero
                    tolerance upward (a fall passes; commit it as the new
                    baseline), plus zero safety-invariant violations
                    (absolute);
  obs_overhead    — telemetry cost: overhead_percent against the absolute
                    <2% budget (the one wall-clock-derived exception — it
                    is a ratio of two runs on the same machine, so the
                    budget holds anywhere), plus the deterministic snapshot
                    count / JSONL size / reads completed as trend gates.

Usage: bench_compare.py BASELINE FRESH [--tolerance 0.20]
The bench kind is read from the JSON "bench" field; both files must match.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable


class Gate:
    """One gated metric: extract from both files, compare directionally.

    direction "max": lower is better, fail when fresh exceeds baseline by
    more than tolerance (relative) plus slack (absolute).
    direction "min": higher is better, fail when fresh falls short of the
    baseline by more than tolerance plus slack.

    With absolute_limit set, the baseline value is ignored for the verdict:
    fresh is compared directly against the fixed limit (a budget gate, e.g.
    "telemetry overhead stays under 2%"), tolerance and slack unused.

    With tolerance set, it replaces the command line's --tolerance for this
    gate (0.0 gates a deterministic count exactly).
    """

    def __init__(self, name: str, extract: Callable[[dict], float],
                 direction: str, slack: float = 0.0,
                 absolute_limit: float | None = None,
                 tolerance: float | None = None):
        assert direction in ("max", "min")
        self.name = name
        self.extract = extract
        self.direction = direction
        self.slack = slack
        self.absolute_limit = absolute_limit
        self.tolerance = tolerance

    def check(self, baseline: dict, fresh: dict, tolerance: float):
        if self.tolerance is not None:
            tolerance = self.tolerance
        base = self.extract(baseline)
        new = self.extract(fresh)
        if self.absolute_limit is not None:
            limit = self.absolute_limit
            ok = new <= limit if self.direction == "max" else new >= limit
        elif self.direction == "max":
            limit = base * (1.0 + tolerance) + self.slack
            ok = new <= limit
        else:
            limit = base * (1.0 - tolerance) - self.slack
            ok = new >= limit
        delta = 0.0 if base == 0 else (new - base) / base * 100.0
        return ok, base, new, delta


def selection_scale_gates(baseline: dict,
                          include_wall_clock: bool = False) -> list[Gate]:
    gates = []
    for run in baseline["runs"]:
        key = (run["replicas"], run["window"])

        def extract(doc: dict, key=key) -> float:
            for r in doc["runs"]:
                if (r["replicas"], r["window"]) == key:
                    return float(r["cached_convolutions_per_read"])
            raise KeyError(f"no (replicas, window) == {key} in fresh run set")

        # Slack of 0.5 conv/read: near-zero steady-state points must not
        # flag on a single extra rebuild.
        gates.append(Gate(f"conv/read r={key[0]} w={key[1]}", extract,
                          "max", slack=0.5))

        def mismatches(doc: dict, key=key) -> float:
            for r in doc["runs"]:
                if (r["replicas"], r["window"]) == key:
                    return float(r["mismatches"])
            raise KeyError(f"no (replicas, window) == {key} in fresh run set")

        # Absolute zero tolerance: the memoized + pruned path must stay
        # bit-identical to the uncached and exhaustive-scan oracles.
        gates.append(Gate(f"selection mismatches r={key[0]} w={key[1]}",
                          mismatches, "max", absolute_limit=0.0))

    for run in baseline.get("scale_runs", []):
        key = (run["replicas"], run["window"])

        def scale_conv(doc: dict, key=key) -> float:
            for r in doc["scale_runs"]:
                if (r["replicas"], r["window"]) == key:
                    return float(r["convolutions_per_read"])
            raise KeyError(f"no scale point (replicas, window) == {key}")

        gates.append(Gate(f"scale conv/read r={key[0]} w={key[1]}",
                          scale_conv, "max", slack=0.5))
        if include_wall_clock:
            def scale_ns(doc: dict, key=key) -> float:
                for r in doc["scale_runs"]:
                    if (r["replicas"], r["window"]) == key:
                        return float(r["ns_per_selection"])
                raise KeyError(f"no scale point (replicas, window) == {key}")

            gates.append(Gate(f"scale ns/selection r={key[0]} w={key[1]}",
                              scale_ns, "max"))

    if "open_loop" in baseline:
        gates.append(Gate(
            "open-loop conv/read",
            lambda d: float(d["open_loop"]["convolutions_per_read"]),
            "max", slack=0.5))
        # The absolute ns/selection budget committed with the baseline. A
        # wall-clock gate, but with ~5x headroom over the measured value it
        # holds on any CI-class runner; catching a return to the
        # convolution-per-read regime (50-100x slower) is what matters.
        budget = float(baseline["open_loop"]["budget_ns_per_selection"])
        gates.append(Gate(
            "open-loop ns/selection (budget)",
            lambda d: float(d["open_loop"]["ns_per_selection"]),
            "max", absolute_limit=budget))
        if include_wall_clock:
            gates.append(Gate(
                "open-loop ns/selection (trend)",
                lambda d: float(d["open_loop"]["ns_per_selection"]),
                "max"))
    return gates


def recovery_gates(_baseline: dict) -> list[Gate]:
    def rejoin(doc: dict) -> float:
        return float(doc["pooled"]["rejoin_s"]["mean"])

    def pc_lower_bound(doc: dict) -> float:
        # Pc(d): probability a steady-state read meets its deadline. The
        # conservative (lower) bound is 1 minus the Wilson *upper* bound of
        # the steady timing-failure rate.
        return 1.0 - float(doc["pooled"]["steady_timing_failure"]["ci_upper"])

    return [
        # 50 ms of absolute slack: rejoin is sub-second, so pure relative
        # tolerance would flag noise-level shifts.
        Gate("mean time_to_rejoin_s", rejoin, "max", slack=0.05),
        Gate("Pc(d) lower bound (steady)", pc_lower_bound, "min", slack=0.02),
    ]


def gray_failure_gates(baseline: dict) -> list[Gate]:
    def point_rate(doc: dict, point: int) -> float:
        failures = trials = 0
        for r in doc["runs"]:
            if r["point"] == point:
                failures += r["degraded_failures"]
                trials += r["degraded_reads"]
        if trials == 0:
            raise KeyError(f"no degraded reads at severity point {point}")
        return failures / trials

    def injected(doc: dict) -> float:
        return float(sum(r[k] for r in doc["runs"]
                         for k in ("messages_duplicated",
                                   "messages_reordered",
                                   "messages_delayed",
                                   "messages_dropped_loss")))

    severities = sorted({r["point"] for r in baseline["runs"]})
    gates = []
    for point in severities:
        if point == 0:
            continue  # baseline severity has no degradation window
        # 2% absolute slack: the per-point rate sits on ~400 reads, so a
        # couple of flipped outcomes must not flag.
        gates.append(Gate(f"degraded tf rate @severity {point}",
                          lambda d, p=point: point_rate(d, p),
                          "max", slack=0.02))
    gates += [
        Gate("Pc(d) lower bound (steady)",
             lambda d: 1.0 - float(d["pooled"]["steady_timing_failure"]
                                   ["ci_upper"]),
             "min", slack=0.02),
        Gate("safety-invariant violations",
             lambda d: float(d["pooled"]["violations"]),
             "max", absolute_limit=0.0),
        Gate("faults injected",
             injected, "min", absolute_limit=1.0),
    ]
    return gates


def point_sum(doc: dict, point: int, keys) -> float:
    return float(sum(r[k] for r in doc["runs"]
                     if r["point"] == point for k in keys))


def shard_scaling_gates(baseline: dict) -> list[Gate]:
    # shard_scaling plan: the same workload at 1/4/16 replica groups.
    def pc_lower(doc: dict, point: int) -> float:
        failures = point_sum(doc, point, ("timing_failures",))
        trials = point_sum(doc, point, ("reads_completed",))
        if trials == 0:
            raise KeyError(f"no completed reads at scaling point {point}")
        return 1.0 - failures / trials

    def throughput(doc: dict, point: int) -> float:
        ops = point_sum(doc, point, ("reads_completed", "updates_completed"))
        sim_s = point_sum(doc, point, ("sim_end_s",))
        if sim_s == 0:
            raise KeyError(f"no simulated time at scaling point {point}")
        return ops / sim_s

    points = sorted({(r["point"], r["shards"]) for r in baseline["runs"]})
    gates = []
    for point, shards in points:
        # 2% absolute slack, same reasoning as the gray-failure gates: the
        # per-point rate sits on ~10^3 reads, so a couple of flipped
        # outcomes must not flag.
        gates.append(Gate(f"Pc(d) lower bound @{int(shards)} shards",
                          lambda d, p=point: pc_lower(d, p),
                          "min", slack=0.02))
        # Simulated-time throughput is deterministic per seed set; 0.5
        # ops/s of slack absorbs request-accounting shifts.
        gates.append(Gate(f"throughput ops/sim-s @{int(shards)} shards",
                          lambda d, p=point: throughput(d, p),
                          "min", slack=0.5))
    # The acceptance floor: agreement and key-placement counters, pooled.
    # Any cross-shard leak fails the gate outright.
    gates.append(Gate("safety-invariant violations",
                      lambda d: float(d["pooled"]["violations"]),
                      "max", absolute_limit=0.0))
    return gates


def hot_shard_gates(_baseline: dict) -> list[Gate]:
    # hot_shard plan: a 16-shard pool under a uniform baseline, one hot
    # replica group (point 1) and a correlated rack failure (point 2).
    def hot_rate(doc: dict) -> float:
        failures = point_sum(doc, 1, ("degraded_failures",))
        trials = point_sum(doc, 1, ("degraded_reads",))
        if trials == 0:
            raise KeyError("no degraded reads at the hot-shard point")
        return failures / trials

    def rack_restarts_per_seed(doc: dict) -> float:
        runs = [r for r in doc["runs"] if r["point"] == 2]
        if not runs:
            raise KeyError("no runs at the correlated-rack point")
        return sum(r["reborn"] for r in runs) / len(runs)

    return [
        Gate("degraded tf rate @hot shard", hot_rate, "max", slack=0.02),
        Gate("Pc(d) lower bound (steady)",
             lambda d: 1.0 - float(d["pooled"]["steady_timing_failure"]
                                   ["ci_upper"]),
             "min", slack=0.02),
        Gate("safety-invariant violations",
             lambda d: float(d["pooled"]["violations"]),
             "max", absolute_limit=0.0),
        # Every shard must lose and restart its rack slot: 16 per seed.
        Gate("rack restarts per seed", rack_restarts_per_seed,
             "min", absolute_limit=16.0),
    ]


def protocol_overhead_gates(baseline: dict) -> list[Gate]:
    # protocol_overhead plan: the standard workload at 2/8/16/32 clients,
    # and 16 clients over 4 shards.
    # Message and byte counts are deterministic per seed set (on the
    # toolchain that wrote the baseline), so any rise is a real change.
    def per_request(doc: dict, point: int, key: str) -> float:
        requests = point_sum(doc, point, ("reads", "updates"))
        if requests == 0:
            raise KeyError(f"no completed requests at overhead point {point}")
        return point_sum(doc, point, (key,)) / requests

    points = sorted({(r["point"], r["clients"], r.get("shards", 1))
                     for r in baseline["runs"]})
    gates = []
    for point, clients, shards in points:
        where = f"{int(clients)} clients"
        if shards > 1:
            where += f" x {int(shards)} shards"
        for key in ("messages", "bytes"):
            gates.append(Gate(f"{key}/request @{where} (no rise)",
                              lambda d, p=point, k=key: per_request(d, p, k),
                              "max", tolerance=0.0))
    gates.append(Gate("safety-invariant violations",
                      lambda d: float(d["pooled"]["violations"]),
                      "max", absolute_limit=0.0))
    return gates


def obs_overhead_gates(baseline: dict) -> list[Gate]:
    budget = float(baseline.get("budget_percent", 2.0))
    return [
        # The budget gate: absolute, not relative to the baseline's own
        # (noise-level) overhead measurement.
        Gate("telemetry overhead %", lambda d: float(d["overhead_percent"]),
             "max", absolute_limit=budget),
        # Deterministic per-(seed, requests) fields: drift means the
        # snapshot pipeline changed shape, which should be a deliberate
        # baseline update, not an accident.
        Gate("snapshots captured", lambda d: float(d["snapshots"]), "min"),
        Gate("jsonl bytes", lambda d: float(d["jsonl_bytes"]), "max"),
        Gate("reads completed", lambda d: float(d["reads_completed"]), "min"),
        # 1.0 = byte-identical series across same-seed reps.
        Gate("series deterministic", lambda d: float(d["deterministic"]),
             "min", absolute_limit=1.0),
    ]


GATE_BUILDERS = {
    "selection_scale": selection_scale_gates,
    "recovery": recovery_gates,
    "gray_failure": gray_failure_gates,
    "obs_overhead": obs_overhead_gates,
    "shard_scaling": shard_scaling_gates,
    "hot_shard": hot_shard_gates,
    "protocol_overhead": protocol_overhead_gates,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed bench/baselines/BENCH_*.json")
    parser.add_argument("fresh", help="freshly produced BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="relative regression tolerance (default 0.20)")
    parser.add_argument("--include-wall-clock", action="store_true",
                        help="also gate relative ns/selection trends "
                             "(selection_scale only; off by default because "
                             "wall clock is machine-dependent)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    kind = baseline.get("bench")
    if fresh.get("bench") != kind:
        print(f"bench_compare: baseline is '{kind}' but fresh is "
              f"'{fresh.get('bench')}'", file=sys.stderr)
        return 2
    if kind not in GATE_BUILDERS:
        print(f"bench_compare: no gates defined for bench '{kind}'",
              file=sys.stderr)
        return 2

    if kind == "selection_scale":
        gates = selection_scale_gates(baseline, args.include_wall_clock)
    else:
        gates = GATE_BUILDERS[kind](baseline)

    failures = 0
    print(f"bench-trend gate: {kind} (tolerance ±{args.tolerance:.0%})")
    for gate in gates:
        try:
            ok, base, new, delta = gate.check(baseline, fresh, args.tolerance)
        except KeyError as e:
            print(f"  FAIL {gate.name}: {e}")
            failures += 1
            continue
        verdict = "ok" if ok else "FAIL"
        print(f"  {verdict:4} {gate.name}: baseline {base:.6g} -> "
              f"fresh {new:.6g} ({delta:+.1f}%)")
        if not ok:
            failures += 1

    if failures:
        print(f"bench_compare: {failures} gated metric(s) regressed beyond "
              f"their tolerance", file=sys.stderr)
        return 1
    print("bench_compare: all gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
