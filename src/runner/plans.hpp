// Named bench plans for the sweep engine.
//
// A Plan packages one experiment's per-unit body — build a Scenario (or a
// bare testbed) from (seed, config point), run it, distill a SeedRecord —
// together with its config-point labels, pooled-estimate declarations and
// exit gate. Every scenario experiment is a plan: sweep_cli is the one
// driver that runs, renders and gates them, and the chaos test suites fan
// the *same* run bodies across threads through runner::run_sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "runner/sweep.hpp"

namespace aqueduct::runner {

struct Plan {
  std::string name;
  std::string description;
  /// Requests per client when the caller does not override.
  std::size_t default_requests = 0;
  /// Config-point labels; units are generated point-major over these.
  std::vector<std::string> points;
  std::vector<BinomialSpec> binomials;
  /// The per-unit body. Must be shared-nothing (see sweep.hpp).
  std::function<SeedRecord(const Unit&, std::size_t requests)> run;
  /// Exit gate over a finished sweep of this plan: the failure reason, or
  /// an empty string when it passes. Every registered plan fails when a
  /// unit threw or when pooled `violations` is nonzero, plus whatever
  /// plan-specific conditions it adds.
  std::function<std::string(const SweepSpec&, const SweepResult&)> check;
};

/// All registered plans, in a stable order.
const std::vector<Plan>& plans();

/// nullptr when no plan has that name.
const Plan* find_plan(const std::string& name);

/// The one invariant collector. Violation counters stay 0 on a healthy
/// run; the chaos tests and every plan check assert exactly that.
///   liveness    — each client's reads completed + abandoned == expected;
///   staleness   — no reply staler than its client's threshold;
///   GSN         — no GSN bound to two requests (gsn_conflicts);
///   CSN         — a live primary's store version equals its CSN;
///   divergence  — live primaries within 2 commits of their shard's max;
///   placement   — every stored key hashes to its replica's shard
///                 (leaked_keys: an update crossed group boundaries).
/// Shards are independent groups, so each is checked on its own with slot
/// 0 as its sequencer. CSN and divergence skip crashed, recovering and
/// non-primary replicas; GSN and placement hold on every slot.
struct Invariants {
  std::uint64_t liveness_violations = 0;
  std::uint64_t staleness_violations = 0;
  std::uint64_t gsn_conflicts = 0;
  std::uint64_t csn_mismatches = 0;
  std::uint64_t divergences = 0;
  std::uint64_t leaked_keys = 0;

  /// Everything but liveness: what a run cut short must still satisfy.
  std::uint64_t safety_violations() const {
    return staleness_violations + gsn_conflicts + csn_mismatches +
           divergences + leaked_keys;
  }
  /// One counter per rule, plus their sum as `violations`.
  void report(SeedRecord& rec) const;
};

/// Checks `scenario` after a run whose clients each expected
/// `expected_reads` reads.
Invariants collect_invariants(harness::Scenario& scenario,
                              const std::vector<harness::ClientResult>& results,
                              std::uint64_t expected_reads);

/// Builds the SweepSpec fanning `seed_count` consecutive seeds from
/// `seed_begin` across every config point of `plan` (point-major, so the
/// merged rows group by point). `requests` 0 keeps the plan default.
SweepSpec make_spec(const Plan& plan, std::uint64_t seed_begin,
                    std::size_t seed_count, std::size_t threads,
                    std::size_t requests = 0);

}  // namespace aqueduct::runner
