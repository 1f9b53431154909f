// Staleness factor estimation (paper Sections 5.1.3 and 5.4.1).
//
// The staleness of the secondary group at request-transmission time t is
// A_s(t) = N_u(t_l): the number of update requests the primary group has
// received since the last lazy update. The client estimates
// P(A_s(t) <= a) probabilistically instead of probing the primaries:
//   * a Poisson arrival model with rate λ_u (the paper's choice), or
//   * an empirical model resampling observed inter-update gaps (the paper
//     notes the approach generalizes to non-Poisson arrivals).
//
// λ_u and the elapsed-since-lazy-update duration t_l are recovered from the
// lazy publisher's performance broadcasts: <n_u, t_u> histories for the
// rate, and the latest <n_L, t_L> plus the local receive timestamp for t_l
// via t_l = (t_L + t_z) mod T_L.
#pragma once

#include <cstdint>
#include <vector>

#include "core/qos.hpp"
#include "core/sliding_window.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace aqueduct::core {

/// P(N <= a) for N ~ Poisson(mean). Numerically stable for large means
/// (log-space terms via the reentrant lgamma_r). Thread-safe.
double poisson_cdf(double mean, std::uint64_t a);

/// Estimates the update arrival rate λ_u from a sliding window of
/// <n_u, t_u> pairs published by the lazy publisher (Section 5.4.1):
/// λ_u = Σ n_u^i / Σ t_u^i over the window.
class ArrivalRateEstimator {
 public:
  explicit ArrivalRateEstimator(std::size_t window_size)
      : window_(window_size) {}

  void record(std::uint32_t updates, sim::Duration interval) {
    window_.push({updates, interval});
  }

  /// Updates per second; 0 if no data or no elapsed time observed.
  double rate_per_second() const {
    std::uint64_t updates = 0;
    sim::Duration elapsed = sim::Duration::zero();
    window_.for_each([&](const Sample& s) {
      updates += s.updates;
      elapsed += s.interval;
    });
    if (elapsed <= sim::Duration::zero()) return 0.0;
    return static_cast<double>(updates) / sim::to_sec(elapsed);
  }

  bool has_data() const { return !window_.empty(); }

 private:
  struct Sample {
    std::uint32_t updates;
    sim::Duration interval;
  };
  SlidingWindow<Sample> window_;
};

/// Tracks the most recent <n_L, t_L> broadcast and reconstructs the
/// duration t_l elapsed since the last lazy update at any later instant:
/// t_l = (t_L + t_z) mod T_L, where t_z is the time since the broadcast was
/// received and T_L the lazy-update period (Section 5.4.1).
class LazyIntervalTracker {
 public:
  void record(sim::Duration t_l_at_publish, sim::Duration period,
              sim::TimePoint received_at) {
    t_l_at_publish_ = t_l_at_publish;
    period_ = period;
    received_at_ = received_at;
    has_data_ = true;
  }

  bool has_data() const { return has_data_; }
  sim::Duration period() const { return period_; }

  /// Estimated time since the last lazy update, at instant `now`.
  sim::Duration elapsed_since_lazy_update(sim::TimePoint now) const {
    if (!has_data_ || period_ <= sim::Duration::zero()) {
      return sim::Duration::zero();
    }
    const sim::Duration t_z = now - received_at_;
    const auto total = (t_l_at_publish_ + t_z).count();
    return sim::Duration(total % period_.count());
  }

 private:
  bool has_data_ = false;
  sim::Duration t_l_at_publish_ = sim::Duration::zero();
  sim::Duration period_ = sim::Duration::zero();
  sim::TimePoint received_at_ = sim::kEpoch;
};

/// Interface: P(A_s(t) <= a) given the elapsed time since the last lazy
/// update.
class StalenessModel {
 public:
  virtual ~StalenessModel() = default;
  virtual double staleness_factor(Staleness a, sim::Duration elapsed) const = 0;
};

/// The paper's model: update arrivals ~ Poisson(λ_u), so
/// P(A_s(t) <= a) = P(N_u(t_l) <= a) = Σ_{n=0}^{a} (λ_u t_l)^n e^{-λ_u t_l}/n!.
class PoissonStalenessModel final : public StalenessModel {
 public:
  explicit PoissonStalenessModel(double rate_per_second)
      : rate_per_second_(rate_per_second) {}

  double staleness_factor(Staleness a, sim::Duration elapsed) const override {
    const double mean = rate_per_second_ * sim::to_sec(elapsed);
    return poisson_cdf(mean, a);
  }

  double rate_per_second() const { return rate_per_second_; }

 private:
  double rate_per_second_;
};

/// Non-Poisson variant (paper Section 5.1.3 notes this is possible):
/// estimates P(N(t_l) <= a) by Monte-Carlo resampling of observed
/// inter-update gaps. Useful when arrivals are bursty.
class EmpiricalStalenessModel final : public StalenessModel {
 public:
  /// `gaps`: recent inter-update intervals; `seed`: for resampling
  /// determinism; `resamples`: Monte-Carlo iterations.
  EmpiricalStalenessModel(std::vector<sim::Duration> gaps, std::uint64_t seed,
                          std::size_t resamples = 200);

  double staleness_factor(Staleness a, sim::Duration elapsed) const override;

 private:
  std::vector<sim::Duration> gaps_;
  mutable sim::Rng rng_;
  std::size_t resamples_;
};

}  // namespace aqueduct::core
