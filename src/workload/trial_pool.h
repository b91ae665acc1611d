// Thread-pool trial runner for the experiment harness.
//
// A trial is one fresh, seeded Simulator run (workload::run_trial): a pure
// function of its config and offered rate with no shared mutable state, so
// independent trials can execute on worker threads concurrently. The pool
// assigns results by index, which makes every parallel driver below
// bit-identical to its serial counterpart — the paper-figure sweeps are
// reproducible regardless of --threads.
//
// find_max_throughput parallelizes *speculatively*: the geometric rate
// schedule is known up front, so each wave of `threads` ramp points runs
// concurrently and the serial stop rules (latency cap, plateau, saturation)
// are then applied in ramp order, discarding any speculated points past the
// stop. The sweep returned is exactly the serial sweep.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "workload/runner.h"

namespace canopus::workload {

/// Runs indexed task batches on up to `threads` threads. Each batch spawns
/// its workers and joins them before returning; thread start-up is
/// negligible next to a trial. The calling thread participates as a
/// worker, so TrialPool(1) runs everything on the caller.
class TrialPool {
 public:
  /// `threads` = 0 picks the hardware concurrency (min 1).
  explicit TrialPool(unsigned threads = 0)
      : threads_(threads != 0 ? threads : default_threads()) {}

  static unsigned default_threads() {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc != 0 ? hc : 1;
  }

  unsigned threads() const { return threads_; }

  /// Runs fn(0) ... fn(n-1), each exactly once, spread over min(threads, n)
  /// threads including the caller; returns when all have finished. If any
  /// invocation throws, the first exception is rethrown here after the
  /// batch drains.
  void run_indexed(std::size_t n,
                   const std::function<void(std::size_t)>& fn) const {
    std::atomic<std::size_t> next{0};
    std::mutex error_mu;
    std::exception_ptr error;
    const auto drain = [&] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lk(error_mu);
          if (!error) error = std::current_exception();
        }
      }
    };
    {
      std::vector<std::jthread> workers;
      for (std::size_t w = 1; w < std::min<std::size_t>(threads_, n); ++w)
        workers.emplace_back(drain);
      drain();
    }  // joins the workers
    if (error) std::rethrow_exception(error);
  }

 private:
  unsigned threads_;
};

/// Parallel fixed-rate sweep: same results as the serial sweep_rates, in the
/// same order. `trial` must be safe to invoke concurrently (run_trial is:
/// each call builds an isolated Simulator from a per-trial derived seed).
inline std::vector<Measurement> sweep_rates(TrialPool& pool,
                                            const TrialFn& trial,
                                            const std::vector<double>& rates) {
  std::vector<Measurement> out(rates.size());
  pool.run_indexed(rates.size(),
                   [&](std::size_t i) { out[i] = trial(rates[i]); });
  return out;
}

/// Parallel (speculative) version of find_max_throughput: evaluates the
/// geometric ramp in waves of `pool.threads()` concurrent trials, then
/// applies the stop rules in ramp order. Bit-identical to the serial search
/// — speculated points past the stop are discarded, never reported.
inline SearchResult find_max_throughput(TrialPool& pool, const TrialFn& trial,
                                        double start_rate,
                                        double growth = kDefaultGrowth,
                                        Time latency_cap = kDefaultLatencyCap,
                                        int max_steps = kDefaultMaxSteps,
                                        int plateau_steps = kDefaultPlateauSteps) {
  detail::SearchStepper stepper(latency_cap, plateau_steps);
  const std::vector<double> rates =
      detail::SearchStepper::schedule(start_rate, growth, max_steps);
  const std::size_t wave = pool.threads() > 0 ? pool.threads() : 1;
  for (std::size_t base = 0; base < rates.size(); base += wave) {
    const std::size_t n = std::min(wave, rates.size() - base);
    std::vector<Measurement> ms(n);
    pool.run_indexed(
        n, [&](std::size_t j) { ms[j] = trial(rates[base + j]); });
    for (std::size_t j = 0; j < n; ++j)
      if (stepper.step(ms[j])) return std::move(stepper.out);
  }
  return std::move(stepper.out);
}

}  // namespace canopus::workload
