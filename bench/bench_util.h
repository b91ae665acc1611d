// Shared driver for the paper-figure benches.
//
// Every bench main constructs a Harness, runs its trials through the
// harness' TrialPool (independent trials execute concurrently; results are
// bit-identical to a serial run — see workload/trial_pool.h), prints the
// human-readable table, and calls finish(), which writes a machine-readable
// BENCH_<figure>.json next to the binary:
//
//   {
//     "schema": "canopus-bench-v1",
//     "figure": "fig4a", "title": ..., "paper_ref": ...,
//     "mode": "quick" | "full",
//     "threads": N,
//     "wall_clock_seconds": S,
//     "events_processed": E,      // simulator events fired, all trials
//     "events_per_second": E/S,   // the substrate perf trajectory
//     "heap_allocations": A,      // global operator-new count (alloc_count.h)
//     "allocs_per_event": A/E,    // ~0 when the hot path stays allocation-free
//     "scalars": { <figure-level numbers, e.g. shape checks> },
//     "series": [ { "name": ..., "attrs": {<strings>},
//                   "scalars": {<numbers>},
//                   "sweep": [ {offered_req_s, throughput_req_s, median_ns,
//                               p99_ns, mean_ns, completed}, ... ],
//                   "max": <measurement|null>,
//                   "points": { <label>: <measurement>, ... } }, ... ]
//   }
//
// CLI flags (shared by all benches):
//   --full            fine-grained sweeps (default: moderate "quick" depth)
//   --threads=N       trial-pool size: how many independent TRIALS run
//                     concurrently (default: hardware concurrency)
//   --sim-threads=N   shard workers INSIDE each trial (default 1 = serial
//                     event loop; >1 runs the sharded PDES kernel, one
//                     worker per rack/DC-derived shard, bit-identical
//                     results either way — see DESIGN.md Sec 10)
//   --runtime=KIND    execution backend per trial: "sim" (default, the
//                     deterministic discrete-event simulator) or "threads"
//                     (runtime::ThreadedRuntime — real node threads over
//                     SPSC mailboxes, wall-clock, hardware-dependent)
//   --json=PATH       output path (default: BENCH_<figure>.json in the cwd)
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "workload/runner.h"
#include "workload/trial.h"
#include "workload/trial_pool.h"

namespace canopus::bench {

inline double mreq(double req_per_s) { return req_per_s / 1e6; }
inline double ms(Time t) { return static_cast<double>(t) / kMillisecond; }

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

inline void print_measurement_row(const char* label,
                                  const workload::Measurement& m) {
  std::printf("  %-34s  %8.3f Mreq/s   median %8.3f ms   p99 %8.3f ms\n",
              label, mreq(m.throughput), ms(m.median), ms(m.p99));
}

/// One named result series of a figure: a sweep of measurements plus
/// free-form attributes (strings), scalars (numbers) and named extra points.
struct SeriesResult {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<std::pair<std::string, double>> scalars;
  std::vector<workload::Measurement> sweep;
  workload::Measurement max{};
  bool has_max = false;
  std::vector<std::pair<std::string, workload::Measurement>> points;

  SeriesResult& attr(std::string key, std::string value) {
    attrs.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  SeriesResult& scalar(std::string key, double value) {
    scalars.emplace_back(std::move(key), value);
    return *this;
  }
  SeriesResult& point(std::string label, const workload::Measurement& m) {
    points.emplace_back(std::move(label), m);
    return *this;
  }
  SeriesResult& search(const workload::SearchResult& res) {
    sweep = res.sweep;
    max = res.max;
    // A search that never saw a healthy point has no max: emit null, not an
    // all-zero measurement a reader would mistake for a real data point.
    has_max = res.max.completed > 0;
    return *this;
  }
};

class Harness {
 public:
  Harness(int argc, char** argv, std::string figure, std::string title,
          std::string paper_ref)
      : figure_(std::move(figure)),
        title_(std::move(title)),
        ref_(std::move(paper_ref)),
        json_path_(arg_value(argc, argv, "--json=", "BENCH_" + figure_ + ".json")),
        full_(has_flag(argc, argv, "--full")),
        sim_threads_(parse_sim_threads(argc, argv)),
        runtime_(parse_runtime(argc, argv)),
        pool_(parse_threads(argc, argv)),
        start_(std::chrono::steady_clock::now()),
        events_at_start_(simnet::Simulator::global_events()),
        allocs_at_start_(heap_allocations()) {
    print_header(title_.c_str(), ref_.c_str());
    std::printf("mode: %s   trial threads: %u   sim threads: %u   "
                "runtime: %s\n",
                full_ ? "full" : "quick", pool_.threads(), sim_threads_,
                workload::runtime_name(runtime_));
  }

  bool full() const { return full_; }
  bool quick() const { return !full_; }
  workload::TrialPool& pool() { return pool_; }

  /// Intra-trial shard workers (--sim-threads=N); 1 = serial event loop.
  /// Benches forward this into TrialConfig::sim_threads.
  unsigned sim_threads() const { return sim_threads_; }

  /// Execution backend (--runtime=sim|threads); benches forward this into
  /// TrialConfig::runtime. kThreads runs each trial on real node threads
  /// (runtime::ThreadedRuntime, DESIGN.md Sec 12) at wall-clock speed —
  /// results are then hardware-dependent, not deterministic, and trials
  /// should not run concurrently (--threads=1).
  workload::RuntimeKind runtime_kind() const { return runtime_; }

  SeriesResult& add_series(std::string name) {
    series_.emplace_back();
    series_.back().name = std::move(name);
    return series_.back();
  }

  /// Figure-level scalar (e.g. a shape-vs-paper ratio).
  void add_scalar(std::string name, double value) {
    scalars_.emplace_back(std::move(name), value);
  }

  /// Whether `flag` appears verbatim among the arguments.
  static bool has_flag(int argc, char** argv, const char* flag) {
    for (int i = 1; i < argc; ++i)
      if (std::strcmp(argv[i], flag) == 0) return true;
    return false;
  }

  /// The text after `prefix` in the first argument starting with it, or
  /// `fallback` when none does. Benches parse their own flags with this.
  static std::string arg_value(int argc, char** argv, const char* prefix,
                               std::string fallback) {
    const std::size_t len = std::strlen(prefix);
    for (int i = 1; i < argc; ++i)
      if (std::strncmp(argv[i], prefix, len) == 0) return argv[i] + len;
    return fallback;
  }

  /// Writes BENCH_<figure>.json and prints the wall clock; returns main()'s
  /// exit code (nonzero when the JSON could not be written).
  int finish() {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    const std::uint64_t events =
        simnet::Simulator::global_events() - events_at_start_;
    const std::uint64_t allocs = heap_allocations() - allocs_at_start_;
    std::FILE* f = std::fopen(json_path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path_.c_str());
      return 1;
    }
    write_json(f, wall, events, allocs);
    const bool write_failed = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || write_failed) {
      std::fprintf(stderr, "error: failed writing %s\n", json_path_.c_str());
      return 1;
    }
    std::printf(
        "\nwall clock: %.1f s   %.1f M events/s   %.3f allocs/event   "
        "results: %s\n",
        wall, wall > 0 ? static_cast<double>(events) / wall / 1e6 : 0.0,
        events > 0 ? static_cast<double>(allocs) / static_cast<double>(events)
                   : 0.0,
        json_path_.c_str());
    return 0;
  }

 private:
  static unsigned parse_threads(int argc, char** argv) {
    const std::string v = arg_value(argc, argv, "--threads=", "");
    if (v.empty()) return 0;  // TrialPool default: hardware concurrency
    const long n = std::strtol(v.c_str(), nullptr, 10);
    return n > 0 ? static_cast<unsigned>(n) : 0;
  }

  static unsigned parse_sim_threads(int argc, char** argv) {
    const std::string v = arg_value(argc, argv, "--sim-threads=", "");
    if (v.empty()) return 1;  // serial event loop
    const long n = std::strtol(v.c_str(), nullptr, 10);
    return n > 0 ? static_cast<unsigned>(n) : 1;
  }

  static workload::RuntimeKind parse_runtime(int argc, char** argv) {
    const std::string v = arg_value(argc, argv, "--runtime=", "sim");
    if (v == "threads") return workload::RuntimeKind::kThreads;
    if (v != "sim")
      std::fprintf(stderr, "warning: unknown --runtime=%s, using sim\n",
                   v.c_str());
    return workload::RuntimeKind::kSim;
  }

  static void json_string(std::FILE* f, const std::string& s) {
    std::fputc('"', f);
    for (const char c : s) {
      switch (c) {
        case '"': std::fputs("\\\"", f); break;
        case '\\': std::fputs("\\\\", f); break;
        case '\n': std::fputs("\\n", f); break;
        case '\t': std::fputs("\\t", f); break;
        default:
          if (static_cast<unsigned char>(c) < 0x20)
            std::fprintf(f, "\\u%04x", c);
          else
            std::fputc(c, f);
      }
    }
    std::fputc('"', f);
  }

  static void json_measurement(std::FILE* f, const workload::Measurement& m) {
    std::fprintf(f,
                 "{\"offered_req_s\":%.17g,\"throughput_req_s\":%.17g,"
                 "\"median_ns\":%lld,\"p99_ns\":%lld,\"mean_ns\":%.17g,"
                 "\"completed\":%llu,\"failed\":%llu}",
                 m.offered, m.throughput, static_cast<long long>(m.median),
                 static_cast<long long>(m.p99), m.mean,
                 static_cast<unsigned long long>(m.completed),
                 static_cast<unsigned long long>(m.failed));
  }

  template <typename T, typename WriteValue>
  static void json_object(std::FILE* f,
                          const std::vector<std::pair<std::string, T>>& kv,
                          WriteValue&& write_value) {
    std::fputc('{', f);
    for (std::size_t i = 0; i < kv.size(); ++i) {
      if (i > 0) std::fputc(',', f);
      json_string(f, kv[i].first);
      std::fputc(':', f);
      write_value(f, kv[i].second);
    }
    std::fputc('}', f);
  }

  void write_json(std::FILE* f, double wall, std::uint64_t events,
                  std::uint64_t allocs) const {
    const auto num = [](std::FILE* out, double v) {
      std::fprintf(out, "%.17g", v);
    };
    const auto str = [](std::FILE* out, const std::string& v) {
      json_string(out, v);
    };
    std::fputs("{\"schema\":\"canopus-bench-v1\",\"figure\":", f);
    json_string(f, figure_);
    std::fputs(",\"title\":", f);
    json_string(f, title_);
    std::fputs(",\"paper_ref\":", f);
    json_string(f, ref_);
    std::fprintf(f, ",\"mode\":\"%s\",\"threads\":%u,\"sim_threads\":%u",
                 full_ ? "full" : "quick", pool_.threads(), sim_threads_);
    std::fprintf(f, ",\"wall_clock_seconds\":%.3f", wall);
    std::fprintf(f, ",\"events_processed\":%llu",
                 static_cast<unsigned long long>(events));
    std::fprintf(f, ",\"events_per_second\":%.17g",
                 wall > 0 ? static_cast<double>(events) / wall : 0.0);
    std::fprintf(f, ",\"heap_allocations\":%llu",
                 static_cast<unsigned long long>(allocs));
    std::fprintf(f, ",\"allocs_per_event\":%.17g",
                 events > 0 ? static_cast<double>(allocs) /
                                  static_cast<double>(events)
                            : 0.0);
    std::fputs(",\"scalars\":", f);
    json_object(f, scalars_, num);
    std::fputs(",\"series\":[", f);
    for (std::size_t i = 0; i < series_.size(); ++i) {
      const SeriesResult& s = series_[i];
      if (i > 0) std::fputc(',', f);
      std::fputs("{\"name\":", f);
      json_string(f, s.name);
      std::fputs(",\"attrs\":", f);
      json_object(f, s.attrs, str);
      std::fputs(",\"scalars\":", f);
      json_object(f, s.scalars, num);
      std::fputs(",\"sweep\":[", f);
      for (std::size_t j = 0; j < s.sweep.size(); ++j) {
        if (j > 0) std::fputc(',', f);
        json_measurement(f, s.sweep[j]);
      }
      std::fputs("],\"max\":", f);
      if (s.has_max)
        json_measurement(f, s.max);
      else
        std::fputs("null", f);
      std::fputs(",\"points\":", f);
      json_object(f, s.points,
                  [](std::FILE* out, const workload::Measurement& m) {
                    json_measurement(out, m);
                  });
      std::fputc('}', f);
    }
    std::fputs("]}\n", f);
  }

  std::string figure_;
  std::string title_;
  std::string ref_;
  std::string json_path_;
  bool full_;
  unsigned sim_threads_;
  workload::RuntimeKind runtime_;
  workload::TrialPool pool_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t events_at_start_;
  std::uint64_t allocs_at_start_;
  std::deque<SeriesResult> series_;  ///< deque: add_series references stay
                                     ///< valid across later add_series calls
  std::vector<std::pair<std::string, double>> scalars_;
};

}  // namespace canopus::bench
