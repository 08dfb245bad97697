// Shared pieces of the repository benchmark: the metric catalogue, the
// benchmark-owned layer timers, run statistics, output digests and the
// correctness gate.  See README.md for what each workload and metric
// means.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"
#include "support/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small corpora and budgets; used by the self-tests.
  bool shortTier = false;
  /// Test hook: "verdict" flips one certifier verdict, "reply" one served
  /// reply, and "summary" adds an Unknown cell to every served
  /// certification and a mismatch to every served campaign, before the
  /// correctness gate sees them.
  std::string corrupt;
};

/// Derives an independent seed for one input stream (spec draws, EA
/// runs, injected faults, campaign samples, request sequences) from the
/// single workload seed.
std::uint64_t deriveSeed(std::uint64_t seed, std::string_view stream,
                         std::uint64_t index = 0);

// ----------------------------------------------------------- catalogue

enum class Scope { EndToEnd, PerLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  Scope scope;
};

/// Every metric a run reports: end-to-end metrics in untraced runs,
/// per-layer metrics in traced runs.  Each workload reports all of them
/// (layers a workload never enters read 0).
const std::vector<MetricSpec>& metricCatalogue();

// -------------------------------------------------------------- layers

/// Benchmark-owned layers.  Each wraps one call into a module's public
/// API; jobs are sequences of these calls, so a job's wall time splits
/// into layer times with no nesting between them.
enum class Layer : std::size_t {
  Parse,
  Lower,
  Lint,
  CritInit,
  CritRun,
  Assemble,
  Spea2,
  Extract,
  VerifyBase,
  VerifyRun,
  DiagBuild,
  DiagDiagnose,
  CampaignRun,
  Count,
};
constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::Count);

/// Per-layer metric name, e.g. "rsn.parse_s".
const char* layerMetric(Layer layer);

struct LayerTimes {
  std::array<double, kLayerCount> seconds{};

  double& operator[](Layer l) { return seconds[static_cast<std::size_t>(l)]; }
  double operator[](Layer l) const {
    return seconds[static_cast<std::size_t>(l)];
  }
  double total() const;
  LayerTimes& operator+=(const LayerTimes& other);
};

/// RAII timer of one layer call: adds its wall time to `into` and opens
/// a benchmark-owned obs span ("bench.<layer>") for traced runs.  The
/// span's own cost falls inside the timed interval.
class LayerScope {
 public:
  LayerScope(LayerTimes& into, Layer layer);
  ~LayerScope();
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  LayerTimes& into_;
  Layer layer_;
  Clock::time_point t0_;
};

template <typename Fn>
decltype(auto) timed(LayerTimes& into, Layer layer, Fn&& fn) {
  LayerScope scope(into, layer);
  return fn();
}

// ---------------------------------------------------------- statistics

/// Median and quartiles as Python's statistics.quantiles(n=4) computes
/// them; a single sample is its own median and quartiles.
struct Summary {
  double median = 0, q1 = 0, q3 = 0;
  std::size_t n = 0;
};
Summary summarize(std::vector<double> samples);

/// Nearest-rank percentile (p in (0, 1]).
double nearestRank(std::vector<double> samples, double p);

/// Metric values of one run, keyed by catalogue name.
class Metrics {
 public:
  void set(const std::string& name, const Summary& s);
  void set(const std::string& name, double value);
  void setSamples(const std::string& name, const std::vector<double>& v) {
    set(name, summarize(v));
  }
  /// JSON object {name: {value, unit, q1, q3, n}} over the catalogue
  /// entries of `scope`; throws if one of them was never set.
  rrsn::json::Value toJson(Scope scope) const;
  /// JSON object {name: value} over every metric set.
  rrsn::json::Value valuesJson() const;

 private:
  std::vector<std::pair<std::string, Summary>> values_;
};

// --------------------------------------------------------------- gate

/// FNV-1a digest over job outputs, so two builds can be checked for
/// identical results at the same seed.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(std::string_view s);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Counts attempted and failed jobs; keeps the first failure messages.
class Gate {
 public:
  void attempt() { ++attempted_; }
  void fail(const std::string& message);
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  rrsn::json::Value messages() const;

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> messages_;
};

// ------------------------------------------------------------ process

/// A counter's total and a span's total seconds in an obs snapshot (0
/// when never recorded).
double obsCounter(const rrsn::obs::Snapshot& snap, const char* name);
double obsSpanSeconds(const rrsn::obs::Snapshot& snap, const char* name);

/// High-water resident set size of this process since the last
/// resetPeakRss(), MiB (since start where the mark cannot be reset).
double peakRssMiB();

/// Restarts the high-water mark at the current resident set (Linux
/// /proc/self/clear_refs), so a peak can leave out set-up and gate work.
void resetPeakRss();

/// User + system CPU time of this process, seconds.
double processCpuSeconds();

// ---------------------------------------------------------- host speed

/// Host speed probe.  On a shared virtual machine the host's speed
/// drifts: a fixed loop outside the benchmark slowed by 1.5x within
/// minutes, with CPU time equal to wall time, and every job of a run
/// slowed with it.  Between measurements, outside their timing, the
/// probe times a fixed single-threaded kernel that does not call the
/// program: a pointer chase through a private 1 MiB table plus integer
/// arithmetic.  The host's speed also flickers (one run of the kernel
/// took 1.4 to 4 ms on one vCPU within a second), so a sample is the
/// best of three back-to-back runs, and timed values are scaled by many
/// samples: a run reports measured seconds times kReferenceSeconds over
/// the median of the samples taken during it.  A change to the program
/// cannot move the probe as long as the program leaves no thread running
/// between jobs; reports show the probe times, so a shift of them stays
/// visible.
class HostProbe {
 public:
  /// Probe time that defines the reference host speed.
  static constexpr double kReferenceSeconds = 0.0012;

  HostProbe();
  /// Runs the kernel three times and records the best time.
  void sample();
  /// Samples recorded so far.
  std::size_t count() const { return samples_.size(); }
  /// Factor from measured to reference seconds: kReferenceSeconds over
  /// the median of the samples recorded from index `from` on.
  double scaleSince(std::size_t from) const;
  /// Every sample, seconds.
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<std::uint32_t> table_;
  std::vector<double> samples_;
};

// ----------------------------------------------------------- workloads

/// What a workload run hands back to main: the gate, its digests and the
/// metric values.  Workloads fill every catalogue metric of the scope the
/// run reports.
struct RunOutput {
  Gate gate;
  rrsn::json::Object digests;  ///< job name -> digest hex
  rrsn::json::Object jobSeconds;   ///< batch job -> median wall time (untraced)
  rrsn::json::Object jobCoverage;  ///< batch job -> least layer coverage (traced)
  rrsn::json::Array corpus;    ///< design names
  Metrics metrics;
  /// Untraced runs: setup_s, p50_ms, p99_ms and rps from measured
  /// seconds, not scaled to reference host speed.
  Metrics unscaled;
  std::vector<double> probeSeconds;  ///< every host probe sample
};

RunOutput runBatchWorkload(const Options& options);
RunOutput runServeMixed(const Options& options);

/// Median time of repeated calls of `setup`, in seconds: at least 3
/// calls, more (up to 200) while they take under a second in all, so a
/// set-up of a few milliseconds is not a single noisy reading.  The last
/// call's product is kept in `out`.  The previous product is released,
/// untimed, before the next call, so two never live at once.
template <typename T, typename Fn>
double timedSetup(T& out, Fn&& setup) {
  std::vector<double> samples;
  double spent = 0;
  while (samples.size() < 3 || (spent < 1.0 && samples.size() < 200)) {
    out = T{};
    const auto t0 = Clock::now();
    out = setup();
    samples.push_back(secondsSince(t0));
    spent += samples.back();
  }
  return summarize(samples).median;
}

}  // namespace perfbench
