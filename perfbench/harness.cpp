#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include <sys/resource.h>

#include "support/hash.hpp"

namespace perfbench {

using namespace rrsn;

std::uint64_t deriveSeed(std::uint64_t seed, std::string_view stream,
                         std::uint64_t index) {
  std::uint64_t h = hash::kFnvOffset;
  hash::fnvMix(h, std::string(stream));
  // splitmix64 finalizer over (seed, stream, index).
  std::uint64_t z = seed ^ h ^ (index * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const std::vector<MetricSpec>& metricCatalogue() {
  static const std::vector<MetricSpec> catalogue = {
      // End to end: what a user of the tools or the daemon sees.
      {"setup_s", "s", Scope::EndToEnd},
      {"p50_ms", "ms", Scope::EndToEnd},
      {"p99_ms", "ms", Scope::EndToEnd},
      {"rps", "1/s", Scope::EndToEnd},
      {"peak_rss_mb", "MiB", Scope::EndToEnd},
      // Per command: seconds per pass over the corpus (serve_mixed:
      // median latency of that method).
      {"analyze_s", "s", Scope::PerLayer},
      {"harden_s", "s", Scope::PerLayer},
      {"certify_s", "s", Scope::PerLayer},
      {"diagnose_s", "s", Scope::PerLayer},
      {"campaign_s", "s", Scope::PerLayer},
      // Per layer.
      {"rsn.parse_s", "s", Scope::PerLayer},
      {"rsn.lower_s", "s", Scope::PerLayer},
      {"rsn.netlist_mb", "MiB", Scope::PerLayer},
      {"lint.run_s", "s", Scope::PerLayer},
      {"crit.init_s", "s", Scope::PerLayer},
      {"crit.run_s", "s", Scope::PerLayer},
      {"crit.faults", "count", Scope::PerLayer},
      {"harden.assemble_s", "s", Scope::PerLayer},
      {"harden.extract_s", "s", Scope::PerLayer},
      {"moo.spea2_s", "s", Scope::PerLayer},
      {"moo.offspring", "count", Scope::PerLayer},
      {"moo.front_size", "count", Scope::PerLayer},
      {"verify.base_s", "s", Scope::PerLayer},
      {"verify.run_s", "s", Scope::PerLayer},
      {"verify.rows", "count", Scope::PerLayer},
      {"verify.fast_rows", "count", Scope::PerLayer},
      {"verify.fast_ratio", "ratio", Scope::PerLayer},
      {"verify.cells_per_s", "1/s", Scope::PerLayer},
      {"verify.unknown_cells", "count", Scope::PerLayer},
      {"diag.build_s", "s", Scope::PerLayer},
      {"diag.rows", "count", Scope::PerLayer},
      {"diag.diagnose_s", "s", Scope::PerLayer},
      {"diag.classes", "count", Scope::PerLayer},
      {"campaign.run_s", "s", Scope::PerLayer},
      {"campaign.probes", "count", Scope::PerLayer},
      {"campaign.probes_per_s", "1/s", Scope::PerLayer},
      {"campaign.mismatches", "count", Scope::PerLayer},
      {"serve.analyze.p50_ms", "ms", Scope::PerLayer},
      {"serve.lint.p50_ms", "ms", Scope::PerLayer},
      {"serve.harden.p50_ms", "ms", Scope::PerLayer},
      {"serve.certify.p50_ms", "ms", Scope::PerLayer},
      {"serve.diagnose.p50_ms", "ms", Scope::PerLayer},
      {"serve.campaign.p50_ms", "ms", Scope::PerLayer},
      {"serve.cache.hit_ratio", "ratio", Scope::PerLayer},
      {"serve.cache.misses", "count", Scope::PerLayer},
      {"serve.cache.coalesced", "count", Scope::PerLayer},
      {"serve.cache.evictions", "count", Scope::PerLayer},
      {"pool.cpu_util", "ratio", Scope::PerLayer},
      {"fail_ratio", "failed/attempted", Scope::PerLayer},
      {"trace.overhead", "ratio", Scope::PerLayer},
      {"trace.coverage", "ratio", Scope::PerLayer},
  };
  return catalogue;
}

namespace {

struct LayerInfo {
  const char* metric;
  const char* span;
};

constexpr std::array<LayerInfo, kLayerCount> kLayerInfo = {{
    {"rsn.parse_s", "bench.rsn.parse"},
    {"rsn.lower_s", "bench.rsn.lower"},
    {"lint.run_s", "bench.lint.run"},
    {"crit.init_s", "bench.crit.init"},
    {"crit.run_s", "bench.crit.run"},
    {"harden.assemble_s", "bench.harden.assemble"},
    {"moo.spea2_s", "bench.moo.spea2"},
    {"harden.extract_s", "bench.harden.extract"},
    {"verify.base_s", "bench.verify.base"},
    {"verify.run_s", "bench.verify.run"},
    {"diag.build_s", "bench.diag.build"},
    {"diag.diagnose_s", "bench.diag.diagnose"},
    {"campaign.run_s", "bench.campaign.run"},
}};

obs::MetricId layerSpan(Layer layer) {
  static const std::array<obs::MetricId, kLayerCount> ids = [] {
    std::array<obs::MetricId, kLayerCount> out{};
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      out[i] = obs::span(kLayerInfo[i].span);
    }
    return out;
  }();
  return ids[static_cast<std::size_t>(layer)];
}

}  // namespace

const char* layerMetric(Layer layer) {
  return kLayerInfo[static_cast<std::size_t>(layer)].metric;
}

double LayerTimes::total() const {
  double sum = 0;
  for (double s : seconds) sum += s;
  return sum;
}

LayerTimes& LayerTimes::operator+=(const LayerTimes& other) {
  for (std::size_t i = 0; i < kLayerCount; ++i) seconds[i] += other.seconds[i];
  return *this;
}

LayerScope::LayerScope(LayerTimes& into, Layer layer)
    : into_(into), layer_(layer), t0_(Clock::now()) {
  obs::spanBegin(layerSpan(layer));
}

LayerScope::~LayerScope() {
  obs::spanEnd(layerSpan(layer_));
  into_[layer_] += secondsSince(t0_);
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n == 1) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles(method="exclusive"): m = n + 1, cut points at
  // i * m / 4 with linear interpolation, clamped to the sample range.
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

double nearestRank(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void Metrics::set(const std::string& name, const Summary& s) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = s;
      return;
    }
  }
  values_.emplace_back(name, s);
}

void Metrics::set(const std::string& name, double value) {
  Summary s;
  s.median = s.q1 = s.q3 = value;
  s.n = 1;
  set(name, s);
}

json::Value Metrics::toJson(Scope scope) const {
  json::Object out;
  for (const MetricSpec& spec : metricCatalogue()) {
    if (spec.scope != scope) continue;
    const Summary* found = nullptr;
    for (const auto& [n, v] : values_) {
      if (n == spec.name) found = &v;
    }
    if (found == nullptr) {
      throw std::logic_error(std::string("metric never set: ") + spec.name);
    }
    json::Object m;
    m["value"] = json::Value(found->median);
    m["unit"] = json::Value(spec.unit);
    m["q1"] = json::Value(found->q1);
    m["q3"] = json::Value(found->q3);
    m["n"] = json::Value(static_cast<std::uint64_t>(found->n));
    out[spec.name] = json::Value(std::move(m));
  }
  return json::Value(std::move(out));
}

json::Value Metrics::valuesJson() const {
  json::Object out;
  for (const auto& [n, v] : values_) out[n] = json::Value(v.median);
  return json::Value(std::move(out));
}

void Digest::add(std::uint64_t v) { hash::fnvMix(h_, v); }

void Digest::add(std::string_view s) {
  hash::fnvMix(h_, static_cast<std::uint64_t>(s.size()));
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= hash::kFnvPrime;
  }
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void Gate::fail(const std::string& message) {
  ++failed_;
  if (messages_.size() < 20) messages_.push_back(message);
}

json::Value Gate::messages() const {
  json::Array out;
  for (const std::string& m : messages_) out.push_back(json::Value(m));
  return json::Value(std::move(out));
}

double obsCounter(const obs::Snapshot& snap, const char* name) {
  for (const auto& [id, v] : snap.counters) {
    if (snap.names[id] == name) return static_cast<double>(v);
  }
  return 0.0;
}

double obsSpanSeconds(const obs::Snapshot& snap, const char* name) {
  for (const auto& [id, s] : snap.spans) {
    if (snap.names[id] == name) return static_cast<double>(s.totalNs) / 1e9;
  }
  return 0.0;
}

double peakRssMiB() {
  // VmHWM follows resets of the mark; ru_maxrss does not.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // "VmHWM:   1234 kB"
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void resetPeakRss() {
  std::ofstream clearRefs("/proc/self/clear_refs");
  clearRefs << "5";  // 5: reset the peak RSS to the current RSS
}

double processCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

namespace {

constexpr std::size_t kProbeTableWords = std::size_t{1} << 18;  // 1 MiB
constexpr std::size_t kProbeChaseSteps = 40'000;
constexpr std::size_t kProbeMixSteps = 400'000;

std::uint64_t probeKernel(const std::vector<std::uint32_t>& next) {
  std::uint32_t p = 0;
  for (std::size_t i = 0; i < kProbeChaseSteps; ++i) p = next[p];
  std::uint64_t h = p;
  for (std::size_t i = 0; i < kProbeMixSteps; ++i) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    h ^= h >> 29;
  }
  return h;
}

}  // namespace

HostProbe::HostProbe() : table_(kProbeTableWords) {
  // Sattolo's shuffle: one cycle through the whole table.
  for (std::size_t i = 0; i < table_.size(); ++i) table_[i] = static_cast<std::uint32_t>(i);
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  for (std::size_t i = table_.size() - 1; i > 0; --i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    std::swap(table_[i], table_[state % i]);
  }
}

void HostProbe::sample() {
  static std::atomic<std::uint64_t> sink{0};
  double best = 0;
  for (int run = 0; run < 3; ++run) {
    const auto t0 = Clock::now();
    sink.fetch_xor(probeKernel(table_), std::memory_order_relaxed);
    const double s = secondsSince(t0);
    best = run == 0 ? s : std::min(best, s);
  }
  samples_.push_back(best);
}

double HostProbe::scaleSince(std::size_t from) const {
  return kReferenceSeconds /
         summarize(std::vector<double>(samples_.begin() + static_cast<std::ptrdiff_t>(from),
                                       samples_.end()))
             .median;
}

}  // namespace perfbench
