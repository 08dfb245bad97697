#include "diag/diagnosis.hpp"

#include <algorithm>
#include <limits>
#include <tuple>

#include "obs/obs.hpp"
#include "rsn/flat.hpp"
#include "sim/retarget.hpp"
#include "support/hash.hpp"
#include "support/parallel.hpp"
#include "verify/certifier.hpp"

namespace rrsn::diag {

Syndrome FaultDictionary::measure(const rsn::Network& net,
                                  const fault::Fault* f) {
  return measureMulti(net, f != nullptr ? std::vector<fault::Fault>{*f}
                                        : std::vector<fault::Fault>{});
}

Syndrome FaultDictionary::measureMulti(const rsn::Network& net,
                                       const std::vector<fault::Fault>& faults) {
  const std::size_t n = net.instruments().size();
  Syndrome syn;
  syn.passed = DynamicBitset(2 * n);
  // One arena for all 2n retargeters; each probe still starts from a
  // fresh simulator.
  const auto flat = rsn::FlatNetwork::lower(net);
  for (rsn::InstrumentId i = 0; i < n; ++i) {
    const auto len = net.segment(net.instrument(i).segment).length;
    {
      sim::ScanSimulator simulator(net);
      simulator.injectFaults(faults);
      sim::Retargeter rt(simulator, *flat);
      if (rt.readInstrument(i).success) syn.passed.set(2 * i);
    }
    {
      sim::ScanSimulator simulator(net);
      simulator.injectFaults(faults);
      sim::Retargeter rt(simulator, *flat);
      if (rt.writeInstrument(i, sim::accessMarker(len)).success)
        syn.passed.set(2 * i + 1);
    }
  }
  return syn;
}

Syndrome composeSyndromes(const Syndrome& a, const Syndrome& b) {
  RRSN_CHECK(a.passed.size() == b.passed.size(),
             "cannot compose syndromes of different networks");
  Syndrome out;
  out.passed = a.passed;
  out.passed &= b.passed;
  return out;
}

FaultDictionary FaultDictionary::build(const rsn::Network& net) {
  RRSN_OBS_SPAN("diag.dictionary_build");
  static const obs::MetricId kSyndromes = obs::counter("diag.syndromes");
  verify::CertifyOptions options;
  options.fixpointBudget = std::numeric_limits<std::size_t>::max();
  options.crossCheck = verify::crossCheckDefault();
  const verify::CertificationResult cert = verify::Certifier(net).run(options);

  // The certifier's canonical fault order is the FaultUniverse order.
  // Fault-free, an instrument passes both accesses iff it is reachable.
  FaultDictionary dict;
  dict.net_ = &net;
  dict.faults_ = cert.universe;
  const std::size_t n = cert.instruments;
  dict.faultFree_.passed = DynamicBitset(2 * n);
  cert.reachable.forEachSet([&](std::size_t i) {
    dict.faultFree_.passed.set(2 * i);
    dict.faultFree_.passed.set(2 * i + 1);
  });
  dict.syndromes_ =
      parallelMap<Syndrome>(dict.faults_.size(), [&](std::size_t k) {
        Syndrome row{DynamicBitset(2 * n)};
        for (std::size_t i = 0; i < n; ++i) {
          if (cert.read(k, i) == verify::Verdict::Proven)
            row.passed.set(2 * i);
          if (cert.write(k, i) == verify::Verdict::Proven)
            row.passed.set(2 * i + 1);
        }
        return row;
      });
  obs::count(kSyndromes, dict.syndromes_.size());
  dict.buildIndex();
  return dict;
}

void FaultDictionary::buildIndex() {
  const std::size_t n = syndromes_.size();
  popcounts_.resize(n);
  classes_.clear();
  classIndex_.clear();
  classIndex_.reserve(n);
  for (std::uint32_t k = 0; k < n; ++k) {
    popcounts_[k] = static_cast<std::uint32_t>(syndromes_[k].passed.count());
    auto& bucket = classIndex_[hash::fingerprint(syndromes_[k].passed)];
    const auto same = std::find_if(
        bucket.begin(), bucket.end(), [&](std::uint32_t c) {
          return syndromes_[classes_[c].front()] == syndromes_[k];
        });
    if (same != bucket.end()) {
      classes_[*same].push_back(k);
    } else {
      bucket.push_back(static_cast<std::uint32_t>(classes_.size()));
      classes_.push_back({k});
    }
  }
}

const Syndrome& FaultDictionary::syndromeOf(std::size_t faultIndex) const {
  RRSN_CHECK(faultIndex < syndromes_.size(), "fault index out of range");
  return syndromes_[faultIndex];
}

Diagnosis FaultDictionary::diagnose(const Syndrome& observed) const {
  Diagnosis d;
  if (observed == faultFree_) {
    d.faultFree = true;
    return d;
  }
  // Exact matches: the members of the observation's syndrome class, found
  // by one hash probe; a full comparison guards against fingerprint
  // collisions.
  if (const auto it = classIndex_.find(hash::fingerprint(observed.passed));
      it != classIndex_.end()) {
    for (const std::uint32_t c : it->second) {
      if (!(syndromes_[classes_[c].front()] == observed)) continue;
      for (const std::uint32_t k : classes_[c])
        d.exactMatches.push_back(faults_[k]);
      return d;
    }
  }

  // Nearest search with a popcount lower bound: |popcount(a) -
  // popcount(b)| <= hamming(a, b), so entries that cannot reach the
  // current best distance are skipped without touching their words.
  const std::size_t observedCount = observed.passed.count();
  std::size_t best = ~std::size_t{0};
  for (std::size_t k = 0; k < faults_.size(); ++k) {
    const std::size_t pc = popcounts_[k];
    const std::size_t lower =
        pc > observedCount ? pc - observedCount : observedCount - pc;
    if (lower > best) continue;
    const std::size_t dist = syndromes_[k].distanceToAtMost(observed, best);
    if (dist > best) continue;
    if (dist < best) {
      best = dist;
      d.nearestMatches.clear();
    }
    d.nearestMatches.push_back(faults_[k]);
  }
  d.nearestDistance = best;
  return d;
}

FaultDictionary::PairDiagnosis FaultDictionary::diagnosePair(
    const Syndrome& observed) const {
  PairDiagnosis d;
  if (observed == faultFree_) {
    d.faultFree = true;
    return d;
  }
  // Composition depends only on a class representative's row, so
  // candidate pairs are found class-by-class and expanded to member
  // pairs only on a match — quadratic in |classes|, not |faults|.
  const std::uint64_t observedPrint = hash::fingerprint(observed.passed);
  for (std::size_t ci = 0; ci < classes_.size(); ++ci) {
    const Syndrome& rowA = syndromes_[classes_[ci].front()];
    for (std::size_t cj = ci; cj < classes_.size(); ++cj) {
      const Syndrome& rowB = syndromes_[classes_[cj].front()];
      const Syndrome composed = composeSyndromes(rowA, rowB);
      if (hash::fingerprint(composed.passed) != observedPrint ||
          !(composed == observed)) {
        continue;
      }
      for (std::size_t x = 0; x < classes_[ci].size(); ++x) {
        const std::size_t yBegin = ci == cj ? x + 1 : 0;
        for (std::size_t y = yBegin; y < classes_[cj].size(); ++y) {
          std::uint32_t ka = classes_[ci][x], kb = classes_[cj][y];
          if (ka > kb) std::swap(ka, kb);
          if (fault::contradictory(faults_[ka], faults_[kb])) continue;
          d.exactPairCount += 1;
          if (d.exactPairs.size() < PairDiagnosis::kMaxListedPairs)
            d.exactPairs.emplace_back(faults_[ka], faults_[kb]);
        }
      }
    }
  }
  std::sort(d.exactPairs.begin(), d.exactPairs.end(),
            [](const auto& lhs, const auto& rhs) {
              return std::tie(lhs.first.kind, lhs.first.prim,
                              lhs.first.stuckBranch, lhs.second.kind,
                              lhs.second.prim, lhs.second.stuckBranch) <
                     std::tie(rhs.first.kind, rhs.first.prim,
                              rhs.first.stuckBranch, rhs.second.kind,
                              rhs.second.prim, rhs.second.stuckBranch);
            });

  // Composition is only a bound, so cross-check the first candidates
  // end to end on the simulator.  A candidate that re-measures
  // differently is a pair whose interaction (masking) escapes the
  // row-union model — the campaign layer itemizes those.
  const std::size_t limit =
      std::min(d.exactPairs.size(), PairDiagnosis::kMaxVerifiedPairs);
  for (std::size_t p = 0; p < limit; ++p) {
    const Syndrome measured = measureMulti(
        *net_, {d.exactPairs[p].first, d.exactPairs[p].second});
    if (measured == observed) {
      d.verifiedBySimulation = true;
      break;
    }
  }
  return d;
}

FaultDictionary::Resolution FaultDictionary::resolution() const {
  std::vector<bool> none(net_->primitiveCount(), false);
  return resolutionExcluding(none);
}

FaultDictionary::Resolution FaultDictionary::resolutionExcluding(
    const std::vector<bool>& hardenedLinear) const {
  RRSN_CHECK(hardenedLinear.size() == net_->primitiveCount(),
             "hardening mask does not match the network");
  Resolution r;
  std::size_t sumSquares = 0;
  for (const std::vector<std::uint32_t>& members : classes_) {
    std::size_t size = 0;  // members at unhardened primitives
    for (const std::uint32_t k : members)
      if (!hardenedLinear[net_->linearId(fault::refOf(faults_[k]))]) ++size;
    r.faults += size;
    if (size == 0 || syndromes_[members.front()] == faultFree_) continue;
    r.detectable += size;
    r.classes += 1;
    sumSquares += size * size;
  }
  if (r.detectable > 0) {
    // Mean ambiguity, fault-weighted: E[|class of f|].
    r.avgAmbiguity = static_cast<double>(sumSquares) /
                     static_cast<double>(r.detectable);
  }
  return r;
}

}  // namespace rrsn::diag
