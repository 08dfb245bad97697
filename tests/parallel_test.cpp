// The parallel runtime's two promises: (1) the primitives behave like
// their serial counterparts including exception propagation, and (2)
// every public analysis result is byte-identical whatever RRSN_THREADS
// is — damage vectors, sampled syndrome rows and campaign verdicts,
// fault dictionaries and fixed-seed EA archives, on the example
// networks and on the MBIST designs of at most 40 k segments.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>

#include "benchgen/registry.hpp"
#include "crit/analyzer.hpp"
#include "diag/diagnosis.hpp"
#include "harden/hardening.hpp"
#include "moo/spea2.hpp"
#include "rsn/example_networks.hpp"
#include "rsn/flat.hpp"
#include "rsn/spec.hpp"
#include "support/parallel.hpp"
#include "test_util.hpp"

namespace rrsn {
namespace {

using test::withThreads;

// ------------------------------------------------------------ primitives

TEST(Parallel, ThreadCountFollowsSetThreadCount) {
  setThreadCount(3);
  EXPECT_EQ(threadCount(), 3u);
  setThreadCount(1);
  EXPECT_EQ(threadCount(), 1u);
}

TEST(Parallel, ForCoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    setThreadCount(threads);
    const std::size_t n = 10'000;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
  }
  setThreadCount(1);
}

TEST(Parallel, MapProducesSlotPerIndex) {
  const auto squares = withThreads(4, [] {
    return parallelMap<std::uint64_t>(
        2'000, [](std::size_t i) { return std::uint64_t{i} * i; });
  });
  ASSERT_EQ(squares.size(), 2'000u);
  for (std::size_t i = 0; i < squares.size(); ++i)
    ASSERT_EQ(squares[i], std::uint64_t{i} * i);
}

TEST(Parallel, ExceptionsPropagateToCaller) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    setThreadCount(threads);
    EXPECT_THROW(
        parallelFor(4'096,
                    [](std::size_t i) {
                      if (i == 2'000) throw Error("boom");
                    }),
        Error);
  }
  setThreadCount(1);
}

TEST(Parallel, NestedRegionsRunInline) {
  const auto total = withThreads(4, [] {
    std::atomic<std::uint64_t> sum{0};
    parallelFor(64, [&](std::size_t) {
      parallelFor(64, [&](std::size_t j) {
        sum.fetch_add(j, std::memory_order_relaxed);
      });
    });
    return sum.load();
  });
  EXPECT_EQ(total, 64u * (64u * 63u / 2u));
}

// ---------------------------------------------------------- cancellation

TEST(Cancellation, CancelIsLatching) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.cancelled());  // stays cancelled
}

TEST(Cancellation, DeadlineTripsTheToken) {
  CancellationToken token;
  token.setDeadlineFromNow(std::chrono::hours(1));
  EXPECT_FALSE(token.cancelled());
  token.setDeadlineFromNow(std::chrono::nanoseconds(0));
  EXPECT_TRUE(token.cancelled());
  // The deadline latches: moving it into the future cannot un-cancel.
  token.setDeadlineFromNow(std::chrono::hours(1));
  EXPECT_TRUE(token.cancelled());
}

TEST(Cancellation, NullTokenRunsEveryIndex) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    setThreadCount(threads);
    const std::size_t n = 4'096;
    std::vector<std::atomic<int>> hits(n);
    parallelForCancellable(n, nullptr, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
  }
  setThreadCount(1);
}

TEST(Cancellation, UntrippedTokenRunsEveryIndex) {
  const std::size_t n = 4'096;
  std::vector<std::atomic<int>> hits(n);
  CancellationToken token;
  withThreads(4, [&] {
    parallelForCancellable(n, &token, [&](std::size_t i) { ++hits[i]; });
    return 0;
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(Cancellation, PreCancelledTokenRunsNothing) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    setThreadCount(threads);
    CancellationToken token;
    token.cancel();
    std::atomic<std::size_t> ran{0};
    parallelForCancellable(4'096, &token, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 0u);
  }
  setThreadCount(1);
}

TEST(Cancellation, MidRunCancelSkipsWorkButNeverDuplicates) {
  // Cancel once a prefix of the work has run.  The contract is weak on
  // purpose (running chunks finish, unstarted chunks are skipped), so
  // assert exactly what callers may rely on: every index runs at most
  // once, and at least the triggering index ran.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    setThreadCount(threads);
    const std::size_t n = 50'000;
    std::vector<std::atomic<int>> hits(n);
    CancellationToken token;
    std::atomic<std::size_t> ran{0};
    parallelForCancellable(n, &token, [&](std::size_t i) {
      ++hits[i];
      if (ran.fetch_add(1) == 64) token.cancel();
    });
    EXPECT_TRUE(token.cancelled());
    EXPECT_GE(ran.load(), 65u);
    EXPECT_LT(ran.load(), n);  // the tail never started
    for (std::size_t i = 0; i < n; ++i) ASSERT_LE(hits[i].load(), 1);
  }
  setThreadCount(1);
}

// ----------------------------------------------------------- determinism
//
// The hard requirement of the runtime: public results must not depend on
// the thread count.  Each case computes the same artifact at 1 and 4
// workers and compares for exact equality.

TEST(ParallelDeterminism, CriticalityDamagesMatchAcrossThreadCounts) {
  const rsn::Network net = benchgen::buildBenchmark("MBIST_1_5_5");
  Rng rng(7);
  const rsn::CriticalitySpec spec = rsn::randomSpec(net, {}, rng);
  const auto run = [&] {
    return crit::CriticalityAnalyzer(net, spec).run().damages();
  };
  const auto serial = withThreads(1, run);
  const auto pooled = withThreads(4, run);
  EXPECT_EQ(serial, pooled);

  const auto oracle = [&] {
    return test::bruteForceAnalysis(net, spec).damages();
  };
  EXPECT_EQ(withThreads(1, oracle), withThreads(4, oracle));
}

void expectSameDictionaryAtOneAndFourThreads(const rsn::Network& net) {
  const auto build = [&] { return diag::FaultDictionary::build(net); };
  const auto serial = withThreads(1, build);
  const auto pooled = withThreads(4, build);
  ASSERT_EQ(serial.faults().size(), pooled.faults().size()) << net.name();
  EXPECT_EQ(serial.faultFreeSyndrome(), pooled.faultFreeSyndrome())
      << net.name();
  for (std::size_t k = 0; k < serial.faults().size(); ++k) {
    ASSERT_EQ(serial.faults()[k], pooled.faults()[k]) << net.name();
    ASSERT_EQ(serial.syndromeOf(k), pooled.syndromeOf(k))
        << net.name() << " fault " << k;
  }
}

TEST(ParallelDeterminism, FaultDictionarySyndromesMatchAcrossThreadCounts) {
  expectSameDictionaryAtOneAndFourThreads(rsn::makeFig1Network());
}

void expectSameArchive(const moo::RunResult& serial,
                       const moo::RunResult& pooled) {
  ASSERT_EQ(serial.archive.members().size(), pooled.archive.members().size());
  for (std::size_t i = 0; i < serial.archive.members().size(); ++i)
    ASSERT_TRUE(serial.archive.members()[i] == pooled.archive.members()[i])
        << "archive member " << i;
  EXPECT_EQ(serial.stats.evaluations, pooled.stats.evaluations);
}

TEST(ParallelDeterminism, Spea2ArchiveMatchesAcrossThreadCounts) {
  const rsn::Network net = benchgen::buildBenchmark("MBIST_1_5_5");
  Rng rng(11);
  const rsn::CriticalitySpec spec = rsn::randomSpec(net, {}, rng);
  const auto analysis = crit::CriticalityAnalyzer(net, spec).run();
  const auto problem = harden::HardeningProblem::assemble(net, analysis);
  moo::EvolutionOptions options;
  options.populationSize = 40;
  options.generations = 25;
  options.seed = 2022;
  const auto run = [&] { return moo::runSpea2(problem.linear, options); };
  expectSameArchive(withThreads(1, run), withThreads(4, run));
}

// ------------------------------------------------ the small MBIST tier
//
// Every pooled stage on the MBIST designs of at most 40 k segments, under
// the random spec of seed 1, at 1 against 4 workers.

class TierDeterminism : public ::testing::TestWithParam<const char*> {
 protected:
  const benchgen::BenchmarkSpec& spec() const {
    return benchgen::findBenchmark(GetParam());
  }
  static rsn::CriticalitySpec seededSpec(const rsn::Network& net) {
    Rng rng(1);
    return rsn::randomSpec(net, {}, rng);
  }
};

TEST_P(TierDeterminism, CriticalityDamages) {
  const rsn::Network net = benchgen::buildBenchmark(spec());
  const rsn::CriticalitySpec cspec = seededSpec(net);
  const crit::CriticalityAnalyzer analyzer(net, cspec);
  const auto run = [&] { return analyzer.run().damages(); };
  EXPECT_EQ(withThreads(1, run), withThreads(4, run));
}

TEST_P(TierDeterminism, SampledRowsAndCampaignVerdicts) {
  const rsn::Network net = benchgen::buildBenchmark(spec());
  const auto flat = rsn::FlatNetwork::lower(net);
  const auto run = [&] { return test::sampledStages(flat, net, 32, 64); };
  const test::SampledStages serial = withThreads(1, run);
  EXPECT_EQ(serial.rows.size(), 32u);
  EXPECT_EQ(serial.verdicts.size(), 64u);
  EXPECT_TRUE(serial == withThreads(4, run));
}

TEST_P(TierDeterminism, Spea2ArchiveAtPaperPopulation) {
  const rsn::Network net = benchgen::buildBenchmark(spec());
  const rsn::CriticalitySpec cspec = seededSpec(net);
  const auto analysis = crit::CriticalityAnalyzer(net, cspec).run();
  const auto problem = harden::HardeningProblem::assemble(net, analysis);
  moo::EvolutionOptions options;
  options.populationSize = spec().populationSize();
  options.generations = 50;
  options.maxInitOnes = 100'000;
  options.seed = 1;
  const auto run = [&] { return moo::runSpea2(problem.linear, options); };
  expectSameArchive(withThreads(1, run), withThreads(4, run));
}

const auto kDesignName = [](const ::testing::TestParamInfo<const char*>& i) {
  return std::string(i.param);
};

INSTANTIATE_TEST_SUITE_P(SmallMbistTier, TierDeterminism,
                         ::testing::Values("MBIST_1_5_5", "MBIST_1_5_20",
                                           "MBIST_1_20_20", "MBIST_2_5_5",
                                           "MBIST_2_5_20", "MBIST_2_20_20",
                                           "MBIST_5_5_5", "MBIST_5_20_20"),
                         kDesignName);

// The full dictionary grows with faults x vertices; it runs on the
// tier's designs of at most 12,000 segments.
class TierDictionaryDeterminism
    : public ::testing::TestWithParam<const char*> {};

TEST_P(TierDictionaryDeterminism, Syndromes) {
  expectSameDictionaryAtOneAndFourThreads(
      benchgen::buildBenchmark(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(SmallMbistTier, TierDictionaryDeterminism,
                         ::testing::Values("MBIST_1_5_5", "MBIST_1_5_20",
                                           "MBIST_1_20_20", "MBIST_2_5_5",
                                           "MBIST_2_5_20", "MBIST_5_5_5"),
                         kDesignName);

}  // namespace
}  // namespace rrsn
