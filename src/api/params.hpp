// The numeric params of rrsn_tool and rrsn_serve: one name, one
// inclusive bound and one default each.  A request carries params.<name>
// and the command line --<name> with '-' for '_'; both readers go
// through parseUintBounded, so they reject the same text the same way.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "support/json.hpp"

namespace rrsn::api {

struct Param {
  std::string_view name;
  std::uint64_t lo = 0, hi = 0;
  std::uint64_t fallback = 0;  ///< none for kDeadlineMs: each front end's own
};

inline constexpr Param kSeed{"seed", 0,
                             std::numeric_limits<std::uint64_t>::max(), 2022};
inline constexpr Param kTop{"top", 1, 1'000'000, 10};
inline constexpr Param kGenerations{"generations", 1, 1'000'000, 300};
inline constexpr Param kPopulation{"population", 1, 1'000'000, 100};
inline constexpr Param kSample{"sample", 0, 100'000'000, 0};  ///< 0: all
inline constexpr Param kBudget{"budget", 1, 1'000'000, 1024};
inline constexpr Param kDeadlineMs{"deadline_ms", 1, 86'400'000, 0};
inline constexpr Param kBatch{"batch", 1, 1'000'000, 32};
inline constexpr Param kMaxReroutes{"max_reroutes", 0, 1'000'000, 8};

std::string flagOf(const Param& p);

/// A JSON integer or decimal string in `params`; nullopt when absent.
std::optional<std::uint64_t> fromFrame(const Param& p,
                                       const json::Value& params);

/// The text given for the flag.
std::uint64_t fromArg(const Param& p, std::string_view text);

}  // namespace rrsn::api
