#include "api/params.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace rrsn::api {

std::string flagOf(const Param& p) {
  std::string flag = "--" + std::string(p.name);
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

std::optional<std::uint64_t> fromFrame(const Param& p,
                                       const json::Value& params) {
  static const json::Value kAbsent;
  const json::Value& v = params.get(std::string(p.name), kAbsent);
  if (v.isNull()) return std::nullopt;
  const std::string context = "param " + std::string(p.name);
  if (v.kind() == json::Kind::String) {
    return parseUintBounded(v.asString(), context, p.lo, p.hi);
  }
  if (v.kind() != json::Kind::Int) {
    throw UsageError(context + " must be an unsigned integer");
  }
  // A negative integer fails the digits-only rule, as "-3" does.
  return parseUintBounded(std::to_string(v.asInt()), context, p.lo, p.hi);
}

std::uint64_t fromArg(const Param& p, std::string_view text) {
  return parseUintBounded(text, flagOf(p), p.lo, p.hi);
}

}  // namespace rrsn::api
