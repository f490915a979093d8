// Strict parsing of unsigned numbers from outside input: command-line flags
// and schedule files. strtoull is too lenient for that job: it skips
// leading space, negates a '-' into a huge value, reads "0x"/"0" prefixes
// as hex/octal and saturates on overflow, so a typo becomes a different
// run instead of an error.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace rgb::common {

/// `text` as a decimal std::uint64_t: one or more digits and nothing else
/// (no sign, no whitespace, no base prefix), within range. nullopt
/// otherwise.
[[nodiscard]] inline std::optional<std::uint64_t> parse_u64(
    std::string_view text) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

}  // namespace rgb::common
