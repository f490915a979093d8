// rgb_wire — round-trip and fuzz driver for the wire codec.
//
//   rgb_wire list                      # registered kinds, names, sample sizes
//   rgb_wire roundtrip [--iters N] [--seed S]
//       For every registered kind: generate randomized messages
//       (unrestricted field ranges), encode, decode, re-encode; the two
//       encodings must be byte-identical (exit 1 otherwise).
//   rgb_wire fuzz [--iters N] [--seed S]
//       Mutate valid encodings (truncation, bit flips, random corruption)
//       and decode: every outcome must be a clean accept or a clean
//       DecodeError — any crash/UB is the failure (run under sanitizers in
//       development; CI runs a bounded smoke). A mutant that still decodes
//       must re-encode decodably (decode is a normalizing total function on
//       its accepted set).
//
// Exit code 0 = all good; 1 = a property failed; 2 = usage error (N and S
// are decimal digits: no sign, no space, no 0x prefix). `--help` after a
// command prints the usage.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "common/rng.hpp"
#include "wire/arbitrary.hpp"
#include "wire/codec.hpp"
#include "wire/registry.hpp"

namespace {

using rgb::wire::ArbitraryOptions;
using rgb::wire::WireRegistry;

std::uint64_t arg_u64(int argc, char** argv, int& i, const char* flag) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "rgb_wire: %s needs a value\n", flag);
    std::exit(2);
  }
  const char* text = argv[++i];
  const std::optional<std::uint64_t> value = rgb::common::parse_u64(text);
  if (!value) {
    std::fprintf(stderr, "rgb_wire: %s needs a decimal number, got '%s'\n",
                 flag, text);
    std::exit(2);
  }
  return *value;
}

int list_kinds(std::uint64_t seed) {
  rgb::common::RngStream rng{seed};
  const auto& registry = WireRegistry::global();
  std::printf("%-6s %-18s %s\n", "kind", "name", "sample encoded bytes");
  for (const auto kind : registry.kinds()) {
    const auto* codec = registry.find(kind);
    const auto payload = rgb::wire::arbitrary_payload(kind, rng);
    std::printf("%-6u %-18s %u\n", kind, codec->name,
                registry.encoded_size(kind, payload));
  }
  return 0;
}

int roundtrip(std::uint64_t iters, std::uint64_t seed) {
  rgb::common::RngStream rng{seed};
  const auto& registry = WireRegistry::global();
  std::uint64_t checked = 0;
  for (const auto kind : registry.kinds()) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      ArbitraryOptions options;
      options.realistic = i % 2 == 0;  // alternate profiles
      const auto payload = rgb::wire::arbitrary_payload(kind, rng, options);
      std::vector<std::uint8_t> encoded;
      if (!registry.encode(kind, payload, encoded)) {
        std::fprintf(stderr, "FAIL kind %u: encode refused\n", kind);
        return 1;
      }
      if (encoded.size() != registry.encoded_size(kind, payload)) {
        std::fprintf(stderr, "FAIL kind %u: encoded_size %u != actual %zu\n",
                     kind, registry.encoded_size(kind, payload),
                     encoded.size());
        return 1;
      }
      const auto decoded = registry.decode(encoded);
      if (!decoded.ok()) {
        std::fprintf(stderr, "FAIL kind %u iter %llu: decode error %s @%zu\n",
                     kind, static_cast<unsigned long long>(i),
                     rgb::wire::to_string(decoded.error().status),
                     decoded.error().offset);
        return 1;
      }
      std::vector<std::uint8_t> reencoded;
      if (!registry.encode(decoded.value().kind, decoded.value().payload,
                           reencoded) ||
          reencoded != encoded) {
        std::fprintf(stderr, "FAIL kind %u iter %llu: re-encode differs\n",
                     kind, static_cast<unsigned long long>(i));
        return 1;
      }
      ++checked;
    }
  }
  std::printf("roundtrip OK: %llu messages over %zu kinds, byte-identical\n",
              static_cast<unsigned long long>(checked),
              registry.kinds().size());
  return 0;
}

int fuzz(std::uint64_t iters, std::uint64_t seed) {
  rgb::common::RngStream rng{seed};
  const auto& registry = WireRegistry::global();
  const auto kinds = registry.kinds();
  std::uint64_t accepted = 0, rejected = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const auto kind = kinds[rng.next_below(kinds.size())];
    ArbitraryOptions options;
    options.realistic = false;
    const auto payload = rgb::wire::arbitrary_payload(kind, rng, options);
    std::vector<std::uint8_t> bytes;
    if (!registry.encode(kind, payload, bytes)) return 1;
    // Mutate: truncate, flip bits, or splat random bytes.
    switch (rng.next_below(3)) {
      case 0:
        bytes.resize(rng.next_below(bytes.size() + 1));
        break;
      case 1: {
        const std::uint64_t flips = 1 + rng.next_below(4);
        for (std::uint64_t f = 0; f < flips && !bytes.empty(); ++f) {
          bytes[rng.next_below(bytes.size())] ^=
              static_cast<std::uint8_t>(1U << rng.next_below(8));
        }
        break;
      }
      default: {
        for (std::uint64_t f = 0; f < 4 && !bytes.empty(); ++f) {
          bytes[rng.next_below(bytes.size())] =
              static_cast<std::uint8_t>(rng.next_below(256));
        }
        break;
      }
    }
    const auto decoded = registry.decode(bytes);
    if (!decoded.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    // Accepted mutants must re-encode into something decodable (decode
    // normalizes: minimal varints only, so accepted implies canonical).
    std::vector<std::uint8_t> reencoded;
    if (!registry.encode(decoded.value().kind, decoded.value().payload,
                         reencoded)) {
      std::fprintf(stderr, "FAIL: accepted mutant re-encode refused\n");
      return 1;
    }
    if (reencoded != bytes) {
      std::fprintf(stderr,
                   "FAIL: accepted mutant not canonical (re-encode differs, "
                   "kind %u iter %llu)\n",
                   decoded.value().kind, static_cast<unsigned long long>(i));
      return 1;
    }
  }
  std::printf("fuzz OK: %llu mutants, %llu clean rejects, %llu accepted "
              "(all canonical)\n",
              static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(accepted));
  return 0;
}

int usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: rgb_wire list [--seed S]\n"
               "       rgb_wire roundtrip [--iters N] [--seed S]\n"
               "       rgb_wire fuzz [--iters N] [--seed S]\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(2);
  const std::string command = argv[1];
  std::uint64_t iters = command == "fuzz" ? 20000 : 200;
  std::uint64_t seed = 0x31125EEDULL;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--iters") {
      iters = arg_u64(argc, argv, i, "--iters");
    } else if (arg == "--seed") {
      seed = arg_u64(argc, argv, i, "--seed");
    } else {
      std::fprintf(stderr, "rgb_wire: unknown option '%s'\n", argv[i]);
      return usage(2);
    }
  }
  if (command == "list") return list_kinds(seed);
  if (command == "roundtrip") return roundtrip(iters, seed);
  if (command == "fuzz") return fuzz(iters, seed);
  if (command == "--help" || command == "-h") return usage(0);
  std::fprintf(stderr, "rgb_wire: unknown command '%s'\n", command.c_str());
  return usage(2);
}
