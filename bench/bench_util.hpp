// Shared helpers for the bench binaries. Every bench prints the paper-style
// table it regenerates plus a short header naming the experiment id from
// DESIGN.md.
#pragma once

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>

#include "net/network.hpp"
#include "rgb/rgb.hpp"

namespace rgb::bench {

inline void banner(const std::string& experiment,
                   const std::string& description) {
  std::cout << "\n=== " << experiment << " ===\n"
            << description << "\n\n";
}

}  // namespace rgb::bench
