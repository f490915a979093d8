#include "obs/profile.hpp"

#include "sim/simulator.hpp"

namespace rgb::obs {

void HandlerProfiler::configure_shards(std::uint32_t count) {
  stripes_.assign(count == 0 ? 1 : count, Stripe{});
}

HandlerProfiler::Stripe& HandlerProfiler::stripe() {
  const std::uint32_t s = sim::current_executing_shard();
  return stripes_[s < stripes_.size() ? s : 0];
}

void HandlerProfiler::on_handled(net::MessageKind kind) {
  ++stripe().handled[slot_of(kind)];
}

HandlerProfiler::PerKind HandlerProfiler::handled_per_kind() const {
  PerKind out{};
  for (const Stripe& s : stripes_) {
    for (std::size_t k = 0; k < kMaxKinds; ++k) out[k] += s.handled[k];
  }
  return out;
}

std::uint64_t HandlerProfiler::handled_total() const {
  std::uint64_t total = 0;
  for (const Stripe& s : stripes_) {
    for (const std::uint64_t n : s.handled) total += n;
  }
  return total;
}

void HandlerProfiler::clear() {
  for (Stripe& s : stripes_) s = Stripe{};
}

}  // namespace rgb::obs
