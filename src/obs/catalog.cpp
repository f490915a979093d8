#include "obs/catalog.hpp"

#include <algorithm>
#include <array>
#include <ostream>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "obs/trace.hpp"
#include "rgb/metrics.hpp"

namespace rgb::obs {

namespace {

struct Row {
  std::string name;
  std::string type;  ///< counter|gauge|family|histogram
  std::string description;
};

std::vector<Row> catalog_rows() {
  std::vector<Row> rows;
  for (const auto& field : core::kRgbMetricFields) {
    rows.push_back({field.name, "counter", field.description});
  }
  // Gauges: Network::reset_metrics() zeroes these totals, as the scale
  // bench does between its phases, so a read can fall.
  for (const auto& field : net::kNetMetricFields) {
    rows.push_back({field.name, "gauge", field.description});
  }
  rows.insert(
      rows.end(),
      {{"net.sent.kind<K>", "family",
        "per-message-kind send counts, ordered by kind id"},
       {"net.bytes.kind<K>", "family",
        "per-message-kind payload bytes, ordered by kind id"},
       {"obs.view_changes", "counter",
        "ring-shape transitions (repair/failover/merge/...)"},
       {"obs.prof.handled.total", "gauge",
        "delivery handler invocations, all message kinds"},
       {"obs.prof.handled.kind<K>", "family",
        "per-message-kind handler invocation counts (non-zero kinds)"},
       {"obs.prof.sim_pending", "gauge", "simulator events currently pending"},
       {"obs.prof.sim_executed", "gauge", "simulator events executed so far"},
       {"obs.prof.mq_depth", "gauge",
        "membership ops parked across all NE message queues"}});
  // One dissemination histogram per core::OpKind, in kind order.
  static constexpr std::array<const char*, kOpKindCount> kKindSlugs = {
      "member_join", "member_leave", "member_handoff", "member_fail",
      "ne_join",     "ne_leave",     "ne_fail"};
  for (const std::string slug : kKindSlugs) {
    rows.push_back({"obs.lat.dissemination." + slug, "histogram",
                    "birth-to-apply latency (us) for " + slug + " ops"});
  }
  rows.insert(rows.end(),
              {{"obs.lat.join_to_root", "histogram",
                "member-join birth to first root-tier apply (us)"},
               {"obs.lat.detect.member", "histogram",
                "silent-member failure detection latency (us)"},
               {"obs.lat.detect.ne", "histogram",
                "crashed-NE detection latency (us)"}});
  return rows;
}

}  // namespace

void write_catalog(std::ostream& os) {
  const std::vector<Row> rows = catalog_rows();
  std::size_t name_width = 0;
  for (const Row& row : rows) name_width = std::max(name_width, row.name.size());
  for (const Row& row : rows) {
    os << row.name << std::string(name_width - row.name.size() + 2, ' ')
       << row.type << std::string(11 - row.type.size(), ' ')
       << row.description << '\n';
  }
}

}  // namespace rgb::obs
