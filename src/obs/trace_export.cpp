#include "obs/trace_export.hpp"

#include <algorithm>
#include <ostream>
#include <vector>

#include "rgb/messages.hpp"
#include "rgb/types.hpp"

namespace rgb::obs {

namespace {

/// Slug for a message kind, nullptr for kinds the exporter does not know
/// (rendered as "k<N>" so a new kind degrades readably, not wrongly).
const char* message_kind_slug(net::MessageKind k) {
  namespace mk = core::kind;
  switch (k) {
    case mk::kToken: return "token";
    case mk::kNotifyParent: return "notify_parent";
    case mk::kNotifyChild: return "notify_child";
    case mk::kTokenPassAck: return "token_pass_ack";
    case mk::kTokenRequest: return "token_request";
    case mk::kTokenGrant: return "token_grant";
    case mk::kTokenRelease: return "token_release";
    case mk::kHolderAck: return "holder_ack";
    case mk::kRepair: return "repair";
    case mk::kChildRebind: return "child_rebind";
    case mk::kProbe: return "probe";
    case mk::kProbeAck: return "probe_ack";
    case mk::kMergeOffer: return "merge_offer";
    case mk::kMergeAccept: return "merge_accept";
    case mk::kRingReform: return "ring_reform";
    case mk::kNeJoinRequest: return "ne_join_request";
    case mk::kNeLeaveRequest: return "ne_leave_request";
    case mk::kViewSync: return "view_sync";
    case mk::kSnapshotRequest: return "snapshot_request";
    case mk::kSnapshot: return "snapshot";
    case mk::kReconcile: return "reconcile";
    case mk::kReconcileAck: return "reconcile_ack";
    case mk::kSnapshotAck: return "snapshot_ack";
    case mk::kAlert: return "alert";
    case mk::kAlertAck: return "alert_ack";
    case mk::kMhRequest: return "mh_request";
    case mk::kMhAck: return "mh_ack";
    case mk::kMhHeartbeat: return "mh_heartbeat";
    case mk::kQueryRequest: return "query_request";
    case mk::kQueryReply: return "query_reply";
    default: return nullptr;
  }
}

void write_message_kind(std::ostream& os, std::uint64_t kind) {
  const char* slug =
      message_kind_slug(static_cast<net::MessageKind>(kind));
  if (slug != nullptr) {
    os << slug;
  } else {
    os << 'k' << kind;
  }
}

/// Emits the shared prefix of every event object and tracks the
/// between-event comma.
class EventWriter {
 public:
  explicit EventWriter(std::ostream& os) : os_(os) {}

  std::ostream& begin(sim::Time ts, std::uint64_t tid, char ph) {
    if (!first_) os_ << ",\n";
    first_ = false;
    os_ << R"({"pid":1,"tid":)" << tid << R"(,"ts":)" << ts << R"(,"ph":")"
        << ph << '"';
    return os_;
  }

  /// Metadata events carry no timestamp.
  std::ostream& begin_meta(std::uint64_t tid) {
    if (!first_) os_ << ",\n";
    first_ = false;
    os_ << R"({"pid":1,"tid":)" << tid << R"(,"ph":"M")";
    return os_;
  }

 private:
  std::ostream& os_;
  bool first_ = true;
};

}  // namespace

void write_chrome_trace(std::ostream& os, const OpTracer& tracer) {
  const std::vector<Span> all_spans = tracer.spans();
  const std::vector<FlightEvent> all_flight = tracer.flight_events();

  // One track per NE that recorded anything, sorted by id so the metadata
  // block (and Perfetto's default track order) is deterministic.
  std::vector<std::uint64_t> nes;
  nes.reserve(all_spans.size() + all_flight.size());
  for (const Span& s : all_spans) nes.push_back(s.ne.value());
  for (const FlightEvent& e : all_flight) nes.push_back(e.ne.value());
  std::sort(nes.begin(), nes.end());
  nes.erase(std::unique(nes.begin(), nes.end()), nes.end());

  os << "{\"traceEvents\":[\n";
  EventWriter w{os};
  w.begin_meta(0) << R"(,"name":"process_name","args":{"name":"rgb-sim"}})";
  for (const std::uint64_t ne : nes) {
    w.begin_meta(ne) << R"(,"name":"thread_name","args":{"name":"ne)" << ne
                     << R"("}})";
  }

  for (const Span& s : all_spans) {
    const std::uint64_t tid = s.ne.value();
    switch (s.kind) {
      case SpanKind::kOpRoot: {
        auto& o = w.begin(s.at, tid, 'i');
        o << R"(,"s":"t","cat":"op","name":"op_born.)"
          << core::to_string(static_cast<core::OpKind>(s.a))
          << R"(","args":{"trace":)" << s.trace << R"(,"span":)" << s.id
          << R"(,"uid":)" << s.b << "}}";
        break;
      }
      case SpanKind::kSend: {
        auto& o = w.begin(s.at, tid, 'X');
        o << R"(,"dur":1,"cat":"hop","name":"send.)";
        write_message_kind(o, s.a);
        o << R"(","args":{"trace":)" << s.trace << R"(,"span":)" << s.id
          << R"(,"parent":)" << s.parent << R"(,"dst":)" << s.b << "}}";
        // Flow start: the arrow leaves the send slice; the matching "f"
        // is emitted by the handler span carrying this id as its parent.
        w.begin(s.at, tid, 's')
            << R"(,"cat":"hop","name":"hop","id":)" << s.id << '}';
        break;
      }
      case SpanKind::kHandler: {
        auto& o = w.begin(s.at, tid, 'X');
        o << R"(,"dur":1,"cat":"hop","name":"handle.)";
        write_message_kind(o, s.a);
        o << R"(","args":{"trace":)" << s.trace << R"(,"span":)" << s.id
          << R"(,"parent":)" << s.parent << R"(,"src":)" << s.b << "}}";
        if (s.parent != 0) {
          w.begin(s.at, tid, 'f')
              << R"(,"cat":"hop","name":"hop","bp":"e","id":)" << s.parent
              << '}';
        }
        break;
      }
      case SpanKind::kApply: {
        auto& o = w.begin(s.at, tid, 'i');
        o << R"(,"s":"t","cat":"op","name":"apply.)"
          << core::to_string(static_cast<core::OpKind>(s.a))
          << R"(","args":{"trace":)" << s.trace << R"(,"span":)" << s.id
          << R"(,"parent":)" << s.parent << R"(,"uid":)" << s.b << "}}";
        break;
      }
    }
  }

  for (const FlightEvent& e : all_flight) {
    const FlightOperandNames names = flight_operand_names(e.kind);
    auto& o = w.begin(e.at, e.ne.value(), 'i');
    o << R"(,"s":"t","cat":"flight","name":"flight.)" << to_string(e.kind)
      << R"(","args":{")" << names.a << R"(":)" << e.a;
    if (names.b != nullptr) o << R"(,")" << names.b << R"(":)" << e.b;
    o << "}}";
  }

  // Drop counters make a truncated export honest: a ring overwrite shows
  // up here, not as a silently shorter timeline.
  const OpTracer::RingCounts spans = tracer.span_counts();
  const OpTracer::RingCounts flight = tracer.flight_counts();
  os << "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{"
     << "\"spans_recorded\":" << spans.recorded
     << ",\"spans_dropped\":" << spans.dropped
     << ",\"flight_recorded\":" << flight.recorded
     << ",\"flight_dropped\":" << flight.dropped << "}}\n";
}

}  // namespace rgb::obs
