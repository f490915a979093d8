#include "check/schedule.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/parse.hpp"
#include "exp/scenario.hpp"  // format_double: round-tripping probabilities

namespace rgb::check {

const char* to_string(FaultAction action) {
  switch (action) {
    case FaultAction::kCrash: return "crash";
    case FaultAction::kRecover: return "recover";
    case FaultAction::kPartition: return "partition";
    case FaultAction::kHeal: return "heal";
    case FaultAction::kDropBurst: return "dropburst";
    case FaultAction::kHandoff: return "handoff";
    case FaultAction::kJoin: return "join";
    case FaultAction::kLeave: return "leave";
    case FaultAction::kFail: return "fail";
    case FaultAction::kChurn: return "churn";
  }
  return "?";
}

namespace {

/// Exact time rendering with the largest unit that divides it.
std::string format_time(sim::Time t) {
  std::ostringstream os;
  if (t != 0 && t % sim::kSecond == 0) {
    os << t / sim::kSecond << 's';
  } else if (t != 0 && t % sim::kMillisecond == 0) {
    os << t / sim::kMillisecond << "ms";
  } else {
    os << t << "us";
  }
  return os.str();
}

/// Digits, then a unit: us, ms or s. A time past the end of sim::Time is
/// rejected, not wrapped.
sim::Time parse_time(const std::string& token, int line_no) {
  const std::string_view text{token};
  const std::size_t split =
      std::min(text.find_first_not_of("0123456789"), text.size());
  const std::optional<std::uint64_t> value =
      common::parse_u64(text.substr(0, split));
  const std::string_view unit = text.substr(split);
  const sim::Duration scale = unit == "us"   ? sim::kMicrosecond
                              : unit == "ms" ? sim::kMillisecond
                              : unit == "s"  ? sim::kSecond
                                             : 0;
  if (!value || scale == 0 ||
      *value > std::numeric_limits<sim::Time>::max() / scale) {
    throw std::invalid_argument("schedule line " + std::to_string(line_no) +
                                ": bad time '" + token + "'");
  }
  return *value * scale;
}

std::uint64_t parse_u64(const std::string& token, int line_no) {
  const std::optional<std::uint64_t> value = common::parse_u64(token);
  if (!value) {
    throw std::invalid_argument("schedule line " + std::to_string(line_no) +
                                ": bad number '" + token + "'");
  }
  return *value;
}

double parse_probability(const std::string& token, int line_no) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0' || value < 0.0 || value > 1.0) {
    throw std::invalid_argument("schedule line " + std::to_string(line_no) +
                                ": bad probability '" + token + "'");
  }
  return value;
}

}  // namespace

std::string FaultEvent::to_line() const {
  std::ostringstream os;
  os << "at " << format_time(at) << ' ' << to_string(action);
  switch (action) {
    case FaultAction::kCrash:
    case FaultAction::kRecover:
      os << " ne " << subject;
      break;
    case FaultAction::kPartition:
      os << " ne " << subject << ' ' << arg;
      break;
    case FaultAction::kHeal:
      break;
    case FaultAction::kDropBurst:
    case FaultAction::kChurn:
      os << ' ' << exp::format_double(probability) << ' '
         << format_time(duration);
      break;
    case FaultAction::kHandoff:
    case FaultAction::kJoin:
      os << " mh " << subject << " ap " << arg;
      break;
    case FaultAction::kLeave:
    case FaultAction::kFail:
      os << " mh " << subject;
      break;
  }
  return os.str();
}

void FaultSchedule::normalize() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
}

std::string FaultSchedule::serialize() const {
  std::ostringstream os;
  os << "schedule " << (id.empty() ? "unnamed" : id) << '\n';
  for (const FaultEvent& event : events) os << event.to_line() << '\n';
  return os.str();
}

FaultSchedule parse_schedule(const std::string& text) {
  FaultSchedule schedule;
  std::istringstream in{text};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls{line};
    std::vector<std::string> tokens;
    for (std::string token; ls >> token;) {
      if (token[0] == '#') break;  // trailing comment
      tokens.push_back(std::move(token));
    }
    if (tokens.empty()) continue;
    if (tokens[0] == "schedule") {
      schedule.id = tokens.size() > 1 ? tokens[1] : "";
      continue;
    }
    const auto fail = [&](const std::string& why) {
      throw std::invalid_argument("schedule line " + std::to_string(line_no) +
                                  ": " + why + " in '" + line + "'");
    };
    if (tokens[0] != "at" || tokens.size() < 3) fail("expected 'at <time> <action>'");
    FaultEvent event;
    event.at = parse_time(tokens[1], line_no);
    const std::string& verb = tokens[2];
    // Per-verb operand validation keyed on the exact serialized shapes.
    const auto expect_tokens = [&](std::size_t n) {
      if (tokens.size() != n) fail("wrong operand count for '" + verb + "'");
    };
    if (verb == "crash" || verb == "recover") {
      expect_tokens(5);
      if (tokens[3] != "ne") fail("expected 'ne <index>'");
      event.action =
          verb == "crash" ? FaultAction::kCrash : FaultAction::kRecover;
      event.subject = parse_u64(tokens[4], line_no);
    } else if (verb == "partition") {
      expect_tokens(6);
      if (tokens[3] != "ne") fail("expected 'ne <index> <class>'");
      event.action = FaultAction::kPartition;
      event.subject = parse_u64(tokens[4], line_no);
      event.arg = parse_u64(tokens[5], line_no);
    } else if (verb == "heal") {
      expect_tokens(3);
      event.action = FaultAction::kHeal;
    } else if (verb == "dropburst" || verb == "churn") {
      expect_tokens(5);
      event.action = verb == "dropburst" ? FaultAction::kDropBurst
                                         : FaultAction::kChurn;
      event.probability = parse_probability(tokens[3], line_no);
      event.duration = parse_time(tokens[4], line_no);
    } else if (verb == "handoff" || verb == "join") {
      expect_tokens(7);
      if (tokens[3] != "mh" || tokens[5] != "ap") {
        fail("expected 'mh <guid> ap <index>'");
      }
      event.action =
          verb == "handoff" ? FaultAction::kHandoff : FaultAction::kJoin;
      event.subject = parse_u64(tokens[4], line_no);
      event.arg = parse_u64(tokens[6], line_no);
    } else if (verb == "leave" || verb == "fail") {
      expect_tokens(5);
      if (tokens[3] != "mh") fail("expected 'mh <guid>'");
      event.action =
          verb == "leave" ? FaultAction::kLeave : FaultAction::kFail;
      event.subject = parse_u64(tokens[4], line_no);
    } else {
      fail("unknown action '" + verb + "'");
    }
    schedule.events.push_back(event);
  }
  schedule.normalize();
  return schedule;
}

FaultSchedule random_schedule(const ScheduleGenConfig& config,
                              std::uint64_t seed) {
  common::RngStream rng = common::RngStream{seed}.fork("schedule");
  FaultSchedule schedule;
  schedule.id = "rand-" + std::to_string(seed);

  std::vector<FaultAction> kinds;
  if (config.crashes && config.ne_count > 0) kinds.push_back(FaultAction::kCrash);
  if (config.partitions && config.ne_count > 0) {
    kinds.push_back(FaultAction::kPartition);
  }
  if (config.drop_bursts) kinds.push_back(FaultAction::kDropBurst);
  if (config.handoffs && config.max_guid > 0 && config.ap_count > 0) {
    kinds.push_back(FaultAction::kHandoff);
  }
  if (config.churn && config.max_guid > 0 && config.ap_count > 0) {
    kinds.push_back(FaultAction::kChurn);
  }
  if (kinds.empty()) return schedule;

  bool partitioned = false;
  for (int i = 0; i < config.events; ++i) {
    FaultEvent event;
    event.at = rng.next_below(config.window);
    event.action = kinds[rng.next_below(kinds.size())];
    switch (event.action) {
      case FaultAction::kCrash: {
        event.subject = rng.next_below(config.ne_count);
        schedule.events.push_back(event);
        if (config.recover_all) {
          FaultEvent recover;
          recover.action = FaultAction::kRecover;
          recover.subject = event.subject;
          recover.at = event.at + sim::msec(500) +
                       rng.next_below(sim::msec(1500));
          schedule.events.push_back(recover);
        }
        break;
      }
      case FaultAction::kPartition: {
        event.subject = rng.next_below(config.ne_count);
        event.arg = 1 + rng.next_below(2);
        partitioned = true;
        schedule.events.push_back(event);
        break;
      }
      case FaultAction::kDropBurst: {
        event.probability = rng.uniform(0.05, 0.30);
        event.duration = sim::msec(200) + rng.next_below(sim::msec(800));
        schedule.events.push_back(event);
        break;
      }
      case FaultAction::kHandoff: {
        event.subject = 1 + rng.next_below(config.max_guid);
        event.arg = rng.next_below(config.ap_count);
        schedule.events.push_back(event);
        break;
      }
      case FaultAction::kChurn: {
        // Per-tick toggle rates around 1% sustain the mobile-internet churn
        // regime the stability layer is built for without emptying the
        // group: over a 1-3s window each member flips a handful of times.
        event.probability = rng.uniform(0.005, 0.03);
        event.duration = sim::sec(1) + rng.next_below(sim::sec(2));
        schedule.events.push_back(event);
        break;
      }
      default:
        break;
    }
  }
  // Every partition run ends healed, so eventual convergence is a fair ask.
  if (partitioned) {
    FaultEvent heal;
    heal.action = FaultAction::kHeal;
    heal.at = config.window + sim::msec(100);
    schedule.events.push_back(heal);
  }
  schedule.normalize();
  return schedule;
}

}  // namespace rgb::check
