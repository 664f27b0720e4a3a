#include "slpdas/core/experiment.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "slpdas/detail/spec_format.hpp"

namespace slpdas::core {

const char* to_string(ProtocolKind kind) noexcept {
  switch (kind) {
    case ProtocolKind::kProtectionlessDas:
      return "protectionless-das";
    case ProtocolKind::kSlpDas:
      return "slp-das";
    case ProtocolKind::kPhantomRouting:
      return "phantom-routing";
  }
  return "unknown";
}

const char* to_string(RadioKind kind) noexcept {
  switch (kind) {
    case RadioKind::kIdeal:
      return "ideal";
    case RadioKind::kLossy:
      return "lossy";
    case RadioKind::kCasinoLab:
      return "casino-lab";
  }
  return "unknown";
}

attacker::AttackerParams AttackerSpec::build(wsn::NodeId start) const {
  attacker::AttackerParams params;
  params.messages_per_move = messages_per_move;
  params.history_size = history_size;
  params.moves_per_period = moves_per_period;
  params.start = start;
  params.decision = decision;
  params.validate();
  return params;
}

namespace {

/// Parses the value of key R, H or M: an integer >= `minimum`.
int parse_spec_int(std::string_view spec, std::string_view key,
                   std::string_view token, int minimum) {
  const std::optional<int> value = detail::parse_int_token(token);
  if (!value || *value < minimum) {
    throw std::invalid_argument(
        "attacker spec '" + std::string(spec) + "': " + std::string(key) +
        " must be an integer >= " + std::to_string(minimum) + ", got '" +
        std::string(token) + "'");
  }
  return *value;
}

}  // namespace

AttackerSpec AttackerSpec::parse(std::string_view text) {
  AttackerSpec spec;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = std::min(text.find(',', start), text.size());
    const std::string_view item = text.substr(start, comma - start);
    start = comma + 1;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("attacker spec '" + std::string(text) +
                                  "': expected key=value, got '" +
                                  std::string(item) + "'");
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    // The same bounds as attacker::AttackerParams::validate, so a bad
    // spec is refused here rather than when a cell first runs.
    if (key == "R") {
      spec.messages_per_move = parse_spec_int(text, key, value, 1);
    } else if (key == "H") {
      spec.history_size = parse_spec_int(text, key, value, 0);
    } else if (key == "M") {
      spec.moves_per_period = parse_spec_int(text, key, value, 1);
    } else if (key == "D") {
      // '_' accepted for '-' (min_slot), like the protocol/radio specs.
      const std::optional<attacker::Decision> decision =
          attacker::parse_decision(detail::normalize_spec_name(value));
      if (!decision) {
        std::string valid;
        for (const attacker::Decision d : attacker::kDecisions) {
          valid += valid.empty() ? "" : ", ";
          valid += attacker::to_string(d);
        }
        throw std::invalid_argument("attacker spec '" + std::string(text) +
                                    "': unknown decision '" +
                                    std::string(value) + "' (valid: " +
                                    valid + ")");
      }
      spec.decision = *decision;
    } else {
      throw std::invalid_argument("attacker spec '" + std::string(text) +
                                  "': unknown key '" + std::string(key) +
                                  "' (valid: R, H, M, D)");
    }
  }
  return spec;
}

std::string AttackerSpec::to_spec() const {
  std::string out = "R=";
  out += std::to_string(messages_per_move);
  out += ",H=";
  out += std::to_string(history_size);
  out += ",M=";
  out += std::to_string(moves_per_period);
  out += ",D=";
  out += attacker::to_string(decision);
  return out;
}

std::unique_ptr<sim::RadioModel> make_radio(const ExperimentConfig& config) {
  switch (config.radio) {
    case RadioKind::kIdeal:
      return sim::make_ideal_radio();
    case RadioKind::kLossy:
      return sim::make_lossy_radio(config.loss_probability);
    case RadioKind::kCasinoLab:
      return sim::make_casino_lab_noise(config.casino);
  }
  throw std::invalid_argument("make_radio: unknown radio kind");
}

std::string format_protocol_spec(ProtocolKind kind, int phantom_walk_length) {
  std::string out = to_string(kind);
  if (kind == ProtocolKind::kPhantomRouting) {
    out += ":h=";
    out += std::to_string(phantom_walk_length);
  }
  return out;
}

void apply_protocol_spec(std::string_view text, ExperimentConfig& config) {
  // '_' is accepted for '-' so shell-friendly names like slp_das work.
  const std::string name = detail::normalize_spec_name(text);
  std::string_view spec(name);
  std::string_view option;
  const std::size_t colon = spec.find(':');
  if (colon != std::string_view::npos) {
    option = spec.substr(colon + 1);
    spec = spec.substr(0, colon);
  }
  if (spec == to_string(ProtocolKind::kProtectionlessDas)) {
    config.protocol = ProtocolKind::kProtectionlessDas;
  } else if (spec == to_string(ProtocolKind::kSlpDas)) {
    config.protocol = ProtocolKind::kSlpDas;
  } else if (spec == to_string(ProtocolKind::kPhantomRouting)) {
    config.protocol = ProtocolKind::kPhantomRouting;
  } else {
    throw std::invalid_argument(
        "protocol spec '" + std::string(text) +
        "': unknown protocol (valid: protectionless-das, slp-das, "
        "phantom-routing[:h=<walk length>])");
  }
  if (colon == std::string_view::npos) {
    return;
  }
  constexpr std::string_view kWalkKey = "h=";
  if (config.protocol != ProtocolKind::kPhantomRouting ||
      option.substr(0, kWalkKey.size()) != kWalkKey) {
    throw std::invalid_argument("protocol spec '" + std::string(text) +
                                "': only phantom-routing takes an option, "
                                "h=<walk length>");
  }
  const std::optional<int> walk =
      detail::parse_int_token(option.substr(kWalkKey.size()));
  if (!walk || *walk < 0) {
    throw std::invalid_argument("protocol spec '" + std::string(text) +
                                "': h must be a non-negative integer");
  }
  config.phantom_walk_length = *walk;
}

std::string format_radio_spec(RadioKind kind, double loss_probability) {
  if (kind != RadioKind::kLossy) {
    return to_string(kind);
  }
  return "lossy:p=" + detail::format_double_shortest(loss_probability);
}

void apply_radio_spec(std::string_view text, ExperimentConfig& config) {
  // '_' accepted for '-' (casino_lab); the p= option has no underscores.
  const std::string name = detail::normalize_spec_name(text);
  std::string_view spec(name);
  std::string_view option;
  const std::size_t colon = spec.find(':');
  if (colon != std::string_view::npos) {
    option = spec.substr(colon + 1);
    spec = spec.substr(0, colon);
  }
  if (spec == to_string(RadioKind::kIdeal)) {
    config.radio = RadioKind::kIdeal;
  } else if (spec == to_string(RadioKind::kCasinoLab)) {
    config.radio = RadioKind::kCasinoLab;
  } else if (spec == "lossy") {
    config.radio = RadioKind::kLossy;
  } else {
    throw std::invalid_argument(
        "radio spec '" + std::string(text) +
        "': unknown radio (valid: ideal, lossy[:p=<probability>], "
        "casino-lab)");
  }
  if (colon == std::string_view::npos) {
    return;
  }
  constexpr std::string_view kLossKey = "p=";
  if (config.radio != RadioKind::kLossy ||
      option.substr(0, kLossKey.size()) != kLossKey) {
    throw std::invalid_argument("radio spec '" + std::string(text) +
                                "': only lossy takes an option, "
                                "p=<loss probability>");
  }
  const std::optional<double> p =
      detail::parse_double_token(option.substr(kLossKey.size()));
  if (!p || *p < 0.0 || *p > 1.0) {
    throw std::invalid_argument("radio spec '" + std::string(text) +
                                "': p must be a probability in [0, 1]");
  }
  config.loss_probability = *p;
}

ExperimentResult aggregate_runs(const std::vector<RunResult>& runs,
                                bool check_schedules) {
  ExperimentResult aggregate;
  aggregate.runs = static_cast<int>(runs.size());
  for (const RunResult& run : runs) {
    aggregate.capture.add(run.captured);
    if (run.capture_time_s) {
      aggregate.capture_time_s.add(*run.capture_time_s);
    }
    aggregate.delivery_ratio.add(run.delivery_ratio);
    aggregate.delivery_latency_s.add(run.delivery_latency_s);
    aggregate.control_messages_per_node.add(run.control_messages_per_node);
    aggregate.normal_messages_per_node.add(run.normal_messages_per_node);
    aggregate.attacker_moves.add(run.attacker_moves);
    if (run.schedule_complete) {
      aggregate.slot_band_span.add(run.schedule_slot_span);
      aggregate.schedule_density.add(run.schedule_density);
    }
    aggregate.schedule_incomplete_runs += run.schedule_complete ? 0 : 1;
    if (check_schedules) {
      aggregate.weak_das_failures += run.weak_das_ok ? 0 : 1;
      aggregate.strong_das_failures += run.strong_das_ok ? 0 : 1;
    }
    aggregate.events_executed += run.events_executed;
    aggregate.deliveries += run.deliveries;
    aggregate.timer_fires += run.timer_fires;
  }
  return aggregate;
}

}  // namespace slpdas::core
