#include "slpdas/core/experiment.hpp"

#include <algorithm>
#include <iterator>
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

AttackerSpec AttackerSpec::parse(std::string_view text) {
  const detail::SpecReader reader("attacker spec", text);
  const auto [r, h, m, d] = reader.fields(text, {"R", "H", "M", "D"});
  // The same bounds as attacker::AttackerParams::validate, so a bad spec
  // is refused here rather than when a cell first runs.
  AttackerSpec spec;
  if (r) {
    spec.messages_per_move = reader.read_int("R", *r, 1);
  }
  if (h) {
    spec.history_size = reader.read_int("H", *h, 0);
  }
  if (m) {
    spec.moves_per_period = reader.read_int("M", *m, 1);
  }
  if (d) {
    // '_' accepted for '-' (min_slot), like the protocol/radio specs.
    const std::optional<attacker::Decision> decision =
        attacker::parse_decision(detail::normalize_spec_name(*d));
    if (!decision) {
      std::string valid;
      for (const attacker::Decision each : attacker::kDecisions) {
        valid += valid.empty() ? "" : ", ";
        valid += attacker::to_string(each);
      }
      reader.fail("D must be one of " + valid + ", got '" + std::string(*d) +
                  "'");
    }
    spec.decision = *decision;
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

namespace {

/// The one `name[:key=value]` reader behind the protocol and radio specs.
/// `name` is one of `kinds` ('_' accepted for '-', slp_das, casino_lab);
/// only `option_kind` takes an option, the single key `option_key`, whose
/// value token goes to `read_option`.
template <typename Kind, std::size_t N, typename ReadOption>
Kind read_named_spec(std::string_view what, std::string_view text,
                     const Kind (&kinds)[N], Kind option_kind,
                     std::string_view option_key, ReadOption read_option) {
  const detail::SpecReader reader(what, text);
  const std::string normalised = detail::normalize_spec_name(text);
  const auto [name, options] = detail::SpecReader::split(normalised);
  const Kind* kind = std::find_if(
      std::begin(kinds), std::end(kinds),
      [name = name](Kind each) { return name == to_string(each); });
  if (kind == std::end(kinds)) {
    std::string valid;
    for (const Kind each : kinds) {
      valid.append(valid.empty() ? "" : ", ").append(to_string(each));
    }
    reader.fail("unknown name '" + std::string(name) + "' (valid: " + valid +
                ")");
  }
  if (options) {
    if (*kind != option_kind) {
      reader.fail(std::string(to_string(*kind)) + " takes no option");
    }
    const auto [value] = reader.fields(*options, {option_key});
    read_option(reader, *value);
  }
  return *kind;
}

}  // namespace

void apply_protocol_spec(std::string_view text, ExperimentConfig& config) {
  constexpr ProtocolKind kProtocols[] = {ProtocolKind::kProtectionlessDas,
                                         ProtocolKind::kSlpDas,
                                         ProtocolKind::kPhantomRouting};
  config.protocol = read_named_spec(
      "protocol spec", text, kProtocols, ProtocolKind::kPhantomRouting, "h",
      [&config](const detail::SpecReader& reader, std::string_view token) {
        config.phantom_walk_length = reader.read_int("h", token, 0);
      });
}

std::string format_radio_spec(RadioKind kind, double loss_probability) {
  if (kind != RadioKind::kLossy) {
    return to_string(kind);
  }
  return "lossy:p=" + detail::format_double_shortest(loss_probability);
}

void apply_radio_spec(std::string_view text, ExperimentConfig& config) {
  constexpr RadioKind kRadios[] = {RadioKind::kIdeal, RadioKind::kLossy,
                                   RadioKind::kCasinoLab};
  static constexpr detail::Interval kProbability{0.0, 1.0, false, false};
  config.radio = read_named_spec(
      "radio spec", text, kRadios, RadioKind::kLossy, "p",
      [&config](const detail::SpecReader& reader, std::string_view token) {
        config.loss_probability = reader.read_double("p", token, kProbability);
      });
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
