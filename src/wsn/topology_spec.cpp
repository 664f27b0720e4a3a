#include "slpdas/wsn/topology_spec.hpp"

#include <optional>
#include <stdexcept>
#include <vector>

#include "slpdas/detail/spec_format.hpp"

namespace slpdas::wsn {

namespace {

using detail::format_double_shortest;

[[noreturn]] void reject(std::string_view text, const std::string& why) {
  throw std::invalid_argument("topology spec '" + std::string(text) +
                              "': " + why);
}

int parse_int(std::string_view text, std::string_view token) {
  const std::optional<int> value = detail::parse_int_token(token);
  if (!value) {
    reject(text, "'" + std::string(token) + "' is not an integer");
  }
  return *value;
}

std::uint64_t parse_u64(std::string_view text, std::string_view token) {
  const std::optional<std::uint64_t> value = detail::parse_u64_token(token);
  if (!value) {
    reject(text, "'" + std::string(token) + "' is not an unsigned integer");
  }
  return *value;
}

double parse_positive_double(std::string_view text, std::string_view token,
                             std::string_view key) {
  const std::optional<double> value = detail::parse_double_token(token);
  if (!value) {
    reject(text, "'" + std::string(token) + "' is not a number");
  }
  if (!(*value > 0.0)) {
    reject(text, std::string(key) + " must be > 0, got '" +
                     std::string(token) + "'");
  }
  return *value;
}

/// Splits "a:b:c" into segments (an empty segment is a grammar error the
/// caller reports via the segment's use).
std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t at = text.find(sep, start);
    if (at == std::string_view::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, at - start));
    start = at + 1;
  }
}

void validate(std::string_view text, const TopologySpec& spec) {
  switch (spec.kind) {
    case TopologySpec::Kind::kGrid:
      if (spec.width < 1 || spec.height < 1) {
        reject(text, "grid dimensions must be >= 1");
      }
      if (static_cast<std::int64_t>(spec.width) * spec.height < 2) {
        reject(text, "grid needs at least 2 nodes (source != sink)");
      }
      if (!(spec.spacing > 0.0)) {
        reject(text, "spacing must be > 0");
      }
      break;
    case TopologySpec::Kind::kLine:
      if (spec.width < 2) {
        reject(text, "line needs at least 2 nodes");
      }
      if (!(spec.spacing > 0.0)) {
        reject(text, "spacing must be > 0");
      }
      break;
    case TopologySpec::Kind::kRing:
      if (spec.width < 3) {
        reject(text, "ring needs at least 3 nodes");
      }
      if (!(spec.spacing > 0.0)) {
        reject(text, "spacing must be > 0");
      }
      break;
    case TopologySpec::Kind::kUnitDisk:
      if (spec.width < 2) {
        reject(text, "udisk needs n >= 2");
      }
      if (!(spec.radio_range > 0.0) || !(spec.area_side > 0.0)) {
        reject(text, "udisk r and area must be > 0");
      }
      if (spec.max_attempts < 1) {
        reject(text, "udisk attempts must be >= 1");
      }
      break;
  }
  if (spec.node_count() > TopologySpec::kMaxNodes) {
    reject(text, std::to_string(spec.node_count()) +
                     " nodes exceeds the ceiling of " +
                     std::to_string(TopologySpec::kMaxNodes) +
                     " (TopologySpec::kMaxNodes)");
  }
}

}  // namespace

TopologySpec TopologySpec::grid(int side, double spacing) {
  if (side < 3 || side % 2 == 0) {
    throw std::invalid_argument(
        "TopologySpec::grid: side must be odd and >= 3 so a centre sink "
        "exists, got " +
        std::to_string(side));
  }
  TopologySpec spec;
  spec.kind = Kind::kGrid;
  spec.width = side;
  spec.height = side;
  spec.spacing = spacing;
  validate(spec.to_string(), spec);
  return spec;
}

TopologySpec TopologySpec::parse(std::string_view text) {
  const std::vector<std::string_view> segments = split(text, ':');
  const std::string_view kind = segments[0];

  if (kind == "grid" || kind == "line" || kind == "ring") {
    if (segments.size() < 2 || segments[1].empty()) {
      reject(text, "expected '" + std::string(kind) + ":<size>'");
    }
    TopologySpec spec;
    if (kind == "grid") {
      spec.kind = Kind::kGrid;
      const std::size_t cross = segments[1].find('x');
      if (cross == std::string_view::npos) {
        // Square form: the paper's evaluation grid, centre sink required.
        const int side = parse_int(text, segments[1]);
        if (side < 3 || side % 2 == 0) {
          reject(text,
                 "square grid side must be odd and >= 3 so a centre sink "
                 "exists (use grid:WxH for other shapes)");
        }
        spec.width = side;
        spec.height = side;
      } else {
        spec.width = parse_int(text, segments[1].substr(0, cross));
        spec.height = parse_int(text, segments[1].substr(cross + 1));
      }
    } else {
      spec.kind = kind == "line" ? Kind::kLine : Kind::kRing;
      spec.width = parse_int(text, segments[1]);
      spec.height = 1;
    }
    if (segments.size() > 3) {
      reject(text, "too many ':' segments");
    }
    if (segments.size() == 3) {
      const std::string_view option = segments[2];
      constexpr std::string_view kSpacingKey = "spacing=";
      if (option.substr(0, kSpacingKey.size()) != kSpacingKey) {
        reject(text, "unknown option '" + std::string(option) +
                         "' (expected spacing=<metres>)");
      }
      spec.spacing = parse_positive_double(
          text, option.substr(kSpacingKey.size()), "spacing");
    }
    validate(text, spec);
    return spec;
  }

  if (kind == "udisk") {
    if (segments.size() != 2 || segments[1].empty()) {
      reject(text, "expected 'udisk:n=<count>,r=<range>[,area=][,seed=]"
                   "[,attempts=]'");
    }
    TopologySpec spec;
    spec.kind = Kind::kUnitDisk;
    spec.width = 0;
    spec.height = 1;
    bool have_n = false;
    for (const std::string_view item : split(segments[1], ',')) {
      const std::size_t eq = item.find('=');
      if (eq == std::string_view::npos) {
        reject(text, "expected key=value, got '" + std::string(item) + "'");
      }
      const std::string_view key = item.substr(0, eq);
      const std::string_view value = item.substr(eq + 1);
      if (key == "n") {
        spec.width = parse_int(text, value);
        have_n = true;
      } else if (key == "r") {
        spec.radio_range = parse_positive_double(text, value, "r");
      } else if (key == "area") {
        spec.area_side = parse_positive_double(text, value, "area");
      } else if (key == "seed") {
        spec.seed = parse_u64(text, value);
      } else if (key == "attempts") {
        spec.max_attempts = parse_int(text, value);
      } else {
        reject(text, "unknown key '" + std::string(key) +
                         "' (valid: n, r, area, seed, attempts)");
      }
    }
    if (!have_n) {
      reject(text, "udisk requires n=<node count>");
    }
    validate(text, spec);
    return spec;
  }

  reject(text, "unknown topology kind '" + std::string(kind) +
                   "' (valid: grid, line, ring, udisk)");
}

std::string TopologySpec::to_string() const {
  std::string out;
  switch (kind) {
    case Kind::kGrid:
      out = "grid:";
      if (width == height && width % 2 == 1 && width >= 3) {
        out += std::to_string(width);
      } else {
        out += std::to_string(width) + "x" + std::to_string(height);
      }
      if (spacing != 4.5) {
        out += ":spacing=" + format_double_shortest(spacing);
      }
      return out;
    case Kind::kLine:
    case Kind::kRing:
      out = kind == Kind::kLine ? "line:" : "ring:";
      out += std::to_string(width);
      if (spacing != 4.5) {
        out += ":spacing=" + format_double_shortest(spacing);
      }
      return out;
    case Kind::kUnitDisk:
      out = "udisk:n=" + std::to_string(width) +
            ",r=" + format_double_shortest(radio_range);
      if (area_side != 100.0) {
        out += ",area=" + format_double_shortest(area_side);
      }
      if (seed != 1) {
        out += ",seed=" + std::to_string(seed);
      }
      if (max_attempts != 64) {
        out += ",attempts=" + std::to_string(max_attempts);
      }
      return out;
  }
  return out;  // unreachable
}

Topology TopologySpec::build() const {
  validate(to_string(), *this);
  switch (kind) {
    case Kind::kGrid:
      return make_grid(width, height, spacing, std::nullopt, std::nullopt);
    case Kind::kLine:
      return make_line(width, spacing);
    case Kind::kRing:
      return make_ring(width, spacing);
    case Kind::kUnitDisk: {
      UnitDiskParams params;
      params.node_count = width;
      params.area_side = area_side;
      params.radio_range = radio_range;
      params.seed = seed;
      params.max_attempts = max_attempts;
      return make_random_unit_disk(params);
    }
  }
  throw std::invalid_argument("TopologySpec::build: unknown kind");
}

std::int64_t TopologySpec::node_count() const noexcept {
  return kind == Kind::kGrid
             ? static_cast<std::int64_t>(width) * height
             : static_cast<std::int64_t>(width);
}

}  // namespace slpdas::wsn
