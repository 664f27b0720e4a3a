#include "slpdas/wsn/topology_spec.hpp"

#include <optional>
#include <stdexcept>

#include "slpdas/detail/spec_format.hpp"

namespace slpdas::wsn {

namespace {

using detail::format_double_shortest;
using detail::kPositive;

void validate(std::string_view text, const TopologySpec& spec) {
  using Kind = TopologySpec::Kind;
  const detail::SpecReader reader("topology spec", text);
  switch (spec.kind) {
    case Kind::kGrid:
      if (spec.width < 1 || spec.height < 1 || spec.node_count() < 2) {
        reader.fail("grid needs dimensions >= 1 and at least 2 nodes "
                    "(source != sink)");
      }
      break;
    case Kind::kLine:
      if (spec.width < 2) {
        reader.fail("line needs at least 2 nodes");
      }
      break;
    case Kind::kRing:
      if (spec.width < 3) {
        reader.fail("ring needs at least 3 nodes");
      }
      break;
    case Kind::kUnitDisk:
      if (spec.width < 2 || spec.max_attempts < 1) {
        reader.fail("udisk needs n >= 2 and attempts >= 1");
      }
      if (!kPositive.contains(spec.radio_range) ||
          !kPositive.contains(spec.area_side)) {
        reader.fail("udisk r and area must be in " + kPositive.to_string());
      }
      break;
  }
  if (spec.kind != Kind::kUnitDisk && !kPositive.contains(spec.spacing)) {
    reader.fail("spacing must be in " + kPositive.to_string());
  }
  if (spec.node_count() > TopologySpec::kMaxNodes) {
    reader.fail(std::to_string(spec.node_count()) +
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
  const detail::SpecReader reader("topology spec", text);
  const auto [kind, rest] = detail::SpecReader::split(text);
  TopologySpec spec;

  if (kind == "udisk") {
    if (!rest) {
      reader.fail("expected 'udisk:n=<count>,r=<range>[,area=][,seed=]"
                  "[,attempts=]'");
    }
    const auto [n, r, area, seed, attempts] =
        reader.fields(*rest, {"n", "r", "area", "seed", "attempts"});
    if (!n) {
      reader.fail("udisk requires n=<node count>");
    }
    spec.kind = Kind::kUnitDisk;
    spec.width = reader.read_int("n", *n, 2);
    spec.height = 1;
    if (r) {
      spec.radio_range = reader.read_double("r", *r, kPositive);
    }
    if (area) {
      spec.area_side = reader.read_double("area", *area, kPositive);
    }
    if (seed) {
      spec.seed = reader.read_u64("seed", *seed);
    }
    if (attempts) {
      spec.max_attempts = reader.read_int("attempts", *attempts, 1);
    }
  } else if (kind == "grid" || kind == "line" || kind == "ring") {
    if (!rest || rest->empty()) {
      reader.fail("expected '" + std::string(kind) + ":<size>'");
    }
    const auto [size, options] = detail::SpecReader::split(*rest);
    if (kind == "grid") {
      spec.kind = Kind::kGrid;
      const auto [width, height] = detail::SpecReader::split(size, 'x');
      if (!height) {
        // Square form: the paper's evaluation grid, centre sink required.
        spec.width = reader.read_int("side", width, 3);
        if (spec.width % 2 == 0) {
          reader.fail("square grid side must be odd so a centre sink "
                      "exists (use grid:WxH for other shapes)");
        }
        spec.height = spec.width;
      } else {
        spec.width = reader.read_int("width", width, 1);
        spec.height = reader.read_int("height", *height, 1);
      }
    } else {
      spec.kind = kind == "line" ? Kind::kLine : Kind::kRing;
      spec.width = reader.read_int("n", size, kind == "line" ? 2 : 3);
      spec.height = 1;
    }
    if (options) {
      const auto [spacing] = reader.fields(*options, {"spacing"});
      spec.spacing = reader.read_double("spacing", *spacing, kPositive);
    }
  } else {
    reader.fail("unknown topology kind '" + std::string(kind) +
                "' (valid: grid, line, ring, udisk)");
  }
  validate(text, spec);
  return spec;
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
