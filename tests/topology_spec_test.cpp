// TopologySpec: the canonical string grammar (parse/print round-trip,
// property-style over generated specs), rejection of malformed strings,
// and build() equivalence with the materialising make_* generators.
#include "slpdas/wsn/topology_spec.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace slpdas::wsn {
namespace {

void expect_topologies_identical(const Topology& a, const Topology& b) {
  ASSERT_EQ(a.graph.node_count(), b.graph.node_count());
  EXPECT_EQ(a.graph.edge_count(), b.graph.edge_count());
  for (NodeId u = 0; u < a.graph.node_count(); ++u) {
    for (NodeId v : a.graph.neighbors(u)) {
      EXPECT_TRUE(b.graph.has_edge(u, v)) << u << "-" << v;
    }
  }
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.sink, b.sink);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(a.positions[i].x, b.positions[i].x) << i;
    EXPECT_EQ(a.positions[i].y, b.positions[i].y) << i;
  }
}

TEST(TopologySpecTest, ParsePrintRoundTripsOverGeneratedSpecs) {
  // Property-style sweep over the whole grammar: every generated spec
  // must satisfy parse(to_string(s)) == s, with to_string canonical
  // (printing the reparse changes nothing).
  std::vector<TopologySpec> specs;
  for (const int side : {3, 5, 11, 21, 41}) {
    for (const double spacing : {4.5, 1.0, 25.0, 0.125}) {
      specs.push_back(TopologySpec::grid(side, spacing));
    }
  }
  for (const auto& [w, h] : {std::pair{2, 2}, {15, 31}, {4, 9}, {1, 8}}) {
    specs.push_back(TopologySpec::grid_rect(w, h));
    specs.push_back(TopologySpec::grid_rect(w, h, 2.5));
  }
  for (const int n : {2, 64, 1000}) {
    specs.push_back(TopologySpec::line(n));
    specs.push_back(TopologySpec::line(n, 0.5));
  }
  for (const int n : {3, 100}) {
    specs.push_back(TopologySpec::ring(n));
    specs.push_back(TopologySpec::ring(n, 7.25));
  }
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{7},
                                   ~std::uint64_t{0}}) {
    specs.push_back(TopologySpec::unit_disk(400, 10.0, 100.0, seed));
    specs.push_back(TopologySpec::unit_disk(60, 17.5, 80.0, seed));
  }
  {
    TopologySpec attempts = TopologySpec::unit_disk(50, 12.0);
    attempts.max_attempts = 128;
    specs.push_back(attempts);
  }
  for (const TopologySpec& spec : specs) {
    const std::string text = spec.to_string();
    SCOPED_TRACE(text);
    const TopologySpec reparsed = TopologySpec::parse(text);
    EXPECT_EQ(reparsed, spec);
    EXPECT_EQ(reparsed.to_string(), text);  // canonical == idempotent
  }
}

TEST(TopologySpecTest, CanonicalFormDropsDefaultsAndNormalisesShape) {
  // The ISSUE's grammar examples, plus canonicalisation: default-valued
  // options are omitted and a square WxH collapses to the side form.
  EXPECT_EQ(TopologySpec::parse("grid:21").to_string(), "grid:21");
  EXPECT_EQ(TopologySpec::parse("grid:15x31:spacing=4.5").to_string(),
            "grid:15x31");
  EXPECT_EQ(TopologySpec::parse("grid:5x5").to_string(), "grid:5");
  EXPECT_EQ(TopologySpec::parse("grid:21:spacing=5").to_string(),
            "grid:21:spacing=5");
  EXPECT_EQ(TopologySpec::parse("line:64").to_string(), "line:64");
  EXPECT_EQ(TopologySpec::parse("ring:100").to_string(), "ring:100");
  EXPECT_EQ(TopologySpec::parse("udisk:n=400,r=10,seed=7").to_string(),
            "udisk:n=400,r=10,seed=7");
  EXPECT_EQ(TopologySpec::parse("udisk:seed=1,r=15,n=400").to_string(),
            "udisk:n=400,r=15");  // default seed dropped, key order fixed
  EXPECT_EQ(
      TopologySpec::parse("udisk:n=50,r=10,area=60,attempts=32").to_string(),
      "udisk:n=50,r=10,area=60,attempts=32");
}

TEST(TopologySpecTest, RejectsMalformedSpecs) {
  const char* const kBad[] = {
      "",                           // no kind
      "grid",                       // missing size
      "grid:",                      // empty size
      "torus:5",                    // unknown kind
      "grid:4",                     // even square side: no centre sink
      "grid:1",                     // degenerate square
      "grid:-3",                    // negative square side
      "grid:0x5",                   // zero dimension
      "grid:1x1",                   // one node: source == sink
      "grid:5x",                    // missing height
      "grid:5:spacing=0",           // non-positive spacing
      "grid:5:spacing=-2",          // negative spacing
      "grid:5:spacing=abc",         // non-numeric spacing
      "grid:5:width=2",             // unknown option key
      "grid:5:spacing=4.5:extra",   // trailing segment
      "line:1",                     // a line needs 2 nodes
      "ring:2",                     // a ring needs 3 nodes
      "udisk:r=10",                 // missing n
      "udisk:n=1,r=10",             // n < 2
      "udisk:n=40,r=0",             // non-positive range
      "udisk:n=40,r=10,area=0",     // non-positive area
      "udisk:n=40,r=10,seed=-1",    // negative seed
      "udisk:n=40,r=10,attempts=0", // no attempts allowed
      "udisk:n=40,q=2",             // unknown key
      "udisk:n=40,r",               // key without value
      "udisk:n=40,r=10:extra",      // stray segment
  };
  for (const char* text : kBad) {
    SCOPED_TRACE(text);
    EXPECT_THROW((void)TopologySpec::parse(text), std::invalid_argument);
  }
  // Factories enforce the same rules as the grammar.
  EXPECT_THROW((void)TopologySpec::grid(4), std::invalid_argument);
  EXPECT_THROW((void)TopologySpec::grid_rect(0, 5, 4.5), std::invalid_argument);
  EXPECT_THROW((void)TopologySpec::line(1), std::invalid_argument);
  EXPECT_THROW((void)TopologySpec::ring(2), std::invalid_argument);
  EXPECT_THROW((void)TopologySpec::unit_disk(1), std::invalid_argument);
}

TEST(TopologySpecTest, BuildMatchesTheMaterialisingGenerators) {
  expect_topologies_identical(TopologySpec::grid(5).build(), make_grid(5));
  expect_topologies_identical(TopologySpec::grid(11, 25.0).build(),
                              make_grid(11, 25.0));
  expect_topologies_identical(
      TopologySpec::grid_rect(4, 9, 4.5).build(),
      make_grid(4, 9, 4.5, std::nullopt, std::nullopt));
  expect_topologies_identical(TopologySpec::line(8).build(), make_line(8));
  expect_topologies_identical(TopologySpec::ring(9, 2.0).build(),
                              make_ring(9, 2.0));
  UnitDiskParams params;
  params.node_count = 30;
  params.area_side = 60.0;
  params.radio_range = 16.0;
  params.seed = 11;
  expect_topologies_identical(
      TopologySpec::parse("udisk:n=30,r=16,area=60,seed=11").build(),
      make_random_unit_disk(params));
  // Building the same spec twice is bit-identical (the deterministic
  // sweep contract: lazy per-cell materialisation must not wobble).
  const TopologySpec udisk =
      TopologySpec::parse("udisk:n=30,r=16,area=60,seed=3");
  expect_topologies_identical(udisk.build(), udisk.build());
}

TEST(TopologySpecTest, NodeCountKnownWithoutBuilding) {
  EXPECT_EQ(TopologySpec::grid(21).node_count(), 441);
  EXPECT_EQ(TopologySpec::grid_rect(15, 31, 4.5).node_count(), 465);
  EXPECT_EQ(TopologySpec::line(64).node_count(), 64);
  EXPECT_EQ(TopologySpec::ring(100).node_count(), 100);
  EXPECT_EQ(TopologySpec::unit_disk(400, 10.0).node_count(), 400);
}

TEST(TopologySpecTest, NodeCountCeilingIsCheckedBeforeBuilding) {
  // Specs past the ceiling used to reach the build and end in bad_alloc;
  // now each is a typed error that names the ceiling.
  for (const char* text :
       {"line:300000000", "udisk:n=100000000", "ring:1000001",
        "grid:1001x1000"}) {
    try {
      (void)TopologySpec::parse(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("ceiling of 1000000"),
                std::string::npos)
          << error.what();
    }
  }
  EXPECT_THROW((void)TopologySpec::line(300000000), std::invalid_argument);
  EXPECT_THROW((void)TopologySpec::unit_disk(100000000), std::invalid_argument);
  // At and just under the ceiling a spec parses (and is not built here).
  EXPECT_EQ(TopologySpec::parse("line:1000000").node_count(),
            TopologySpec::kMaxNodes);
  EXPECT_EQ(TopologySpec::parse("udisk:n=999999,r=1").node_count(), 999999);
  EXPECT_EQ(TopologySpec::parse("grid:999x1001").node_count(), 999999);
}

}  // namespace
}  // namespace slpdas::wsn
