// Experiment-engine tests: deterministic-parallel execution (same seed
// => byte-identical Report JSON at --threads 1/4/8), a throwing grid
// point failing only its own row, grid expansion order, per-run seed
// derivation, the ordered-JSON layer, and the RunResult serialization
// round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/exp/experiment.hpp"
#include "src/exp/json.hpp"
#include "src/exp/record.hpp"
#include "src/exp/run_helpers.hpp"
#include "src/harness/cluster.hpp"
#include "src/sim/rng.hpp"

namespace eesmr {
namespace {

using exp::Grid;
using exp::Json;
using exp::MetricRow;
using exp::Report;
using exp::RunContext;
using exp::RunnerOptions;
using harness::ClusterConfig;
using harness::RunResult;

// ---------------------------------------------------------------------------
// JSON layer
// ---------------------------------------------------------------------------

TEST(Json, ObjectKeepsInsertionOrder) {
  Json obj = Json::object();
  obj.set("zeta", 1);
  obj.set("alpha", 2);
  obj.set("mid", 3);
  EXPECT_EQ(obj.dump(), R"({"zeta":1,"alpha":2,"mid":3})");
  // Re-setting a key keeps its position.
  obj.set("alpha", 9);
  EXPECT_EQ(obj.dump(), R"({"zeta":1,"alpha":9,"mid":3})");
}

TEST(Json, NumberFormattingIsDeterministic) {
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7.0).dump(), "-7");
  EXPECT_EQ(Json(0.5).dump(), "0.5");
  EXPECT_EQ(Json(1e300).dump(), Json(1e300).dump());
  // Round-trip of a messy double through text preserves the value.
  const double v = 1234.5678901234567;
  const Json parsed = Json::parse(Json(v).dump());
  EXPECT_EQ(parsed.as_double(), v);
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      R"({"name":"x","vals":[1,2.5,-3],"nested":{"ok":true,"none":null},)"
      R"("s":"a\"b\nc"})";
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.at("name").as_string(), "x");
  EXPECT_EQ(doc.at("vals").size(), 3u);
  EXPECT_EQ(doc.at("vals").at(1).as_double(), 2.5);
  EXPECT_TRUE(doc.at("nested").at("ok").as_bool());
  EXPECT_TRUE(doc.at("nested").at("none").is_null());
  EXPECT_EQ(doc.at("s").as_string(), "a\"b\nc");
  // dump -> parse -> dump is a fixed point.
  EXPECT_EQ(Json::parse(doc.dump()).dump(), doc.dump());
  EXPECT_EQ(Json::parse(doc.pretty()), doc);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), exp::JsonError);
  EXPECT_THROW(Json::parse("[1,]"), exp::JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), exp::JsonError);
  EXPECT_THROW(Json::parse("nul"), exp::JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), exp::JsonError);
}

// ---------------------------------------------------------------------------
// Seeds and grids
// ---------------------------------------------------------------------------

TEST(DeriveSeed, StableDistinctAndNonAliasing) {
  // Pure function: same inputs, same output.
  EXPECT_EQ(sim::derive_seed(1, 0), sim::derive_seed(1, 0));
  // Different runs / bases decorrelate.
  EXPECT_NE(sim::derive_seed(1, 0), sim::derive_seed(1, 1));
  EXPECT_NE(sim::derive_seed(1, 0), sim::derive_seed(2, 0));
  // A run never aliases its own base seed.
  for (std::uint64_t base : {0ull, 1ull, 42ull, ~0ull}) {
    EXPECT_NE(sim::derive_seed(base, 0), base);
  }
  // No collisions across a realistic grid of runs.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seen.push_back(sim::derive_seed(7, i));
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(Grid, RowMajorExpansionLastAxisFastest) {
  Grid g;
  g.axis("a", {"a0", "a1"});
  g.axis("b", {"b0", "b1", "b2"});
  ASSERT_EQ(g.size(), 6u);
  EXPECT_EQ(g.indices(0), (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(g.indices(1), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(g.indices(3), (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(g.indices(5), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(g.axis_pos("b"), 1u);
  EXPECT_THROW((void)g.axis_pos("missing"), std::out_of_range);
  EXPECT_THROW(g.axis(exp::Axis("a", {"dup"})), std::invalid_argument);
}

TEST(Grid, EmptyGridIsOneRun) {
  Grid g;
  EXPECT_EQ(g.size(), 1u);
  EXPECT_TRUE(g.indices(0).empty());
}

// ---------------------------------------------------------------------------
// Runner determinism
// ---------------------------------------------------------------------------

/// A real simulation workload per grid point; heavy enough that worker
/// interleaving would surface any order dependence.
Report run_cluster_grid(std::size_t threads) {
  const std::vector<std::size_t> ns = {4, 5, 6};
  Grid grid;
  grid.axis(exp::Axis::of("n", ns));
  grid.axis("protocol", {"EESMR", "SyncHS"});
  RunnerOptions ro;
  ro.threads = threads;
  ro.seed = 77;
  Report rep;
  rep.name = "determinism";
  rep.grid = grid;
  rep.rows = exp::run_matrix(grid, [&](const RunContext& c) {
    ClusterConfig cfg;
    cfg.protocol = c.label("protocol") == "EESMR"
                       ? harness::Protocol::kEesmr
                       : harness::Protocol::kSyncHotStuff;
    cfg.n = ns[c.at("n")];
    cfg.f = 1;
    cfg.seed = c.seed;
    const RunResult r = exp::run_steady(cfg, 4);
    MetricRow row;
    exp::add_run_metrics(row, r);
    return row;
  }, ro);
  return rep;
}

TEST(Runner, ByteIdenticalReportAcrossThreadCounts) {
  const std::string baseline = run_cluster_grid(1).to_json().pretty();
  EXPECT_GT(baseline.size(), 100u);
  for (const std::size_t threads : {4u, 8u}) {
    EXPECT_EQ(run_cluster_grid(threads).to_json().pretty(), baseline)
        << "threads=" << threads;
  }
  // And the CSV view too.
  EXPECT_EQ(run_cluster_grid(4).to_csv(), run_cluster_grid(1).to_csv());
}

TEST(Runner, ResultsCommitInGridOrderRegardlessOfFinishOrder) {
  Grid grid;
  grid.axis(exp::Axis::of("i", std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  RunnerOptions ro;
  ro.threads = 4;
  ro.seed = 1;
  std::atomic<int> started{0};
  const auto rows = exp::run_matrix(grid, [&](const RunContext& c) {
    started.fetch_add(1);
    MetricRow row;
    row.set("index", c.index);
    row.set("seed", Json(static_cast<double>(c.seed)));
    return row;
  }, ro);
  ASSERT_EQ(rows.size(), 8u);
  EXPECT_EQ(started.load(), 8);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].number("index"), static_cast<double>(i));
    EXPECT_EQ(rows[i].number("seed"),
              static_cast<double>(sim::derive_seed(1, i)));
  }
}

TEST(Runner, ThrowingPointBecomesFailedRowAtAnyThreadCount) {
  Grid grid;
  grid.axis(exp::Axis::of("i", std::vector<int>{0, 1, 2, 3, 4, 5}));
  const auto fn = [](const RunContext& c) -> MetricRow {
    if (c.index == 2) throw std::runtime_error("boom at 2");
    if (c.index == 4) throw 7;  // not a std::exception
    MetricRow row;
    row.set("index", c.index);
    return row;
  };
  const auto report = [&](std::size_t threads) {
    RunnerOptions ro;
    ro.threads = threads;
    Report rep;
    rep.name = "robust";
    rep.grid = grid;
    rep.rows = exp::run_matrix(grid, fn, ro);
    return rep;
  };
  const Report serial = report(1);
  ASSERT_EQ(serial.rows.size(), 6u);
  for (const std::size_t i : {0u, 1u, 3u, 5u}) {
    EXPECT_FALSE(serial.rows[i].contains(exp::kErrorColumn)) << i;
    EXPECT_EQ(serial.rows[i].number("index"), static_cast<double>(i));
  }
  EXPECT_EQ(serial.rows[2].at(exp::kErrorColumn).as_string(), "boom at 2");
  EXPECT_EQ(serial.rows[4].at(exp::kErrorColumn).as_string(),
            "unknown exception");
  // The failed row keeps its params in the serialized report.
  const Json doc = serial.to_json();
  EXPECT_EQ(doc.at("rows").at(2).at("params").at("i").as_string(), "2");
  EXPECT_EQ(serial.to_json().pretty(), report(4).to_json().pretty());
}

TEST(Experiment, FailedPointWritesOtherRowsAndExitsNonZero) {
  const auto run_bench = [](const std::string& threads) {
    const std::string path =
        ::testing::TempDir() + "exp_failed_point_" + threads + ".json";
    const char* argv[] = {"bench", "--threads", threads.c_str(),
                          "--json-out", path.c_str()};
    exp::Experiment ex("failed_point", "test", 5, const_cast<char**>(argv));
    Grid grid;
    grid.axis("p", {"ok", "bad", "ok2"});
    (void)ex.run("main", grid, [](const RunContext& c) -> MetricRow {
      if (c.label("p") == "bad") throw std::invalid_argument("bad point");
      MetricRow row;
      row.set("value", c.index * 10);
      return row;
    });
    EXPECT_EQ(ex.finish(), 3);
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string text = run_bench("1");
  const Json rows = Json::parse(text).at("sections").at(0).at("rows");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows.at(0).at("metrics").at("value").as_double(), 0.0);
  EXPECT_EQ(rows.at(1).at("params").at("p").as_string(), "bad");
  EXPECT_EQ(rows.at(1).at("metrics").at("error").as_string(), "bad point");
  EXPECT_EQ(rows.at(2).at("metrics").at("value").as_double(), 20.0);
  EXPECT_EQ(run_bench("4"), text);
}

// ---------------------------------------------------------------------------
// RunResult serialization round-trip
// ---------------------------------------------------------------------------

TEST(Record, RunResultJsonRoundTrip) {
  // A run exercising the client, checkpoint and stream machinery so the
  // record has non-trivial content everywhere.
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = 99;
  cfg.clients = 2;
  cfg.checkpoint_interval = 8;
  cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
  cfg.workload.outstanding = 2;
  harness::Cluster cluster(cfg);
  const RunResult r = cluster.run_for(sim::seconds(8));
  ASSERT_GT(r.requests_accepted, 0u);

  const Json doc = exp::run_result_json(r);
  const std::string text = doc.pretty();
  const Json parsed = Json::parse(text);
  // Parse is lossless: identical tree, identical re-dump.
  EXPECT_EQ(parsed, doc);
  EXPECT_EQ(parsed.pretty(), text);

  // The flat summary survives the trip field-for-field.
  const harness::RunSummary orig = r.summarize();
  const harness::RunSummary back = exp::summary_from_json(parsed);
  EXPECT_EQ(back.nodes, orig.nodes);
  EXPECT_EQ(back.safety_ok, orig.safety_ok);
  EXPECT_EQ(back.min_committed, orig.min_committed);
  EXPECT_EQ(back.max_committed, orig.max_committed);
  EXPECT_EQ(back.transmissions, orig.transmissions);
  EXPECT_EQ(back.bytes_transmitted, orig.bytes_transmitted);
  EXPECT_DOUBLE_EQ(back.total_energy_mj, orig.total_energy_mj);
  EXPECT_DOUBLE_EQ(back.energy_per_block_mj, orig.energy_per_block_mj);
  EXPECT_EQ(back.requests_accepted, orig.requests_accepted);
  EXPECT_DOUBLE_EQ(back.latency_p99_ms, orig.latency_p99_ms);
  EXPECT_EQ(back.max_retained_log, orig.max_retained_log);
  EXPECT_EQ(back.max_dedup_entries, orig.max_dedup_entries);
  EXPECT_EQ(back.max_checkpoints_taken, orig.max_checkpoints_taken);

  // Streams carry the radio accounting: at least proposal + request
  // traffic must be present in a client run.
  EXPECT_TRUE(doc.at("streams").contains("proposal"));
  EXPECT_TRUE(doc.at("streams").contains("request"));
}

TEST(Record, SummaryJsonIsStableUnderRerun) {
  // The same config run twice serializes identically (full determinism
  // of the simulation + the serialization layer).
  const auto run_once = [] {
    ClusterConfig cfg;
    cfg.n = 5;
    cfg.f = 1;
    cfg.seed = 1234;
    harness::Cluster cluster(cfg);
    return exp::run_result_json(cluster.run_until_commits(5, sim::seconds(600)))
        .pretty();
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

TEST(Cli, ParsesSharedFlags) {
  const char* argv[] = {"bench",      "--threads", "3",          "--smoke",
                        "--seed",     "99",        "--json-out", "x.json",
                        "--host-timing"};
  const exp::Options o =
      exp::parse_cli(static_cast<int>(std::size(argv)),
                     const_cast<char**>(argv), /*default_seed=*/7);
  EXPECT_EQ(o.threads, 3u);
  EXPECT_TRUE(o.smoke);
  EXPECT_EQ(o.seed, 99u);
  EXPECT_EQ(o.json_out, "x.json");
  ASSERT_EQ(o.extra.size(), 1u);
  EXPECT_EQ(o.extra[0], "--host-timing");
}

TEST(Cli, DefaultSeedAppliesWhenFlagAbsent) {
  const char* argv[] = {"bench"};
  const exp::Options o = exp::parse_cli(1, const_cast<char**>(argv), 42);
  EXPECT_EQ(o.seed, 42u);
  EXPECT_FALSE(o.smoke);
  EXPECT_TRUE(o.write_json);
}

TEST(Cli, RejectsMalformedValues) {
  const char* argv[] = {"bench", "--threads", "abc"};
  EXPECT_THROW(exp::parse_cli(3, const_cast<char**>(argv), 1),
               std::invalid_argument);
  const char* argv2[] = {"bench", "--seed"};
  EXPECT_THROW(exp::parse_cli(2, const_cast<char**>(argv2), 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace eesmr
