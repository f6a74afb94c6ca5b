// Observability-layer tests: Prometheus text-exposition conformance
// (label escaping, stable ordering, the +Inf bucket, counter
// monotonicity), registry snapshot <-> JSON round-trip, the
// RunSummary-matches-registry cross-check, Chrome trace validity, and
// the byte-identical --prom-out/--trace-out contract across thread
// counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/exp/json.hpp"
#include "src/exp/run_helpers.hpp"
#include "src/exp/runner.hpp"
#include "src/harness/cluster.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace eesmr {
namespace {

using exp::Json;
using obs::Histogram;
using obs::Labels;
using obs::Registry;

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

TEST(Metrics, CounterIsMonotonic) {
  Registry reg;
  obs::Counter c = reg.counter("eesmr_test_total", "help");
  c.inc();
  c.inc(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  EXPECT_THROW(c.inc(-1), std::invalid_argument);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  // Collect-style registration enforces the same rule.
  EXPECT_THROW(reg.set_counter("eesmr_other_total", "h", {}, -4),
               std::invalid_argument);
}

TEST(Metrics, GaugeSetsAndAdds) {
  Registry reg;
  obs::Gauge g = reg.gauge("eesmr_temp", "help", {{"node", "0"}});
  g.set(5);
  g.add(-2);
  EXPECT_DOUBLE_EQ(g.value(), 3);
  EXPECT_DOUBLE_EQ(reg.value("eesmr_temp", {{"node", "0"}}), 3);
}

TEST(Metrics, HistogramBucketsAndInfOverflow) {
  Histogram h({1.0, 5.0, 10.0});
  h.observe(0.5);   // le=1
  h.observe(1.0);   // le=1 (inclusive upper bound)
  h.observe(7.0);   // le=10
  h.observe(99.0);  // +Inf overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);  // 3 bounds + implicit +Inf
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 0u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.cumulative(2), 3u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 107.5);

  EXPECT_THROW(Histogram({5.0, 1.0}), std::invalid_argument);
  Histogram other({1.0, 2.0});
  EXPECT_THROW(h.merge(other), std::invalid_argument);
  Histogram same({1.0, 5.0, 10.0});
  same.observe(3.0);
  h.merge(same);
  EXPECT_EQ(h.count(), 5u);
}

TEST(Metrics, NameAndLabelValidation) {
  Registry reg;
  EXPECT_THROW(reg.gauge("2bad", "h"), std::invalid_argument);
  EXPECT_THROW(reg.gauge("has space", "h"), std::invalid_argument);
  EXPECT_THROW(reg.gauge("ok_name", "h", {{"0bad", "v"}}),
               std::invalid_argument);
  // "le" is reserved for histogram bucket series.
  EXPECT_THROW(reg.gauge("ok_name", "h", {{"le", "1"}}),
               std::invalid_argument);
  // Re-registering a name with a different kind or help is a bug.
  reg.gauge("eesmr_x", "first help");
  EXPECT_THROW(reg.counter("eesmr_x", "first help"), std::invalid_argument);
  EXPECT_THROW(reg.gauge("eesmr_x", "second help"), std::invalid_argument);
}

TEST(Metrics, ValueThrowsOnMissingSample) {
  Registry reg;
  reg.set_gauge("eesmr_x", "h", {{"node", "0"}}, 1);
  EXPECT_THROW((void)reg.value("eesmr_missing"), std::out_of_range);
  EXPECT_THROW((void)reg.value("eesmr_x", {{"node", "7"}}), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Text exposition
// ---------------------------------------------------------------------------

TEST(Metrics, TextExpositionFormat) {
  Registry reg;
  reg.set_counter("eesmr_msgs_total", "Messages sent", {{"node", "0"}}, 7);
  reg.set_counter("eesmr_msgs_total", "Messages sent", {{"node", "1"}}, 9);
  reg.set_gauge("eesmr_energy_mj", "Energy", {}, 1.5);
  const std::string text = reg.text();
  EXPECT_NE(text.find("# HELP eesmr_msgs_total Messages sent\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE eesmr_msgs_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("eesmr_msgs_total{node=\"0\"} 7\n"), std::string::npos);
  EXPECT_NE(text.find("eesmr_msgs_total{node=\"1\"} 9\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE eesmr_energy_mj gauge\n"), std::string::npos);
  EXPECT_NE(text.find("eesmr_energy_mj 1.5\n"), std::string::npos);
}

TEST(Metrics, TextExpositionEscapesLabelValues) {
  Registry reg;
  reg.set_gauge("eesmr_g", "h", {{"path", "a\\b\"c\nd"}}, 1);
  const std::string text = reg.text();
  EXPECT_NE(text.find("eesmr_g{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos)
      << text;
  // HELP strings escape backslash and newline.
  Registry reg2;
  reg2.set_gauge("eesmr_h", "line1\nline2\\tail", {}, 1);
  EXPECT_NE(reg2.text().find("# HELP eesmr_h line1\\nline2\\\\tail\n"),
            std::string::npos)
      << reg2.text();
}

TEST(Metrics, TextExpositionOrderIsRegistrationOrder) {
  // Families expose in registration order (not sorted), samples in
  // registration order — the determinism contract.
  Registry reg;
  reg.set_gauge("eesmr_zzz", "h", {}, 1);
  reg.set_gauge("eesmr_aaa", "h", {{"b", "1"}}, 2);
  reg.set_gauge("eesmr_aaa", "h", {{"a", "1"}}, 3);
  const std::string text = reg.text();
  EXPECT_LT(text.find("eesmr_zzz"), text.find("eesmr_aaa"));
  EXPECT_LT(text.find("eesmr_aaa{b=\"1\"}"), text.find("eesmr_aaa{a=\"1\"}"));
  // Two registries fed identically render byte-identical text.
  Registry twin;
  twin.set_gauge("eesmr_zzz", "h", {}, 1);
  twin.set_gauge("eesmr_aaa", "h", {{"b", "1"}}, 2);
  twin.set_gauge("eesmr_aaa", "h", {{"a", "1"}}, 3);
  EXPECT_EQ(twin.text(), text);
  EXPECT_TRUE(twin == reg);
}

TEST(Metrics, HistogramExpositionHasCumulativeBucketsAndInf) {
  Registry reg;
  Histogram& h = reg.histogram("eesmr_lat_ms", "Latency", {1.0, 10.0},
                               {{"node", "0"}});
  h.observe(0.5);
  h.observe(4.0);
  h.observe(50.0);
  const std::string text = reg.text();
  EXPECT_NE(text.find("# TYPE eesmr_lat_ms histogram\n"), std::string::npos);
  EXPECT_NE(text.find("eesmr_lat_ms_bucket{node=\"0\",le=\"1\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("eesmr_lat_ms_bucket{node=\"0\",le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("eesmr_lat_ms_bucket{node=\"0\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("eesmr_lat_ms_sum{node=\"0\"} 54.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("eesmr_lat_ms_count{node=\"0\"} 3\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON snapshot round-trip / merge
// ---------------------------------------------------------------------------

TEST(Metrics, JsonSnapshotRoundTrip) {
  Registry reg;
  reg.set_counter("eesmr_c_total", "counter help", {{"node", "0"}}, 5);
  reg.set_gauge("eesmr_g", "gauge help", {}, -2.25);
  Histogram h({1.0, 2.0});
  h.observe(0.5);
  h.observe(9.0);
  reg.set_histogram("eesmr_h_ms", "hist help", {{"s", "x"}}, h);

  const Json doc = reg.to_json();
  const Registry back = Registry::from_json(Json::parse(doc.dump()));
  EXPECT_TRUE(back == reg);
  EXPECT_EQ(back.text(), reg.text());
}

TEST(Metrics, MergePrependsLabels) {
  Registry run0;
  run0.set_gauge("eesmr_g", "h", {{"node", "0"}}, 1);
  Registry run1;
  run1.set_gauge("eesmr_g", "h", {{"node", "0"}}, 2);
  Registry merged;
  merged.merge(run0, {{"run", "0"}});
  merged.merge(run1, {{"run", "1"}});
  EXPECT_DOUBLE_EQ(merged.value("eesmr_g", {{"run", "0"}, {"node", "0"}}), 1);
  EXPECT_DOUBLE_EQ(merged.value("eesmr_g", {{"run", "1"}, {"node", "0"}}), 2);
}

// ---------------------------------------------------------------------------
// RunResult -> registry cross-check
// ---------------------------------------------------------------------------

harness::RunResult client_run(std::uint64_t seed) {
  harness::ClusterConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = seed;
  cfg.clients = 2;
  cfg.checkpoint_interval = 8;
  cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
  cfg.workload.outstanding = 2;
  harness::Cluster cluster(cfg);
  return cluster.run_for(sim::seconds(8));
}

TEST(Obs, SummaryMatchesRegistryExactly) {
  const harness::RunResult r = client_run(42);
  ASSERT_GT(r.requests_accepted, 0u);

  Registry reg;
  r.to_registry(reg);
  // Registry values equal the direct accessors bit-for-bit (same
  // computation snapshotted, not a parallel plumbing path).
  EXPECT_EQ(reg.value("eesmr_run_total_energy_mj"), r.total_energy_mj());
  EXPECT_EQ(reg.value("eesmr_run_energy_per_block_mj"),
            r.energy_per_block_mj());
  EXPECT_EQ(reg.value("eesmr_run_min_committed"),
            static_cast<double>(r.min_committed()));
  EXPECT_EQ(reg.value("eesmr_run_view_changes_total"),
            static_cast<double>(r.view_changes));
  EXPECT_EQ(reg.value("eesmr_run_requests_accepted_total"),
            static_cast<double>(r.requests_accepted));
  EXPECT_EQ(reg.value("eesmr_run_accepted_per_sec"), r.accepted_per_sec());

  // And the flat summary is exactly the registry read back.
  const harness::RunSummary s = r.summarize();
  const harness::RunSummary derived = harness::summary_from_registry(reg);
  EXPECT_EQ(s.nodes, derived.nodes);
  EXPECT_EQ(s.safety_ok, derived.safety_ok);
  EXPECT_EQ(s.min_committed, derived.min_committed);
  EXPECT_EQ(s.max_committed, derived.max_committed);
  EXPECT_EQ(s.transmissions, derived.transmissions);
  EXPECT_EQ(s.total_energy_mj, derived.total_energy_mj);
  EXPECT_EQ(s.energy_per_block_mj, derived.energy_per_block_mj);
  EXPECT_EQ(s.requests_accepted, derived.requests_accepted);
  EXPECT_EQ(s.latency_p50_ms, derived.latency_p50_ms);
  EXPECT_EQ(s.latency_p99_ms, derived.latency_p99_ms);
  EXPECT_EQ(s.max_retained_log, derived.max_retained_log);
  EXPECT_EQ(s.max_store_blocks, derived.max_store_blocks);
  EXPECT_EQ(s.adversary_energy_mj, derived.adversary_energy_mj);

  // Per-node and per-stream families carry the same numbers as the
  // RunResult accessors.
  for (std::size_t i = 0; i < r.meters.size(); ++i) {
    EXPECT_EQ(reg.value("eesmr_node_energy_mj", {{"node", std::to_string(i)}}),
              r.meters[i].total_millijoules());
  }
  const energy::StreamStats prop =
      r.stream_totals_all(energy::Stream::kProposal);
  EXPECT_EQ(reg.value("eesmr_stream_send_mj",
                      {{"stream", "proposal"}, {"scope", "all"}}),
            prop.send_mj);
}

TEST(Obs, LatencyHistogramBucketsTrackSamples) {
  const harness::RunResult r = client_run(7);
  ASSERT_GT(r.latency.count(), 0u);
  // Same observations: bucketed count equals the raw-sample count, the
  // bucketed sum equals the sum of the per-sample milliseconds.
  EXPECT_EQ(r.latency.buckets().count(), r.latency.count());
  double sum = 0;
  for (std::uint64_t c : r.latency.buckets().bucket_counts()) {
    sum += static_cast<double>(c);
  }
  EXPECT_EQ(static_cast<std::uint64_t>(sum), r.latency.count());
}

// ---------------------------------------------------------------------------
// Trace layer
// ---------------------------------------------------------------------------

harness::RunResult traced_run(obs::Tracer& tracer, std::uint64_t seed,
                              harness::Protocol protocol) {
  harness::ClusterConfig cfg;
  cfg.protocol = protocol;
  cfg.n = 4;
  cfg.f = 1;
  cfg.seed = seed;
  cfg.checkpoint_interval = 4;
  cfg.tracer = &tracer;
  harness::Cluster cluster(cfg);
  return cluster.run_until_commits(6, sim::seconds(600));
}

TEST(Trace, CommitPathEventsAreEmitted) {
  for (const harness::Protocol protocol :
       {harness::Protocol::kEesmr, harness::Protocol::kSyncHotStuff}) {
    obs::Tracer tracer;
    const harness::RunResult r = traced_run(tracer, 11, protocol);
    ASSERT_GE(r.min_committed(), 6u);
    ASSERT_FALSE(tracer.empty());
    std::size_t proposes = 0, votes = 0, certifies = 0, commits = 0,
                spans = 0, ends = 0, checkpoints = 0;
    for (const obs::TraceEvent& ev : tracer.events()) {
      if (ev.name == "propose") ++proposes;
      if (ev.name == "vote") ++votes;
      if (ev.name == "certify") ++certifies;
      if (ev.name == "commit") ++commits;
      if (ev.name == "block" && ev.ph == 'b') ++spans;
      if (ev.name == "block" && ev.ph == 'e') ++ends;
      if (ev.name == "checkpoint_taken") ++checkpoints;
    }
    EXPECT_GT(proposes, 0u);
    if (protocol == harness::Protocol::kSyncHotStuff) {
      // Sync HotStuff votes and certifies on the steady path; EESMR's
      // steady state is vote-free by design (the paper's headline), so
      // its vote/certify events only appear during a view change, which
      // an honest run never triggers.
      EXPECT_GT(votes, 0u);
      EXPECT_GT(certifies, 0u);
    }
    EXPECT_GE(commits, 6u);
    EXPECT_GT(spans, 0u);
    EXPECT_GE(spans, ends);  // every closed block span was opened
    EXPECT_GT(ends, 0u);
    EXPECT_GT(checkpoints, 0u);
  }
}

TEST(Trace, ChromeDocumentIsValid) {
  obs::Tracer tracer;
  traced_run(tracer, 3, harness::Protocol::kEesmr);
  Json events = Json::array();
  const int next_pid = tracer.append_chrome(events, 1, "test ");
  EXPECT_GE(next_pid, 2);
  const Json doc = obs::Tracer::chrome_document(std::move(events));
  // Valid JSON document with the Chrome trace shape.
  const Json parsed = Json::parse(doc.pretty());
  ASSERT_TRUE(parsed.contains("traceEvents"));
  EXPECT_EQ(parsed.at("displayTimeUnit").as_string(), "ms");
  const auto& evs = parsed.at("traceEvents").items();
  ASSERT_FALSE(evs.empty());
  // First event names the process (epoch label prefixed).
  EXPECT_EQ(evs[0].at("ph").as_string(), "M");
  EXPECT_EQ(evs[0].at("name").as_string(), "process_name");
  EXPECT_EQ(evs[0].at("args").at("name").as_string().rfind("test ", 0), 0u);
  for (const Json& ev : evs) {
    ASSERT_TRUE(ev.contains("name"));
    ASSERT_TRUE(ev.contains("ph"));
    ASSERT_TRUE(ev.contains("pid"));
    const std::string ph = ev.at("ph").as_string();
    if (ph == "M") continue;
    ASSERT_TRUE(ev.contains("ts"));
    ASSERT_TRUE(ev.contains("tid"));
    if (ph == "i") {
      EXPECT_TRUE(ev.contains("s"));  // instant scope
    } else {
      EXPECT_TRUE(ev.contains("id"));  // async span id
    }
  }
}

TEST(Trace, TextMirrorFeedsSink) {
  obs::Tracer tracer;
  std::vector<std::string> lines;
  tracer.set_text_sink([&](const obs::TraceEvent& ctx,
                           const std::string& msg) {
    lines.push_back(std::string(ctx.cat ? ctx.cat : "?") + ": " + msg);
  });
  traced_run(tracer, 5, harness::Protocol::kEesmr);
  ASSERT_FALSE(lines.empty());
  bool saw_commit = false;
  for (const std::string& l : lines) {
    if (l.rfind("commit: commit", 0) == 0) saw_commit = true;
  }
  EXPECT_TRUE(saw_commit);
}

TEST(Trace, EpochZeroIsClaimedByFirstOpen) {
  obs::Tracer tracer;
  EXPECT_EQ(tracer.open_epoch("first"), 0u);   // claims the implicit epoch
  EXPECT_EQ(tracer.open_epoch("second"), 1u);  // appends after that
}

// ---------------------------------------------------------------------------
// Byte-identical artifacts across thread counts
// ---------------------------------------------------------------------------

struct MergedArtifacts {
  std::string prom;
  std::string trace;
};

MergedArtifacts run_observed_grid(std::size_t threads) {
  exp::Grid grid;
  grid.axis("protocol", {"EESMR", "SyncHS"});
  grid.axis(exp::Axis::of("n", std::vector<int>{4, 5}));
  exp::RunnerOptions ro;
  ro.threads = threads;
  ro.seed = 9;
  std::vector<exp::RunArtifacts> slots;
  ro.artifacts = &slots;
  ro.collect_registry = true;
  ro.collect_trace = true;
  exp::run_matrix(grid, [&](const exp::RunContext& c) {
    harness::ClusterConfig cfg;
    cfg.protocol = c.label("protocol") == "EESMR"
                       ? harness::Protocol::kEesmr
                       : harness::Protocol::kSyncHotStuff;
    cfg.n = c.label("n") == "4" ? 4 : 5;
    cfg.f = 1;
    cfg.seed = c.seed;
    const harness::RunResult r = exp::run_steady(c, cfg, 4);
    exp::MetricRow row;
    row.set("mj_per_block", r.energy_per_block_mj());
    return row;
  }, ro);

  // The same assembly Experiment::finish() performs.
  MergedArtifacts out;
  Registry merged;
  Json events = Json::array();
  int pid = 1;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    merged.merge(slots[i].registry,
                 {{"section", "main"}, {"run", std::to_string(i)}});
    pid = slots[i].tracer.append_chrome(events, pid,
                                        "main/run" + std::to_string(i) + " ");
  }
  out.prom = merged.text();
  out.trace = obs::Tracer::chrome_document(std::move(events)).pretty();
  return out;
}

TEST(Obs, ArtifactsByteIdenticalAcrossThreadCounts) {
  const MergedArtifacts baseline = run_observed_grid(1);
  EXPECT_GT(baseline.prom.size(), 1000u);
  EXPECT_GT(baseline.trace.size(), 1000u);
  for (const std::size_t threads : {4u, 8u}) {
    const MergedArtifacts other = run_observed_grid(threads);
    EXPECT_EQ(other.prom, baseline.prom) << "threads=" << threads;
    EXPECT_EQ(other.trace, baseline.trace) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace eesmr
