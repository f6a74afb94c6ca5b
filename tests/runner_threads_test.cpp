// Runner thread-independence (`ctest -L threads`, also the CI
// ThreadSanitizer job): exp::Runner is the only code that runs threads,
// so whole-cluster grids must serialize byte-identical Prometheus
// expositions and Chrome traces at --threads 1 and 4. MinBFT's
// attested-counter ordering is in the grid because it is the most
// order-sensitive protocol.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/exp/run_helpers.hpp"
#include "src/exp/runner.hpp"
#include "src/harness/cluster.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace eesmr {
namespace {

using harness::ClusterConfig;
using harness::Protocol;
using harness::RunResult;

/// Run a 3-protocol client grid through the runner at `threads` and
/// return the exact artifacts --prom-out / --trace-out would serialize.
std::pair<std::string, std::string> run_grid(std::size_t threads) {
  exp::Grid grid;
  grid.axis("protocol", {"EESMR", "SyncHS", "MinBFT"});
  exp::RunnerOptions ro;
  ro.threads = threads;
  ro.seed = 404;
  ro.trace_requests = 2;
  std::vector<exp::RunArtifacts> slots;
  ro.artifacts = &slots;
  ro.collect_registry = true;
  ro.collect_trace = true;
  (void)exp::run_matrix(grid, [&](const exp::RunContext& c) {
    ClusterConfig cfg;
    const std::string proto = c.label("protocol");
    cfg.protocol = proto == "EESMR"    ? Protocol::kEesmr
                   : proto == "SyncHS" ? Protocol::kSyncHotStuff
                                       : Protocol::kMinBft;
    cfg.n = proto == "MinBFT" ? 3 : 4;
    cfg.f = 1;
    cfg.seed = c.seed;
    cfg.clients = 2;
    cfg.checkpoint_interval = 8;
    cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
    cfg.workload.outstanding = 2;
    exp::prepare(c, cfg);
    const RunResult r = exp::run_steady(c, cfg, 12);
    exp::MetricRow row;
    row.set("commits", r.min_committed());
    row.set("verify_memo_hits", r.prof.pipeline.join_hits);
    row.set("bytes_copy_saved", r.prof.pipeline.bytes_copy_saved);
    return row;
  }, ro);

  std::string prom;
  exp::Json events = exp::Json::array();
  int pid = 1;
  for (exp::RunArtifacts& s : slots) {
    prom += s.registry.text();
    pid = s.tracer.append_chrome(events, pid, "run ");
  }
  return {prom, obs::Tracer::chrome_document(std::move(events)).pretty()};
}

TEST(RunnerThreads, ByteIdenticalPromAndTraceAcrossThreads) {
  const auto [prom1, trace1] = run_grid(1);
  // The memo and zero-copy families export on every cluster run.
  EXPECT_NE(prom1.find("eesmr_prof_verify_memo_total"), std::string::npos);
  EXPECT_NE(prom1.find("eesmr_prof_bytes_copy_saved_total"),
            std::string::npos);
  const auto [prom4, trace4] = run_grid(4);
  EXPECT_EQ(prom4, prom1);
  EXPECT_EQ(trace4, trace1);
}

}  // namespace
}  // namespace eesmr
