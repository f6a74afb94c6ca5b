// adversary_sweep: the protocol x attack conformance matrix over many
// seeds, one line per cell.
//
//   adversary_sweep SEED...
//
// Every cell uses the setup of tests/adversary_test.cpp (n=4, MinBFT
// n=3; f=1; checkpoint_interval=8; client_pending_cap=8; 30 commits
// within 30 simulated seconds) for {EESMR, SyncHS, PBFT, MinBFT} x every
// attack x each SEED. A line reads
//
//   <protocol> <attack> <seed> safety=<ok|FAIL> violations=<in-run>
//     min=<blocks> max=<blocks> view_changes=<n> energy_mj=<honest>
//     end_ms=<sim> stall_ms=<sim>
//
// or `<protocol> <attack> <seed> error: <exception text>` when the run
// threw. The output is deterministic, so CI diffs a fresh run over
// seeds 1001-1040 against tools/adversary_sweep.expected:
//
//   adversary_sweep $(seq 1001 1040) | diff -u tools/adversary_sweep.expected -
//
// Exit code: 0 after a complete sweep (failing cells are reported, not
// fatal), 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <vector>

#include "src/adversary/adversary.hpp"

namespace {

using eesmr::adversary::AttackKind;
using eesmr::harness::ClusterConfig;
using eesmr::harness::Protocol;
using eesmr::harness::RunResult;

constexpr std::size_t kTarget = 30;  // committed blocks per cell
constexpr eesmr::sim::Duration kDeadline = eesmr::sim::seconds(30);

ClusterConfig cell_config(Protocol p, AttackKind a, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.protocol = p;
  cfg.n = p == Protocol::kMinBft ? 3 : 4;
  cfg.f = 1;
  cfg.seed = seed;
  cfg.checkpoint_interval = 8;
  cfg.client_pending_cap = 8;
  cfg.adversary.stall_bound = eesmr::sim::seconds(10);
  eesmr::adversary::apply_attack(cfg, a);
  return cfg;
}

void run_cell(Protocol p, AttackKind a, std::uint64_t seed) {
  std::printf("%s %s %llu ", eesmr::harness::protocol_name(p),
              eesmr::adversary::attack_name(a),
              static_cast<unsigned long long>(seed));
  try {
    eesmr::harness::Cluster cluster(cell_config(p, a, seed));
    const RunResult r = cluster.run_until_commits(kTarget, kDeadline);
    std::printf(
        "safety=%s violations=%llu min=%llu max=%llu view_changes=%llu "
        "energy_mj=%.3f end_ms=%.3f stall_ms=%.3f\n",
        r.safety_ok() ? "ok" : "FAIL",
        static_cast<unsigned long long>(r.safety_violations),
        static_cast<unsigned long long>(r.min_committed()),
        static_cast<unsigned long long>(r.max_committed()),
        static_cast<unsigned long long>(r.view_changes),
        r.total_energy_mj(), eesmr::sim::to_milliseconds(r.end_time),
        eesmr::sim::to_milliseconds(r.max_commit_stall));
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s SEED...\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  std::vector<std::uint64_t> seeds;
  for (int i = 1; i < argc; ++i) {
    char* end = nullptr;
    const unsigned long long s = std::strtoull(argv[i], &end, 10);
    if (end == argv[i] || *end != '\0') return usage(argv[0]);
    seeds.push_back(s);
  }
  for (const Protocol p : {Protocol::kEesmr, Protocol::kSyncHotStuff,
                           Protocol::kPbft, Protocol::kMinBft}) {
    for (const AttackKind a : eesmr::adversary::all_attacks()) {
      for (const std::uint64_t seed : seeds) run_cell(p, a, seed);
    }
  }
  return 0;
}
