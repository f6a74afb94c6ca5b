// Host-cost benchmark for the simulator: how much host time one
// simulated run costs, end to end and per layer.
//
// One invocation runs ONE repeat of ONE workload in one single-threaded
// process and prints one JSON object on stdout. hostbench/run.py builds
// this binary, repeats it for the measurement window, checks that every
// repeat of a (workload, seed) produced byte-identical simulated results,
// and aggregates medians.
//
//   hostbench --workload commit_path|wide_flood|leader_churn --seed S
//             [--traced --trace-out PATH]
//
// Every repeat sets up one Cluster, runs it, exports the result and
// applies the correctness gate. Untraced (default) repeats time one
// run_for over the whole simulated duration, then time kSetupsPerRepeat
// further Cluster set-ups. Traced repeats run in windows of one
// simulated second, turn on the profiler's opt-in host scopes, keep a
// span around every call the benchmark makes into a layer, time each
// layer's public functions on the run's own data (its committed blocks)
// and write the spans as a Chrome trace at the end.
//
// Every cluster uses simulated keys and crypto_workers = 0 (the
// defaults), so the whole run stays on the calling thread.
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/crypto/sha256.hpp"
#include "src/crypto/signer.hpp"
#include "src/exp/json.hpp"
#include "src/harness/cluster.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/scheduler.hpp"
#include "src/smr/block.hpp"

using namespace eesmr;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Settings every workload shares: BLE, 10 ms hop bound, batch 16,
/// 16-byte commands, two clients.
harness::ClusterConfig base_config(std::uint64_t seed) {
  harness::ClusterConfig cfg;
  cfg.medium = energy::Medium::kBle;
  cfg.hop_delay = sim::milliseconds(10);
  cfg.batch_size = 16;
  cfg.cmd_bytes = 16;
  cfg.clients = 2;
  cfg.workload.gen.synthetic_bytes = 16;
  cfg.seed = seed;
  return cfg;
}

struct Workload {
  const char* name;
  sim::Duration duration;
  harness::ClusterConfig (*config)(std::uint64_t seed);
};

// Sync HotStuff commits a block per height with a vote certificate each,
// so block store/hashing, signature verification and the commit path do
// most of the host work. Same point as the engine grid's
// SyncHS/n7/open_100rps.
harness::ClusterConfig commit_path(std::uint64_t seed) {
  harness::ClusterConfig cfg = base_config(seed);
  cfg.protocol = harness::Protocol::kSyncHotStuff;
  cfg.n = 7;
  cfg.f = 3;
  cfg.workload.mode = client::WorkloadSpec::Mode::kOpenLoop;
  cfg.workload.rate_per_sec = 100.0;
  return cfg;
}

// EESMR at n=31 on a full mesh: per-edge deliveries grow as n^2 while
// commits stay few and the steady state has no votes, so the scheduler
// and flood dedup dominate and crypto is nearly idle.
harness::ClusterConfig wide_flood(std::uint64_t seed) {
  harness::ClusterConfig cfg = base_config(seed);
  cfg.protocol = harness::Protocol::kEesmr;
  cfg.n = 31;
  cfg.f = 15;
  cfg.workload.mode = client::WorkloadSpec::Mode::kClosedLoop;
  cfg.workload.outstanding = 4;
  return cfg;
}

// EESMR under leader crashes: chase-the-leader every 4 s plus a
// crash/recover of replica 5, with checkpoints, admission control and
// client retransmission on. Exercises view change, blame timers,
// checkpoint + state transfer — the paths the steady state bypasses.
harness::ClusterConfig leader_churn(std::uint64_t seed) {
  harness::ClusterConfig cfg = base_config(seed);
  cfg.protocol = harness::Protocol::kEesmr;
  cfg.n = 7;
  cfg.f = 3;
  cfg.checkpoint_interval = 8;
  cfg.client_pending_cap = 8;
  cfg.client_retry = sim::seconds(2);
  cfg.workload.mode = client::WorkloadSpec::Mode::kOpenLoop;
  cfg.workload.rate_per_sec = 50.0;
  cfg.workload.gen.kind = client::GenSpec::Kind::kKv;
  cfg.adversary.chase_leader.period = sim::seconds(4);
  cfg.adversary.chase_leader.from_time = sim::seconds(2);
  cfg.adversary.crashes.push_back({5, sim::seconds(3), sim::seconds(15)});
  return cfg;
}

// Simulated durations keep one repeat near two host seconds, so a run's
// time budget holds many repeats to take medians over.
// leader_churn needs 60 s to cover the crash, the recovery at 15 s and a
// dozen chase-the-leader rounds.
const Workload kWorkloads[] = {
    {"commit_path", sim::seconds(10), commit_path},
    {"wide_flood", sim::seconds(10), wide_flood},
    {"leader_churn", sim::seconds(60), leader_churn},
};

// ---------------------------------------------------------------------------
// Build and host tags
// ---------------------------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf >= 0x80000004U) {
    char brand[49] = {};
    for (unsigned int i = 0; i < 3; ++i) {
      unsigned int regs[4] = {};
      __get_cpuid(0x80000002U + i, &regs[0], &regs[1], &regs[2], &regs[3]);
      std::memcpy(brand + 16 * i, regs, sizeof regs);
    }
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

exp::Json build_tags() {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
  exp::Json o = exp::Json::object();
  o.set("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  o.set("cpu", cpu_model());
  o.set("compiler", HOSTBENCH_COMPILER);
  o.set("build_type", HOSTBENCH_BUILD_TYPE);
  o.set("optimized", optimized);
  o.set("sanitized", sanitized);
  o.set("valid", optimized && !sanitized);
  return o;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent, kept in memory
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  std::uint64_t window = 0;  ///< simulated-second index for run windows
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::string workload)
      : workload_(std::move(workload)), origin_(Clock::now()) {}

  /// Open a span under the innermost open one.
  void open(std::string name, std::uint64_t window = 0) {
    Span s;
    s.name = std::move(name);
    s.start_us = now_us();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.window = window;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  /// Close the innermost span; returns its duration in ms.
  double close() {
    Span& s = spans_[static_cast<std::size_t>(stack_.back())];
    stack_.pop_back();
    s.end_us = now_us();
    return (s.end_us - s.start_us) / 1e3;
  }

  /// Chrome trace-event JSON ("X" complete events, one thread).
  [[nodiscard]] exp::Json chrome_trace() const {
    exp::Json events = exp::Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      exp::Json args = exp::Json::object();
      args.set("span", i);
      if (s.parent >= 0) {
        args.set("parent_span", static_cast<std::uint64_t>(s.parent));
        args.set("parent", spans_[static_cast<std::size_t>(s.parent)].name);
      }
      args.set("workload", workload_);
      if (s.name == "harness.run_for") args.set("sim_second", s.window);
      exp::Json ev = exp::Json::object();
      ev.set("name", s.name);
      ev.set("cat", s.name.substr(0, s.name.find('.')));
      ev.set("ph", "X");
      ev.set("ts", s.start_us);
      ev.set("dur", s.end_us - s.start_us);
      ev.set("pid", 1);
      ev.set("tid", 1);
      ev.set("args", std::move(args));
      events.push_back(std::move(ev));
    }
    exp::Json trace = exp::Json::object();
    trace.set("traceEvents", std::move(events));
    return trace;
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  std::string workload_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// Run measurements
// ---------------------------------------------------------------------------

std::uint64_t sched_events(const prof::Snapshot& s, const std::string& kind) {
  std::uint64_t total = 0;
  for (const auto& [k, n] : s.sched_events) {
    if (kind.empty() || k == kind) total += n;
  }
  return total;
}

std::uint64_t crypto_ops(const prof::Snapshot& s, const std::string& op) {
  std::uint64_t total = 0;
  for (const auto& [key, n] : s.crypto_ops) {
    if (key[1] == op) total += n;
  }
  return total;
}

std::uint64_t codec_bytes(const prof::Snapshot& s, const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& [key, n] : s.codec_bytes) {
    if (key[1] == dir) total += n;
  }
  return total;
}

exp::Json list(const std::vector<double>& v) {
  exp::Json out = exp::Json::array();
  for (const double x : v) out.push_back(x);
  return out;
}

std::string hex(const Bytes& b) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t v : b) {
    out += kDigits[v >> 4U];
    out += kDigits[v & 0xFU];
  }
  return out;
}

/// Digest of everything the simulation reports: the run's full metric
/// registry (sim metrics, per-node energy, latency histogram, profiler
/// counts) minus the host wall-clock families, plus every replica's
/// committed tip. Equal digests mean byte-identical simulated results.
std::string sim_fingerprint(const obs::Registry& reg,
                            const harness::RunResult& r) {
  std::istringstream in(reg.text());
  std::string kept;
  for (std::string line; std::getline(in, line);) {
    if (line.find("eesmr_prof_host_scope") == std::string::npos) {
      kept += line;
      kept += '\n';
    }
  }
  for (const auto& log : r.logs) {
    kept += log.empty() ? std::string("-") : hex(log.back().hash());
    kept += '\n';
  }
  return hex(crypto::sha256(to_bytes(kept)));
}

/// The run's simulated outputs. Deterministic per (workload, seed): a
/// host-only change must leave every value here unchanged. Latency
/// samples are listed in full (sorted) so percentiles can be taken over
/// the samples of several runs pooled.
exp::Json sim_metrics(const harness::RunResult& r,
                       const harness::RunSummary& s) {
  std::vector<double> latency_ms;
  const std::size_t n = r.latency.count();
  latency_ms.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    // Nearest rank ceil(q * n) - 1 == k for q = (k + 0.5) / n.
    const double q = (static_cast<double>(k) + 0.5) / static_cast<double>(n);
    latency_ms.push_back(sim::to_milliseconds(r.latency.quantile(q)));
  }
  exp::Json o = exp::Json::object();
  o.set("commits", r.min_committed());
  o.set("events", sched_events(r.prof, ""));
  o.set("submitted", r.requests_submitted);
  o.set("accepted", r.requests_accepted);
  o.set("total_energy_mj", r.total_energy_mj());
  o.set("bytes_transmitted", r.bytes_transmitted);
  o.set("sim_seconds", sim::to_seconds(r.end_time));
  o.set("max_stall_ms", s.max_commit_stall_ms);
  o.set("latency_ms", list(latency_ms));
  return o;
}

/// Per-layer counts of the run (deterministic, from the profiler and the
/// run summary).
exp::Json layer_counts(const harness::RunResult& r,
                        const harness::RunSummary& s) {
  std::uint64_t dedup_tail = 0;
  for (std::size_t i = 0; i < r.footprints.size(); ++i) {
    if (i < r.correct.size() && r.correct[i]) {
      dedup_tail = std::max<std::uint64_t>(dedup_tail,
                                           r.footprints[i].flood_dedup_tail);
    }
  }
  const prof::Snapshot::Pipeline& pl = r.prof.pipeline;
  exp::Json o = exp::Json::object();
  o.set("events_net_deliver", sched_events(r.prof, "net_deliver"));
  o.set("events_commit_timer", sched_events(r.prof, "commit_timer"));
  o.set("events_channel_timeout", sched_events(r.prof, "channel_timeout"));
  o.set("events_view_change", sched_events(r.prof, "view_change"));
  o.set("transmissions", r.transmissions);
  o.set("bytes_transmitted", r.bytes_transmitted);
  o.set("flood_dedup_tail_max", dedup_tail);
  o.set("bytes_copy_saved", pl.bytes_copy_saved);
  o.set("encode_bytes", codec_bytes(r.prof, "encode"));
  o.set("decode_bytes", codec_bytes(r.prof, "decode"));
  o.set("signs", crypto_ops(r.prof, "sign"));
  o.set("verifies", crypto_ops(r.prof, "verify"));
  o.set("sig_cache_hits", pl.sig_cache_hits);
  o.set("spec_join_hits", pl.join_hits);
  o.set("spec_join_misses", pl.join_misses);
  o.set("retained_log_max", s.max_retained_log);
  o.set("store_blocks_max", s.max_store_blocks);
  o.set("view_changes", s.view_changes);
  o.set("checkpoints_taken", s.max_checkpoints_taken);
  o.set("state_transfers", s.state_transfers);
  o.set("max_recovery_ms", s.max_recovery_ms);
  o.set("retransmissions", s.request_retransmissions);
  o.set("rate_limited", s.requests_rate_limited);
  return o;
}

/// The correctness gate: safety holds (final logs agree AND the in-run
/// checker saw no conflicting commit) and every correct replica
/// committed something. Returns the failed checks.
std::vector<std::string> gate(const harness::RunResult& r) {
  std::vector<std::string> failed;
  if (!r.safety_ok()) failed.push_back("safety_ok");
  if (r.safety_violations != 0) failed.push_back("safety_violations");
  if (r.min_committed() == 0) failed.push_back("min_committed");
  return failed;
}

// ---------------------------------------------------------------------------
// Layer probes: each layer's public functions timed on the run's data
// ---------------------------------------------------------------------------

/// Calls `pass` (which performs `calls` operations) until at least
/// `min_ms` of host time has passed; returns host ns per operation.
double ns_per_call(std::size_t calls, const std::function<void()>& pass,
                   double min_ms = 40.0) {
  std::size_t total = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    pass();
    total += calls;
    elapsed = ms_between(t0, Clock::now());
  } while (elapsed < min_ms);
  return elapsed * 1e6 / static_cast<double>(total);
}

struct ProbeResult {
  exp::Json values = exp::Json::object();
  std::vector<std::string> failed;
};

/// The longest retained log of a correct replica: committed blocks of
/// the run (checkpointing truncates logs, so pick the longest).
const std::vector<smr::Block>* longest_correct_log(const harness::RunResult& r) {
  const std::vector<smr::Block>* best = nullptr;
  for (std::size_t i = 0; i < r.logs.size(); ++i) {
    if (r.correct[i] && (best == nullptr || r.logs[i].size() > best->size())) {
      best = &r.logs[i];
    }
  }
  return best;
}

/// Times each layer's public functions on `blocks` (non-empty), the
/// run's own committed blocks.
ProbeResult run_probes(const std::vector<smr::Block>& blocks,
                       const harness::ClusterConfig& cfg,
                       SpanRecorder& spans) {
  ProbeResult out;
  const std::size_t nb = blocks.size();
  std::uint64_t sink = 0;

  std::vector<Bytes> encoded;
  std::vector<Bytes> hashes;
  for (const smr::Block& b : blocks) {
    encoded.push_back(b.encode());
    hashes.push_back(b.hash());
  }

  spans.open("smr.block_hash");
  const double hash_ns = ns_per_call(nb, [&] {
    for (const smr::Block& b : blocks) sink += b.hash()[0];
  });
  spans.close();
  spans.open("smr.block_encode");
  const double encode_ns = ns_per_call(nb, [&] {
    for (const smr::Block& b : blocks) sink += b.encode().size();
  });
  spans.close();
  spans.open("smr.block_decode");
  const double decode_ns = ns_per_call(nb, [&] {
    for (const Bytes& e : encoded) sink += smr::Block::decode(e).height;
  });
  spans.close();
  for (std::size_t i = 0; i < nb; ++i) {
    if (smr::Block::decode(encoded[i]) != blocks[i]) {
      out.failed.push_back("probe_block_roundtrip");
      break;
    }
  }

  // Simulated-key signatures of the scheme the cluster runs, over the
  // committed blocks' hashes (what votes and certificates sign).
  const auto keyring =
      crypto::Keyring::simulated(cfg.scheme, cfg.n, cfg.seed);
  std::vector<Bytes> sigs(nb);
  spans.open("crypto.sign");
  const double sign_ns = ns_per_call(nb, [&] {
    for (std::size_t i = 0; i < nb; ++i) {
      sigs[i] = keyring->signer(static_cast<NodeId>(i % cfg.n)).sign(hashes[i]);
    }
  });
  spans.close();
  std::size_t bad_sigs = 0;
  spans.open("crypto.verify");
  const double verify_ns = ns_per_call(nb, [&] {
    for (std::size_t i = 0; i < nb; ++i) {
      if (!keyring->verify(static_cast<NodeId>(i % cfg.n), hashes[i],
                           sigs[i])) {
        ++bad_sigs;
      }
    }
  });
  spans.close();
  if (bad_sigs != 0) out.failed.push_back("probe_verify");

  // SHA-256 on 64-byte inputs: the leading 64 bytes of each encoded
  // block (zero-padded when shorter).
  std::vector<std::array<std::uint8_t, 64>> chunks(nb);
  for (std::size_t i = 0; i < nb; ++i) {
    chunks[i].fill(0);
    std::copy_n(encoded[i].begin(), std::min<std::size_t>(64, encoded[i].size()),
                chunks[i].begin());
  }
  spans.open("crypto.sha256_64B");
  const double sha_ns = ns_per_call(nb, [&] {
    for (const auto& c : chunks) sink += crypto::Sha256::hash(c)[0];
  });
  spans.close();

  // A standalone scheduler: one at() + one fired event per operation.
  constexpr std::size_t kEvents = 100000;
  spans.open("sim.schedule_fire");
  const double sched_ns = ns_per_call(kEvents, [&] {
    sim::Scheduler s;
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < kEvents; ++i) {
      s.at(static_cast<sim::SimTime>(i), "probe", [&fired] { ++fired; });
    }
    s.run();
    sink += fired;
  });
  spans.close();

  out.values.set("probe_blocks", nb);
  out.values.set("block_hash_us", hash_ns / 1e3);
  out.values.set("block_encode_us", encode_ns / 1e3);
  out.values.set("block_decode_us", decode_ns / 1e3);
  out.values.set("sign_us", sign_ns / 1e3);
  out.values.set("verify_us", verify_ns / 1e3);
  out.values.set("sha256_64B_ns", sha_ns);
  out.values.set("schedule_fire_ns", sched_ns);
  out.values.set("sink", sink);
  return out;
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

/// Cluster set-ups an untraced repeat times after its run; run.py
/// reports the median over all set-ups of all repeats.
constexpr std::size_t kSetupsPerRepeat = 32;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 11;
  bool traced = false;
  std::string trace_out;
};

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const auto& s : v) out += (out.empty() ? "" : ",") + s;
  return out;
}

/// One repeat: set up, run, export, check. Traced repeats also run in
/// windows of one simulated second, turn on the profiler's host scopes,
/// time the layer probes and write the spans as a Chrome trace.
int run_repeat(const Options& opt) {
  harness::ClusterConfig cfg = opt.workload->config(opt.seed);
  cfg.host_timing = opt.traced;
  SpanRecorder spans(opt.workload->name);

  spans.open(opt.traced ? "hostbench.traced_run" : "hostbench.run");
  spans.open("harness.setup");
  harness::Cluster cluster(cfg);
  cluster.start();
  const double setup_ms = spans.close();

  // Untraced repeats time a single run_for. Traced repeats cut it into
  // windows of one simulated second, one span each: the checker ticks
  // stay on the same 4-hop grid, so the simulated result is
  // byte-identical to a single call (the fingerprint comparison in run.py
  // checks that traced and untraced repeats agree). Every window ends in
  // a snapshot of the cluster (logs, latency samples), which the traced
  // run_ms therefore carries once per window.
  const sim::Duration window =
      opt.traced ? sim::seconds(1) : opt.workload->duration;
  double run_ms = 0;
  harness::RunResult r;
  // Traced repeats keep the longest committed log any window ended with:
  // checkpoint truncation can leave the final logs empty.
  std::vector<smr::Block> probe_blocks;
  for (sim::Duration done = 0; done < opt.workload->duration; done += window) {
    spans.open("harness.run_for", static_cast<std::uint64_t>(done / window));
    r = harness::RunResult{};  // free the last window's copy first
    r = cluster.run_for(std::min(window, opt.workload->duration - done));
    run_ms += spans.close();
    const std::vector<smr::Block>* log = longest_correct_log(r);
    if (opt.traced && log != nullptr && log->size() > probe_blocks.size()) {
      probe_blocks = *log;
    }
  }
  spans.open("obs.export");
  obs::Registry reg;
  r.to_registry(reg);
  const harness::RunSummary s = r.summarize();
  const double export_ms = spans.close();
  // Read before any later allocation, so it is the run's own peak.
  const double rss_mb = peak_rss_mb();

  spans.open("harness.safety_check");
  std::vector<std::string> failed = gate(r);
  const double safety_ms = spans.close();

  exp::Json host = exp::Json::object();
  host.set("setup_ms", setup_ms);
  host.set("run_ms", run_ms);
  host.set("export_ms", export_ms);
  host.set("safety_check_ms", safety_ms);
  host.set("host_s", (run_ms + export_ms) / 1e3);
  host.set("peak_rss_mb", rss_mb);
  exp::Json out = exp::Json::object();
  out.set("mode", opt.traced ? "traced" : "untraced");
  out.set("workload", opt.workload->name);
  out.set("seed", opt.seed);
  out.set("build", build_tags());

  if (!opt.traced) {
    spans.close();
    // Set-up cost: Cluster construction plus start, repeated in a warm
    // process.
    std::vector<double> samples;
    for (std::size_t k = 0; k < kSetupsPerRepeat; ++k) {
      const auto a = Clock::now();
      auto c = std::make_unique<harness::Cluster>(cfg);
      c->start();
      samples.push_back(ms_between(a, Clock::now()));
    }
    host.set("setup_samples_ms", list(samples));
  } else {
    spans.open("hostbench.layer_probes");
    if (probe_blocks.empty()) {
      failed.push_back("probe_blocks");
      probe_blocks.push_back(smr::genesis_block());
    }
    ProbeResult probes = run_probes(probe_blocks, cfg, spans);
    spans.close();
    spans.close();
    failed.insert(failed.end(), probes.failed.begin(), probes.failed.end());

    const auto scope = [&](const char* label) {
      const auto it = r.prof.host_scopes.find(label);
      return it == r.prof.host_scopes.end() ? prof::HostScopeStats{}
                                            : it->second;
    };
    const prof::HostScopeStats deliver = scope("replica.on_deliver");
    const prof::HostScopeStats commit = scope("replica.commit_chain");
    host.set("on_deliver_ms", deliver.total_ms);
    host.set("on_deliver_calls", deliver.count);
    host.set("commit_chain_ms", commit.total_ms);
    host.set("commit_chain_calls", commit.count);
    out.set("layer", layer_counts(r, s));
    out.set("probe", probes.values);

    std::ofstream f(opt.trace_out);
    f << spans.chrome_trace().dump() << '\n';
    if (!f) failed.push_back("trace_write");
  }

  out.set("correct", failed.empty());
  out.set("failed_checks", join(failed));
  out.set("host", host);
  out.set("sim", sim_metrics(r, s));
  out.set("fingerprint", sim_fingerprint(reg, r));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload commit_path|wide_flood|"
               "leader_churn [--seed S] "
               "[--traced --trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      const std::string name = argv[++i];
      for (const Workload& w : kWorkloads) {
        if (name == w.name) opt.workload = &w;
      }
      if (opt.workload == nullptr) return usage();
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else if (a == "--traced") {
      opt.traced = true;
    } else {
      return usage();
    }
  }
  if (opt.workload == nullptr || (opt.traced && opt.trace_out.empty())) {
    return usage();
  }
  return run_repeat(opt);
}
