// Run-level measurements: the quantities the paper's figures plot.
//
// Every exported run scalar is declared once, as a row of a field table
// (RunSummary::for_each_field, ReplicaFootprint::for_each_field). The
// registry export (RunResult::to_registry, summary_to_registry), its
// reader (summary_from_registry) and the BENCH_*.json record
// (src/exp/record.hpp) are all loops over those tables, so adding a run
// metric is one struct member, one line of RunResult::summarize() and
// one table row.
#pragma once

#include <cstdint>
#include <vector>

#include "src/client/stats.hpp"
#include "src/energy/meter.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/prof.hpp"
#include "src/sim/time.hpp"
#include "src/smr/block.hpp"

namespace eesmr::harness {

/// Declaration of one exported field: one row of a field table.
struct MetricField {
  enum class Emit : std::uint8_t {
    kAlways,
    kNonZero,       ///< registry family and JSON key only while nonzero
    kRegistryOnly,  ///< registry family, never a JSON key
  };
  const char* key;     ///< JSON key (the struct member's name)
  const char* family;  ///< obs::Registry family name
  obs::MetricKind kind;
  const char* help;    ///< family HELP text
  Emit emit = Emit::kAlways;

  /// True when a field holding `v` is left out of the registry and the
  /// JSON record (a kNonZero field while zero).
  [[nodiscard]] bool omitted(double v) const {
    return emit == Emit::kNonZero && v == 0;
  }
};

/// Per-replica memory/checkpoint footprint (the quantities the bounded-
/// memory acceptance criterion compares: with checkpointing at interval
/// k, retained_log and the dedup sets stay O(k); without, they grow with
/// the run).
struct ReplicaFootprint {
  std::size_t retained_log = 0;           ///< log() blocks kept
  std::size_t store_blocks = 0;           ///< BlockStore entries
  std::size_t executed_entries = 0;       ///< exactly-once reply cache
  std::size_t mempool_pending = 0;
  std::size_t mempool_committed_keys = 0;
  std::size_t flood_dedup_tail = 0;       ///< router seen-window tails
  std::uint64_t committed_blocks = 0;     ///< total ever committed
  std::uint64_t low_water_mark = 0;
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t stable_height = 0;
  std::uint64_t state_transfers = 0;

  [[nodiscard]] std::size_t dedup_entries() const {
    return executed_entries + mempool_committed_keys;
  }

  /// The footprint field table: calls fn(const MetricField&, field&) for
  /// every member in declaration order (`fp` may be const). Exported as
  /// per-node gauges (label `node`) and the record's "footprints" array.
  template <class Footprint, class Fn>
  static void for_each_field(Footprint& fp, Fn&& fn) {
    using F = MetricField;
    constexpr obs::MetricKind G = obs::MetricKind::kGauge;
    fn(F{"retained_log", "eesmr_footprint_retained_log", G,
         "Retained committed-log blocks"},
       fp.retained_log);
    fn(F{"store_blocks", "eesmr_footprint_store_blocks", G,
         "BlockStore entries"},
       fp.store_blocks);
    fn(F{"executed_entries", "eesmr_footprint_executed_entries", G,
         "Exactly-once reply cache size"},
       fp.executed_entries);
    fn(F{"mempool_pending", "eesmr_footprint_mempool_pending", G,
         "Pending mempool requests"},
       fp.mempool_pending);
    fn(F{"mempool_committed_keys", "eesmr_footprint_mempool_committed_keys",
         G, "Mempool committed-key set"},
       fp.mempool_committed_keys);
    // Registry-only: the JSON record predates it and tooling round-trips
    // the historical key set.
    fn(F{"flood_dedup_tail", "eesmr_footprint_flood_dedup_tail", G,
         "Flood-router dedup tail entries", F::Emit::kRegistryOnly},
       fp.flood_dedup_tail);
    fn(F{"committed_blocks", "eesmr_footprint_committed_blocks", G,
         "Blocks ever committed"},
       fp.committed_blocks);
    fn(F{"low_water_mark", "eesmr_footprint_low_water_mark", G,
         "Stable-checkpoint truncation height"},
       fp.low_water_mark);
    fn(F{"checkpoints_taken", "eesmr_footprint_checkpoints_taken", G,
         "Checkpoints taken"},
       fp.checkpoints_taken);
    fn(F{"stable_height", "eesmr_footprint_stable_height", G,
         "Highest stable checkpoint"},
       fp.stable_height);
    fn(F{"state_transfers", "eesmr_footprint_state_transfers", G,
         "Completed snapshot catch-ups"},
       fp.state_transfers);
  }
};

/// The flat, serialization-ready digest of a RunResult: every scalar the
/// paper's figures plot, with times in milliseconds/seconds. This is the
/// record the experiment engine writes into BENCH_*.json (alongside the
/// per-stream breakdown, which keeps its own structure).
struct RunSummary {
  std::size_t nodes = 0;  ///< meters (protocol nodes + clients)
  /// Final-log cross-check AND zero in-run SafetyChecker violations.
  bool safety_ok = true;
  std::uint64_t min_committed = 0;
  std::uint64_t max_committed = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t bytes_transmitted = 0;
  double end_time_s = 0;

  double total_energy_mj = 0;
  double energy_per_block_mj = 0;

  // Client / workload.
  std::uint64_t requests_submitted = 0;
  std::uint64_t requests_accepted = 0;
  std::uint64_t request_retransmissions = 0;
  std::uint64_t requests_dropped = 0;
  std::uint64_t requests_rate_limited = 0;
  std::uint64_t request_failovers = 0;
  std::uint64_t requests_forwarded = 0;
  std::uint64_t request_hints_applied = 0;
  std::uint64_t controller_dedup_saved = 0;
  std::uint64_t controller_dedup_bytes_saved = 0;
  double accepted_per_sec = 0;
  std::uint64_t latency_samples = 0;
  double latency_p50_ms = 0;
  double latency_p90_ms = 0;
  double latency_p99_ms = 0;
  double latency_mean_ms = 0;

  // Checkpoint / memory.
  std::uint64_t state_transfers = 0;
  double max_recovery_ms = 0;
  std::size_t max_retained_log = 0;
  std::size_t max_dedup_entries = 0;
  std::size_t max_store_blocks = 0;       ///< over counted correct nodes
  std::uint64_t max_checkpoints_taken = 0;

  // Adversary / fault injection.
  std::uint64_t safety_violations = 0;
  bool liveness_ok = true;
  double max_commit_stall_ms = 0;
  std::uint64_t faults_dropped = 0;
  std::uint64_t faults_duplicated = 0;
  std::uint64_t faults_reordered = 0;
  std::uint64_t msgs_withheld = 0;
  std::uint64_t byz_requests_sent = 0;
  double adversary_energy_mj = 0;

  // Membership / certificate scheme (see RunResult; zero when unused).
  std::uint64_t membership_changes = 0;
  std::uint64_t membership_generation = 0;
  std::uint64_t acceptance_certs = 0;

  friend bool operator==(const RunSummary&, const RunSummary&) = default;

  /// The run field table: calls fn(const MetricField&, field&) for every
  /// member in declaration order (`s` may be const). Each row is the
  /// member's one declaration of JSON key, `eesmr_run_*` family, kind
  /// and HELP text.
  template <class Summary, class Fn>
  static void for_each_field(Summary& s, Fn&& fn) {
    using F = MetricField;
    constexpr obs::MetricKind C = obs::MetricKind::kCounter;
    constexpr obs::MetricKind G = obs::MetricKind::kGauge;
    fn(F{"nodes", "eesmr_run_nodes", G,
         "Metered nodes (protocol nodes + clients)"},
       s.nodes);
    fn(F{"safety_ok", "eesmr_run_safety_ok", G,
         "1 when the final-log cross-check and the in-run SafetyChecker "
         "agree no conflicting honest commits happened"},
       s.safety_ok);
    fn(F{"min_committed", "eesmr_run_min_committed", G,
         "Minimum committed blocks over correct nodes"},
       s.min_committed);
    fn(F{"max_committed", "eesmr_run_max_committed", G,
         "Maximum committed blocks over correct nodes"},
       s.max_committed);
    fn(F{"view_changes", "eesmr_run_view_changes_total", C,
         "View changes (max over correct nodes)"},
       s.view_changes);
    fn(F{"transmissions", "eesmr_run_transmissions_total", C,
         "Radio send operations, cluster-wide"},
       s.transmissions);
    fn(F{"bytes_transmitted", "eesmr_run_bytes_transmitted_total", C,
         "Bytes transmitted, cluster-wide"},
       s.bytes_transmitted);
    fn(F{"end_time_s", "eesmr_run_end_time_seconds", G,
         "Simulated run duration"},
       s.end_time_s);
    fn(F{"total_energy_mj", "eesmr_run_total_energy_mj", G,
         "Total energy over counted correct nodes (mJ)"},
       s.total_energy_mj);
    fn(F{"energy_per_block_mj", "eesmr_run_energy_per_block_mj", G,
         "Total energy / min committed blocks (the paper's energy per SMR)"},
       s.energy_per_block_mj);
    fn(F{"requests_submitted", "eesmr_run_requests_submitted_total", C,
         "Client requests submitted"},
       s.requests_submitted);
    fn(F{"requests_accepted", "eesmr_run_requests_accepted_total", C,
         "Client requests accepted (f+1 matching replies)"},
       s.requests_accepted);
    fn(F{"request_retransmissions",
         "eesmr_run_request_retransmissions_total", C,
         "Client retransmissions"},
       s.request_retransmissions);
    fn(F{"requests_dropped", "eesmr_run_requests_dropped_total", C,
         "Mempool-capacity request drops"},
       s.requests_dropped);
    fn(F{"requests_rate_limited", "eesmr_run_requests_rate_limited_total", C,
         "Per-client pending-cap rejections"},
       s.requests_rate_limited);
    fn(F{"request_failovers", "eesmr_run_request_failovers_total", C,
         "Client-side submission subset rotations"},
       s.request_failovers);
    fn(F{"requests_forwarded", "eesmr_run_requests_forwarded_total", C,
         "Replica-side request forwards to the leader"},
       s.requests_forwarded);
    fn(F{"request_hints_applied", "eesmr_run_request_hints_applied_total", C,
         "Reply-metadata leader hints applied by clients"},
       s.request_hints_applied);
    fn(F{"controller_dedup_saved", "eesmr_run_controller_dedup_saved_total",
         C, "Duplicate orderings the trusted controller dedup skipped"},
       s.controller_dedup_saved);
    fn(F{"controller_dedup_bytes_saved",
         "eesmr_run_controller_dedup_bytes_saved_total", C,
         "Downlink command bytes the controller dedup saved"},
       s.controller_dedup_bytes_saved);
    fn(F{"accepted_per_sec", "eesmr_run_accepted_per_sec", G,
         "Accepted client requests per simulated second (goodput)"},
       s.accepted_per_sec);
    fn(F{"latency_samples", "eesmr_run_latency_samples", G,
         "Request latency sample count"},
       s.latency_samples);
    fn(F{"latency_p50_ms", "eesmr_run_latency_p50_ms", G,
         "Exact request-latency p50 (ms)"},
       s.latency_p50_ms);
    fn(F{"latency_p90_ms", "eesmr_run_latency_p90_ms", G,
         "Exact request-latency p90 (ms)"},
       s.latency_p90_ms);
    fn(F{"latency_p99_ms", "eesmr_run_latency_p99_ms", G,
         "Exact request-latency p99 (ms)"},
       s.latency_p99_ms);
    fn(F{"latency_mean_ms", "eesmr_run_latency_mean_ms", G,
         "Mean request latency (ms)"},
       s.latency_mean_ms);
    fn(F{"state_transfers", "eesmr_run_state_transfers_total", C,
         "Completed snapshot catch-ups"},
       s.state_transfers);
    fn(F{"max_recovery_ms", "eesmr_run_max_recovery_ms", G,
         "Slowest request-to-restore state transfer (ms)"},
       s.max_recovery_ms);
    fn(F{"max_retained_log", "eesmr_run_max_retained_log", G,
         "Largest retained log over correct protocol nodes"},
       s.max_retained_log);
    fn(F{"max_dedup_entries", "eesmr_run_max_dedup_entries", G,
         "Largest dedup-set size over correct protocol nodes"},
       s.max_dedup_entries);
    fn(F{"max_store_blocks", "eesmr_run_max_store_blocks", G,
         "Largest block store over counted correct nodes"},
       s.max_store_blocks);
    fn(F{"max_checkpoints_taken", "eesmr_run_max_checkpoints_taken", G,
         "Most checkpoints taken by a counted correct node"},
       s.max_checkpoints_taken);
    fn(F{"safety_violations", "eesmr_run_safety_violations_total", C,
         "Conflicting honest commits the in-run SafetyChecker detected"},
       s.safety_violations);
    fn(F{"liveness_ok", "eesmr_run_liveness_ok", G,
         "1 when the honest commit frontier never stalled past the bound"},
       s.liveness_ok);
    fn(F{"max_commit_stall_ms", "eesmr_run_max_commit_stall_ms", G,
         "Longest honest commit-frontier stall (ms)"},
       s.max_commit_stall_ms);
    fn(F{"faults_dropped", "eesmr_run_faults_dropped_total", C,
         "Injected delivery drops"},
       s.faults_dropped);
    fn(F{"faults_duplicated", "eesmr_run_faults_duplicated_total", C,
         "Injected delivery duplicates"},
       s.faults_duplicated);
    fn(F{"faults_reordered", "eesmr_run_faults_reordered_total", C,
         "Injected delivery reorder delays"},
       s.faults_reordered);
    fn(F{"msgs_withheld", "eesmr_run_msgs_withheld_total", C,
         "Messages suppressed by Byzantine withhold filters"},
       s.msgs_withheld);
    fn(F{"byz_requests_sent", "eesmr_run_byz_requests_sent_total", C,
         "Requests flooded by Byzantine clients"},
       s.byz_requests_sent);
    fn(F{"adversary_energy_mj", "eesmr_run_adversary_energy_mj", G,
         "Energy spent by adversarial nodes (mJ)"},
       s.adversary_energy_mj);
    // Membership / certificate-scheme fields only exist on runs that used
    // them, so legacy registries and records keep their historical key set.
    fn(F{"membership_changes", "eesmr_run_membership_changes_total", C,
         "Committed membership policy blocks applied", F::Emit::kNonZero},
       s.membership_changes);
    fn(F{"membership_generation", "eesmr_run_membership_generation", G,
         "Highest active membership generation", F::Emit::kNonZero},
       s.membership_generation);
    fn(F{"acceptance_certs", "eesmr_run_acceptance_certs_total", C,
         "O(1) acceptance certificates folded by clients", F::Emit::kNonZero},
       s.acceptance_certs);
  }
};

/// Register every RunSummary field as its flat `eesmr_run_*` family, in
/// table order, `base` labels on every sample (the run block of
/// RunResult::to_registry).
void summary_to_registry(const RunSummary& s, obs::Registry& reg,
                         const obs::Labels& base = {});

/// Read a RunSummary back out of a registry populated by
/// summary_to_registry with the same `base` labels. Throws
/// std::out_of_range when a run-level family is missing.
[[nodiscard]] RunSummary summary_from_registry(const obs::Registry& reg,
                                               const obs::Labels& base = {});

struct RunResult {
  std::vector<energy::Meter> meters;            ///< per node
  std::vector<std::vector<smr::Block>> logs;    ///< retained, per node
  /// Total blocks ever committed per node (>= logs[i].size(); the
  /// difference is what checkpoint GC truncated). Empty when a RunResult
  /// is assembled by hand — accessors then fall back to logs sizes.
  std::vector<std::uint64_t> committed_blocks;
  std::vector<bool> correct;                    ///< honest && counted
  std::vector<bool> counted;                    ///< counted in energy sums
  std::uint64_t view_changes = 0;               ///< max over correct nodes
  std::uint64_t transmissions = 0;
  std::uint64_t bytes_transmitted = 0;
  sim::SimTime end_time = 0;

  // Client/workload measurements (empty when no clients configured).
  client::LatencyHistogram latency;  ///< submit→accept, all clients
  std::uint64_t requests_submitted = 0;
  std::uint64_t requests_accepted = 0;
  std::uint64_t request_retransmissions = 0;
  /// Admission-control sheds: mempool-capacity drops and per-client
  /// pending-cap rejections, summed over replicas.
  std::uint64_t requests_dropped = 0;
  std::uint64_t requests_rate_limited = 0;
  /// TargetedSubset submission: client-side subset rotations and
  /// replica-side request forwards to the leader.
  std::uint64_t request_failovers = 0;
  std::uint64_t requests_forwarded = 0;
  /// Reply-metadata leader hints that re-aimed a client's subset cursor.
  std::uint64_t request_hints_applied = 0;
  /// Trusted baseline: duplicate request orderings the controller dedup
  /// skipped, and the command bytes they would have re-shipped downlink.
  std::uint64_t controller_dedup_saved = 0;
  std::uint64_t controller_dedup_bytes_saved = 0;

  // Checkpoint / state-transfer measurements.
  std::vector<ReplicaFootprint> footprints;  ///< per protocol node
  std::uint64_t state_transfers = 0;         ///< completed catch-ups
  /// Slowest request→restore duration among completed state transfers.
  sim::Duration max_recovery_latency = 0;

  // Adversary / fault-injection measurements (src/adversary). The
  // always-on checkers fill the verdicts on every run, attacked or not.
  /// Conflicting honest commits detected by the in-run SafetyChecker.
  std::uint64_t safety_violations = 0;
  /// Longest stall of the honest commit frontier during the run.
  sim::Duration max_commit_stall = 0;
  /// Configured liveness bound (AdversarySpec::stall_bound; 0 = observe
  /// only, liveness_ok() then never fails).
  sim::Duration liveness_stall_bound = 0;
  /// Network-level fault injections actually applied.
  std::uint64_t faults_dropped = 0;
  std::uint64_t faults_duplicated = 0;
  std::uint64_t faults_reordered = 0;
  /// Outgoing messages suppressed by Byzantine withhold filters.
  std::uint64_t msgs_withheld = 0;
  /// Requests flooded by Byzantine clients.
  std::uint64_t byz_requests_sent = 0;

  // Membership / certificate-scheme measurements (all zero on runs
  // without policy events or the aggregate scheme; exported to the
  // registry and the JSON record only when nonzero, so legacy baselines
  // keep their historical key set).
  /// Committed policy blocks applied (max over counted correct nodes).
  std::uint64_t membership_changes = 0;
  /// Highest active membership generation over counted correct nodes.
  std::uint64_t membership_generation = 0;
  /// O(1) acceptance certificates folded by clients (aggregate scheme).
  std::uint64_t acceptance_certs = 0;

  /// Deterministic profiler snapshot (src/obs/prof.hpp): scheduler
  /// event-kind counts, per-site crypto op counts, codec byte counts,
  /// early drops, sampled-request energy attribution, and (opt-in,
  /// non-deterministic) host wall-clock scopes. Exported into the
  /// registry as the `eesmr_prof_*` families when non-empty.
  prof::Snapshot prof;

  /// Liveness verdict: the honest commit frontier never stalled past the
  /// configured bound (vacuously true when no bound was set).
  [[nodiscard]] bool liveness_ok() const {
    return liveness_stall_bound == 0 ||
           max_commit_stall <= liveness_stall_bound;
  }
  /// Energy spent by adversarial nodes (faulty replicas + Byzantine
  /// clients) — what the attack cost the attacker.
  [[nodiscard]] double adversary_energy_mj() const;

  /// Safety (Definition 2.1): for every height, all correct nodes that
  /// committed (and still retain) a block at that height committed the
  /// same block. Height-keyed, so logs truncated at different stable
  /// checkpoints compare correctly.
  [[nodiscard]] bool safety_ok() const;

  /// Blocks ever committed by node `id` (committed_blocks when recorded,
  /// otherwise the retained log length).
  [[nodiscard]] std::uint64_t committed_at(NodeId id) const;

  /// Minimum committed-block count over correct nodes.
  [[nodiscard]] std::size_t min_committed() const;
  [[nodiscard]] std::size_t max_committed() const;

  /// Largest retained log / dedup-set size over correct protocol nodes
  /// (the memory-bound headline numbers).
  [[nodiscard]] std::size_t max_retained_log() const;
  [[nodiscard]] std::size_t max_dedup_entries() const;

  /// Accepted client requests per simulated second (goodput).
  [[nodiscard]] double accepted_per_sec() const;

  /// Per-stream (channel-class) radio traffic/energy, summed over
  /// counted correct protocol nodes — where each replica Joule went.
  [[nodiscard]] energy::StreamStats stream_totals(energy::Stream s) const;
  /// Same, over every correct node including clients: the full cost of
  /// a stream (e.g. request submission energy paid at the client radio
  /// plus replica relaying).
  [[nodiscard]] energy::StreamStats stream_totals_all(energy::Stream s) const;

  /// Total energy over counted correct nodes (mJ).
  [[nodiscard]] double total_energy_mj() const;
  /// Total energy / min committed blocks — the paper's "energy per SMR".
  [[nodiscard]] double energy_per_block_mj() const;
  [[nodiscard]] double node_energy_mj(NodeId id) const;
  /// Per-node energy / committed blocks of that node.
  [[nodiscard]] double node_energy_per_block_mj(NodeId id) const;

  /// Register every measurement of this run into `reg` under the
  /// canonical `eesmr_*` metric families, `base` labels prepended to
  /// every sample: the flat `eesmr_run_*` families (summary_to_registry
  /// of summarize()), the request-latency histogram, per-node gauges
  /// (label `node`) including the footprint table, per-stream radio
  /// stats (labels `stream`, `scope`), per-category energy/ops totals
  /// (label `category`) and the profiler families.
  void to_registry(obs::Registry& reg, const obs::Labels& base = {}) const;

  /// Flatten into the serializable summary record: each RunSummary
  /// field is computed here, once, straight from this result.
  [[nodiscard]] RunSummary summarize() const;
};

}  // namespace eesmr::harness
