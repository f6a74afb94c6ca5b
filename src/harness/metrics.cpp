#include "src/harness/metrics.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <type_traits>

namespace eesmr::harness {

namespace {

/// The node policy every aggregate shares: node `i` is correct when
/// honest and unscripted, and counted when it is also included in the
/// energy sums. Bounds-checked, so a hand-assembled RunResult with short
/// vectors reads the missing nodes as not correct.
bool is_correct(const RunResult& r, std::size_t i) {
  return i < r.correct.size() && r.correct[i];
}

bool is_counted_correct(const RunResult& r, std::size_t i) {
  return is_correct(r, i) && i < r.counted.size() && r.counted[i];
}

void set_field(obs::Registry& reg, const MetricField& f,
               const obs::Labels& labels, double v) {
  if (f.kind == obs::MetricKind::kCounter) {
    reg.set_counter(f.family, f.help, labels, v);
  } else {
    reg.set_gauge(f.family, f.help, labels, v);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

double RunResult::adversary_energy_mj() const {
  double total = 0;
  for (std::size_t i = 0; i < meters.size(); ++i) {
    if (i < correct.size() && !correct[i]) {
      total += meters[i].total_millijoules();
    }
  }
  return total;
}

bool RunResult::safety_ok() const {
  // Compare committed blocks per *height* across correct nodes: with
  // checkpoint truncation the retained logs are suffixes starting at
  // different offsets, so positional comparison would misalign.
  std::map<std::uint64_t, const smr::Block*> canon;
  for (std::size_t a = 0; a < logs.size(); ++a) {
    if (!is_correct(*this, a)) continue;
    for (const smr::Block& b : logs[a]) {
      const auto [it, fresh] = canon.try_emplace(b.height, &b);
      if (!fresh && !(*it->second == b)) return false;
    }
  }
  return true;
}

std::uint64_t RunResult::committed_at(NodeId id) const {
  if (id < committed_blocks.size()) return committed_blocks[id];
  return logs.at(id).size();
}

std::size_t RunResult::min_committed() const {
  std::size_t best = SIZE_MAX;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    if (is_counted_correct(*this, i)) {
      best = std::min<std::size_t>(
          best, committed_at(static_cast<NodeId>(i)));
    }
  }
  return best == SIZE_MAX ? 0 : best;
}

std::size_t RunResult::max_committed() const {
  std::size_t best = 0;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    if (is_counted_correct(*this, i)) {
      best = std::max<std::size_t>(
          best, committed_at(static_cast<NodeId>(i)));
    }
  }
  return best;
}

std::size_t RunResult::max_retained_log() const {
  std::size_t best = 0;
  for (std::size_t i = 0; i < footprints.size(); ++i) {
    if (is_counted_correct(*this, i)) {
      best = std::max(best, footprints[i].retained_log);
    }
  }
  return best;
}

std::size_t RunResult::max_dedup_entries() const {
  std::size_t best = 0;
  for (std::size_t i = 0; i < footprints.size(); ++i) {
    if (is_counted_correct(*this, i)) {
      best = std::max(best, footprints[i].dedup_entries());
    }
  }
  return best;
}

double RunResult::accepted_per_sec() const {
  const double secs = sim::to_seconds(end_time);
  return secs <= 0 ? 0.0
                   : static_cast<double>(requests_accepted) / secs;
}

energy::StreamStats RunResult::stream_totals(energy::Stream s) const {
  energy::StreamStats out;
  for (std::size_t i = 0; i < meters.size(); ++i) {
    if (is_counted_correct(*this, i)) out += meters[i].stream(s);
  }
  return out;
}

energy::StreamStats RunResult::stream_totals_all(energy::Stream s) const {
  energy::StreamStats out;
  for (std::size_t i = 0; i < meters.size(); ++i) {
    if (is_correct(*this, i)) out += meters[i].stream(s);
  }
  return out;
}

double RunResult::total_energy_mj() const {
  double total = 0;
  for (std::size_t i = 0; i < meters.size(); ++i) {
    if (is_counted_correct(*this, i)) total += meters[i].total_millijoules();
  }
  return total;
}

double RunResult::energy_per_block_mj() const {
  const std::size_t blocks = min_committed();
  return blocks == 0 ? 0.0 : total_energy_mj() / static_cast<double>(blocks);
}

double RunResult::node_energy_mj(NodeId id) const {
  return meters.at(id).total_millijoules();
}

double RunResult::node_energy_per_block_mj(NodeId id) const {
  const std::uint64_t blocks = committed_at(id);
  return blocks == 0 ? 0.0 : node_energy_mj(id) / static_cast<double>(blocks);
}

// ---------------------------------------------------------------------------
// Summary: computed once, exported through the field table
// ---------------------------------------------------------------------------

RunSummary RunResult::summarize() const {
  RunSummary s;
  s.nodes = meters.size();
  s.safety_ok = safety_ok() && safety_violations == 0;
  s.min_committed = min_committed();
  s.max_committed = max_committed();
  s.view_changes = view_changes;
  s.transmissions = transmissions;
  s.bytes_transmitted = bytes_transmitted;
  s.end_time_s = sim::to_seconds(end_time);
  s.total_energy_mj = total_energy_mj();
  s.energy_per_block_mj = energy_per_block_mj();

  s.requests_submitted = requests_submitted;
  s.requests_accepted = requests_accepted;
  s.request_retransmissions = request_retransmissions;
  s.requests_dropped = requests_dropped;
  s.requests_rate_limited = requests_rate_limited;
  s.request_failovers = request_failovers;
  s.requests_forwarded = requests_forwarded;
  s.request_hints_applied = request_hints_applied;
  s.controller_dedup_saved = controller_dedup_saved;
  s.controller_dedup_bytes_saved = controller_dedup_bytes_saved;
  s.accepted_per_sec = accepted_per_sec();
  s.latency_samples = latency.count();
  // Exact nearest-rank quantiles from the raw samples; the bucketed form
  // of the SAME observations is the eesmr_request_latency_ms histogram.
  s.latency_p50_ms = sim::to_milliseconds(latency.p50());
  s.latency_p90_ms = sim::to_milliseconds(latency.p90());
  s.latency_p99_ms = sim::to_milliseconds(latency.p99());
  s.latency_mean_ms = latency.mean_ms();

  s.state_transfers = state_transfers;
  s.max_recovery_ms = sim::to_milliseconds(max_recovery_latency);
  s.max_retained_log = max_retained_log();
  s.max_dedup_entries = max_dedup_entries();
  for (std::size_t i = 0; i < footprints.size(); ++i) {
    if (is_counted_correct(*this, i)) {
      s.max_store_blocks =
          std::max(s.max_store_blocks, footprints[i].store_blocks);
      s.max_checkpoints_taken =
          std::max(s.max_checkpoints_taken, footprints[i].checkpoints_taken);
    }
  }

  s.safety_violations = safety_violations;
  s.liveness_ok = liveness_ok();
  s.max_commit_stall_ms = sim::to_milliseconds(max_commit_stall);
  s.faults_dropped = faults_dropped;
  s.faults_duplicated = faults_duplicated;
  s.faults_reordered = faults_reordered;
  s.msgs_withheld = msgs_withheld;
  s.byz_requests_sent = byz_requests_sent;
  s.adversary_energy_mj = adversary_energy_mj();

  s.membership_changes = membership_changes;
  s.membership_generation = membership_generation;
  s.acceptance_certs = acceptance_certs;
  return s;
}

void summary_to_registry(const RunSummary& s, obs::Registry& reg,
                         const obs::Labels& base) {
  RunSummary::for_each_field(s, [&](const MetricField& f, const auto& v) {
    const auto x = static_cast<double>(v);
    if (!f.omitted(x)) set_field(reg, f, base, x);
  });
}

RunSummary summary_from_registry(const obs::Registry& reg,
                                 const obs::Labels& base) {
  RunSummary s;
  RunSummary::for_each_field(s, [&](const MetricField& f, auto& v) {
    if (f.emit == MetricField::Emit::kNonZero &&
        reg.find(f.family) == nullptr) {
      return;
    }
    v = static_cast<std::remove_reference_t<decltype(v)>>(
        reg.value(f.family, base));
  });
  return s;
}

// ---------------------------------------------------------------------------
// Registry snapshot: the canonical metric surface of a run
// ---------------------------------------------------------------------------

void RunResult::to_registry(obs::Registry& reg,
                            const obs::Labels& base) const {
  summary_to_registry(summarize(), reg, base);

  reg.set_histogram("eesmr_request_latency_ms",
                    "Submit-to-accept request latency, bucketed (ms)", base,
                    latency.buckets());

  // Per-node gauges.
  for (std::size_t i = 0; i < meters.size(); ++i) {
    obs::Labels labels = base;
    labels.emplace_back("node", std::to_string(i));
    reg.set_gauge("eesmr_node_energy_mj", "Per-node total energy (mJ)",
                  labels, meters[i].total_millijoules());
  }
  for (std::size_t i = 0; i < logs.size(); ++i) {
    obs::Labels labels = base;
    labels.emplace_back("node", std::to_string(i));
    reg.set_gauge("eesmr_node_committed_blocks",
                  "Blocks ever committed by the node", labels,
                  static_cast<double>(committed_at(static_cast<NodeId>(i))));
    reg.set_gauge("eesmr_node_correct",
                  "1 when the node is honest and unscripted", labels,
                  is_correct(*this, i) ? 1 : 0);
  }
  for (std::size_t i = 0; i < footprints.size(); ++i) {
    obs::Labels labels = base;
    labels.emplace_back("node", std::to_string(i));
    ReplicaFootprint::for_each_field(
        footprints[i], [&](const MetricField& f, const auto& v) {
          set_field(reg, f, labels, static_cast<double>(v));
        });
  }

  // Per-stream radio stats, in stream order, one sample per
  // (stream, scope). Streams with no received traffic are skipped — the
  // same condition the BENCH_*.json stream section uses.
  for (const char* scope : {"all", "counted"}) {
    for (std::size_t s = 0; s < energy::kNumStreams; ++s) {
      const auto stream = static_cast<energy::Stream>(s);
      const energy::StreamStats st = std::string(scope) == "all"
                                         ? stream_totals_all(stream)
                                         : stream_totals(stream);
      if (st.transmissions == 0 && st.bytes_received == 0 &&
          st.recv_mj == 0) {
        continue;
      }
      obs::Labels labels = base;
      labels.emplace_back("stream", energy::stream_name(stream));
      labels.emplace_back("scope", scope);
      reg.set_gauge("eesmr_stream_send_mj",
                    "Per-stream radio transmit energy (mJ)", labels,
                    st.send_mj);
      reg.set_gauge("eesmr_stream_recv_mj",
                    "Per-stream radio receive energy (mJ)", labels,
                    st.recv_mj);
      reg.set_counter("eesmr_stream_tx_total", "Per-stream send operations",
                      labels, static_cast<double>(st.transmissions));
      reg.set_counter("eesmr_stream_bytes_sent_total",
                      "Per-stream bytes sent", labels,
                      static_cast<double>(st.bytes_sent));
      reg.set_counter("eesmr_stream_bytes_received_total",
                      "Per-stream bytes received", labels,
                      static_cast<double>(st.bytes_received));
    }
  }

  // Per-category energy/ops over counted correct nodes.
  for (std::size_t ci = 0; ci < energy::kNumCategories; ++ci) {
    const auto cat = static_cast<energy::Category>(ci);
    double mj = 0;
    std::uint64_t ops = 0;
    for (std::size_t i = 0; i < meters.size(); ++i) {
      if (is_counted_correct(*this, i)) {
        mj += meters[i].millijoules(cat);
        ops += meters[i].ops(cat);
      }
    }
    obs::Labels labels = base;
    labels.emplace_back("category", energy::category_name(cat));
    reg.set_gauge("eesmr_category_energy_mj",
                  "Per-category energy over counted correct nodes (mJ)",
                  labels, mj);
    reg.set_counter("eesmr_category_ops_total",
                    "Per-category operations over counted correct nodes",
                    labels, static_cast<double>(ops));
  }

  // Deterministic profiler families (eesmr_prof_*). Empty for hand-built
  // RunResults, so legacy tests see no new families.
  if (!prof.empty()) prof.to_registry(reg, base);
}

}  // namespace eesmr::harness
