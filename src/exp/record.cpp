#include "src/exp/record.hpp"

#include <type_traits>
#include <vector>

#include "src/obs/metrics.hpp"

namespace eesmr::exp {

Json summary_json(const harness::RunSummary& s) {
  Json j = Json::object();
  harness::RunSummary::for_each_field(
      s, [&](const harness::MetricField& f, const auto& v) {
        if (!f.omitted(static_cast<double>(v))) j.set(f.key, Json(v));
      });
  return j;
}

harness::RunSummary summary_from_json(const Json& doc) {
  const Json& j = doc.contains("summary") ? doc.at("summary") : doc;
  harness::RunSummary s;
  harness::RunSummary::for_each_field(
      s, [&](const harness::MetricField& f, auto& v) {
        using T = std::remove_reference_t<decltype(v)>;
        if (f.emit == harness::MetricField::Emit::kNonZero &&
            !j.contains(f.key)) {
          return;
        }
        const Json& x = j.at(f.key);
        if constexpr (std::is_same_v<T, bool>) {
          v = x.as_bool();
        } else {
          v = static_cast<T>(x.as_double());
        }
      });
  return s;
}

namespace {

// The BENCH_*.json sections below read a registry built by
// RunResult::to_registry with no base labels, so every stream sample
// carries exactly {stream, scope} and every per-node sample {node} —
// sample order inside a family is registration order, which to_registry
// fixes to stream-enum / node-id order.

/// Per-stream breakdown from the `eesmr_stream_*` families, scope="all"
/// (clients included). Streams with no traffic were never registered.
Json streams_from_registry(const obs::Registry& reg) {
  Json streams = Json::object();
  const obs::Family* send = reg.find("eesmr_stream_send_mj");
  if (send == nullptr) return streams;
  for (const obs::Sample& s : send->samples) {
    std::string name;
    bool all_scope = false;
    for (const auto& [k, v] : s.labels) {
      if (k == "stream") name = v;
      if (k == "scope") all_scope = v == "all";
    }
    if (!all_scope) continue;
    Json one = Json::object();
    one.set("send_mj", s.value);
    one.set("recv_mj", reg.value("eesmr_stream_recv_mj", s.labels));
    one.set("tx", reg.value("eesmr_stream_tx_total", s.labels));
    one.set("bytes_sent", reg.value("eesmr_stream_bytes_sent_total", s.labels));
    one.set("bytes_received",
            reg.value("eesmr_stream_bytes_received_total", s.labels));
    streams.set(name, std::move(one));
  }
  return streams;
}

/// node_energy_mj array from the per-node energy family, node order.
Json node_energy_from_registry(const obs::Registry& reg) {
  Json node_mj = Json::array();
  if (const obs::Family* fam = reg.find("eesmr_node_energy_mj")) {
    for (const obs::Sample& s : fam->samples) node_mj.push_back(s.value);
  }
  return node_mj;
}

/// footprints array from the `eesmr_footprint_*` families, node order:
/// one object per node holding the footprint table's JSON fields.
Json footprints_from_registry(const obs::Registry& reg) {
  std::vector<Json> nodes;
  const harness::ReplicaFootprint columns;
  harness::ReplicaFootprint::for_each_field(
      columns, [&](const harness::MetricField& f, const auto&) {
        const obs::Family* fam = reg.find(f.family);
        if (f.emit == harness::MetricField::Emit::kRegistryOnly ||
            fam == nullptr) {
          return;
        }
        nodes.resize(fam->samples.size(), Json::object());
        for (std::size_t i = 0; i < nodes.size(); ++i) {
          nodes[i].set(f.key, fam->samples[i].value);
        }
      });
  Json fps = Json::array();
  for (Json& one : nodes) fps.push_back(std::move(one));
  return fps;
}

}  // namespace

Json run_result_json(const harness::RunResult& r) {
  obs::Registry reg;
  r.to_registry(reg);

  Json doc = Json::object();
  doc.set("summary", summary_json(harness::summary_from_registry(reg)));
  doc.set("streams", streams_from_registry(reg));
  doc.set("node_energy_mj", node_energy_from_registry(reg));
  Json fps = footprints_from_registry(reg);
  if (fps.size() > 0) doc.set("footprints", std::move(fps));
  return doc;
}

void add_run_metrics(MetricRow& row, const harness::RunResult& r,
                     bool detail) {
  row.set("blocks", r.min_committed());
  row.set("total_mj", r.total_energy_mj());
  row.set("energy_per_block_mj", r.energy_per_block_mj());
  row.set("view_changes", r.view_changes);
  row.set("safety", Json(r.safety_ok()));
  if (detail) row.set("run", run_result_json(r));
}

}  // namespace eesmr::exp
