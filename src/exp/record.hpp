// Serialization of harness run measurements into exp::Json — the bridge
// between the simulator's RunResult and the structured BENCH_*.json /
// CSV output of the experiment engine. The summary and footprint
// sections are loops over the field tables of src/harness/metrics.hpp:
// a JSON key is declared there, once, next to its registry family.
#pragma once

#include "src/exp/json.hpp"
#include "src/exp/metrics.hpp"
#include "src/harness/metrics.hpp"

namespace eesmr::exp {

/// Flat summary record (harness::RunSummary) as an ordered JSON object,
/// keys in field-table order; kNonZero fields are omitted while zero.
Json summary_json(const harness::RunSummary& s);

/// Full serialized RunResult: {"summary": ..., "streams": ...,
/// "node_energy_mj": [...], "footprints": [...]}. "streams" is the
/// per-stream radio breakdown over correct nodes (clients included),
/// {"proposal": {"send_mj", "recv_mj", "tx", "bytes_sent",
/// "bytes_received"}, ...}, with silent streams omitted. Round-trippable
/// through Json::parse (see tests/exp_test.cpp). Every section is read
/// back out of one obs::Registry snapshot (RunResult::to_registry) — the
/// registry is the single source the record derives from.
Json run_result_json(const harness::RunResult& r);

/// Parse a run_result_json() document back into the flat summary (the
/// inverse used by tooling reading BENCH_*.json). Throws JsonError /
/// std::out_of_range on malformed input.
harness::RunSummary summary_from_json(const Json& doc);

/// Attach the headline scalars of `r` to a MetricRow under conventional
/// column names (energy_per_block_mj, total_mj, blocks, view_changes,
/// safety), plus the full nested record under "run" when `detail`.
void add_run_metrics(MetricRow& row, const harness::RunResult& r,
                     bool detail = true);

}  // namespace eesmr::exp
