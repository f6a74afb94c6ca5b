// Structured event/span layer, exported as Chrome trace-event JSON
// (openable in Perfetto / chrome://tracing), with an optional live text
// mirror.
//
// The commit path (propose -> vote -> certify -> commit), view changes,
// checkpoints, state transfers and injected faults emit typed events
// here. Each Cluster opens one *epoch* (one Chrome "process"); nodes map
// to Chrome threads; block and view-change lifetimes are async spans
// keyed by height / view number. With a text sink attached
// (Tracer::set_text_sink) every event is also handed to the sink as one
// human-readable line while it is recorded: a live textual feed of the
// same stream.
//
// SimTime is already integer microseconds — exactly Chrome's `ts` unit —
// so timestamps pass through untouched.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/exp/json.hpp"
#include "src/sim/time.hpp"

namespace eesmr::obs {

/// One Chrome trace event. `ph` is the Chrome phase: 'i' instant,
/// 'b'/'n'/'e' async begin/instant/end, 'X' complete (with `dur`),
/// 'C' counter, 's'/'t'/'f' flow start/step/end.
struct TraceEvent {
  sim::SimTime ts = 0;
  std::int64_t node = -1;  ///< Chrome tid; -1 for epoch-scoped events
  std::uint32_t epoch = 0;
  char ph = 'i';
  std::uint64_t id = 0;  ///< async span / flow id (block height, view, request)
  sim::SimTime dur = 0;  ///< duration, 'X' events only
  std::string name;
  const char* cat = "sim";
  std::vector<std::pair<std::string, exp::Json>> args;
};

class Tracer {
 public:
  /// Start a new epoch (one Cluster run = one Chrome process). Returns
  /// the epoch index used for subsequent events. Epoch 0 exists by
  /// default with an empty label.
  std::uint32_t open_epoch(const std::string& label);

  using Args = std::vector<std::pair<std::string, exp::Json>>;

  void instant(sim::SimTime ts, std::int64_t node, const char* cat,
               std::string name, Args args = {});
  void async_begin(sim::SimTime ts, std::int64_t node, const char* cat,
                   std::string name, std::uint64_t id, Args args = {});
  void async_instant(sim::SimTime ts, std::int64_t node, const char* cat,
                     std::string name, std::uint64_t id, Args args = {});
  void async_end(sim::SimTime ts, std::int64_t node, const char* cat,
                 std::string name, std::uint64_t id, Args args = {});

  /// Complete event ('X'): a slice [ts, ts+dur) on one thread. Flow
  /// arrows need enclosing slices to attach to, so lifecycle points of a
  /// traced request emit a short complete event as the anchor.
  void complete(sim::SimTime ts, std::int64_t node, const char* cat,
                std::string name, sim::SimTime dur, Args args = {});

  /// Counter event ('C'): each arg becomes one series of a counter track
  /// named `name` (used for host-timing tracks next to the sim spans).
  void counter(sim::SimTime ts, std::int64_t node, const char* cat,
               std::string name, Args args);

  /// Flow events ('s'/'t'/'f'): arrows stitching one causal chain (one
  /// sampled client request) across threads. All three share {cat, id};
  /// each binds to the enclosing slice at (node, ts).
  void flow_begin(sim::SimTime ts, std::int64_t node, const char* cat,
                  std::string name, std::uint64_t id, Args args = {});
  void flow_step(sim::SimTime ts, std::int64_t node, const char* cat,
                 std::string name, std::uint64_t id, Args args = {});
  void flow_end(sim::SimTime ts, std::int64_t node, const char* cat,
                std::string name, std::uint64_t id, Args args = {});

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  void clear();

  /// Text mirror: receives each event with its line, "<name>[ begin|
  /// end|flow-begin|flow-step|flow-end][ #<id>][ <arg>=<json>...]", as
  /// it is recorded. An empty sink (the default) detaches the mirror and
  /// skips building the line.
  using TextSink =
      std::function<void(const TraceEvent&, const std::string& line)>;
  void set_text_sink(TextSink sink) { text_sink_ = std::move(sink); }

  /// Append this tracer's events to a Chrome traceEvents array. Each
  /// epoch becomes one Chrome process starting at pid `first_pid`, named
  /// "<prefix><epoch label>" via process_name metadata. Returns the next
  /// free pid.
  int append_chrome(exp::Json& trace_events, int first_pid,
                    const std::string& prefix = "") const;

  /// Wrap a traceEvents array into a full Chrome trace document.
  static exp::Json chrome_document(exp::Json trace_events);

 private:
  void push(TraceEvent ev);

  std::vector<TraceEvent> events_;
  std::vector<std::string> epoch_labels_{""};
  std::uint32_t epoch_ = 0;
  bool epoch0_claimed_ = false;
  TextSink text_sink_;
};

}  // namespace eesmr::obs
