#!/usr/bin/env python3
"""Host-cost benchmark of the EESMR simulator.

    python3 hostbench/run.py --workload commit_path|wide_flood|leader_churn|all
                             [--seed N] [--seconds T] [--trace 0|1]

Builds the ``hostbench`` binary from this checkout's sources (CMake, into
.bench_build/hostbench), runs it repeatedly for about ``--seconds`` of
host time, checks every repeat, and prints every metric by name and unit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``.

--trace 0 simulates the workload on POOLED_SEEDS seeds derived from
--seed (the first is --seed itself), then keeps cycling through them
until the time is used. Every repeat times one run_for over the whole
simulated duration plus the result export; host_s is the median over
repeats. The simulated metrics are pooled over the distinct seeds, which
keeps them steady across --seed values.

--trace 1 alternates untraced and traced repeats of --seed itself. The
traced repeat runs in windows of one simulated second, turns on the
program's host-timing scopes, records a span around each call the
benchmark makes into a layer, times each layer's public functions on the
run's own committed blocks, and writes the spans as a Chrome trace to
.bench_build/hostbench/traces/.

Correctness gate: in every repeat safety holds, the in-run checker saw no
conflicting commit and every correct replica committed; every repeat of
one (workload, seed), traced or not, produced byte-identical simulated
results; and the binary was built optimised and without sanitizers.
``attempted`` counts client requests submitted over all repeats;
``failed`` counts the requests of repeats that failed the gate (all of
them, when a check spanning repeats failed).

Exit status is non-zero, with no result printed, when the program cannot
be built or run at all.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import aggregate as agg  # noqa: E402

WORKLOADS = ("commit_path", "wide_flood", "leader_churn")
POOLED_SEEDS = 8
BUILD_TYPE = "RelWithDebInfo"
BUILD_DIR = ROOT / ".bench_build" / "hostbench"
# Whole-invocation budget after the build; the contract allows 180 s.
DEADLINE_S = 165.0


def derive_seeds(seed, count):
    """--seed, then splitmix64 successors (deterministic in --seed)."""
    mask = (1 << 64) - 1
    seeds = [seed]
    x = seed
    while len(seeds) < count:
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        seeds.append(z >> 32)
    return seeds


def build():
    """Configure and build the benchmark binary; None on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
              f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
             ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
              "--target", "hostbench"]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"hostbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"hostbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    binary = BUILD_DIR / "hostbench"
    return binary if binary.exists() else None


class Repeats:
    """Runs repeats of one workload and keeps their records."""

    def __init__(self, binary, workload, deadline):
        self.binary = binary
        self.workload = workload
        self.deadline = deadline
        self.records = []
        self.errors = []

    def run(self, seed, traced):
        cmd = [str(self.binary), "--workload", self.workload,
               "--seed", str(seed)]
        if traced:
            trace_dir = BUILD_DIR / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            cmd += ["--traced", "--trace-out",
                    str(trace_dir / f"{self.workload}-seed{seed}.json")]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            self.errors.append(f"seed {seed}: repeat timed out")
            return None
        if done.returncode != 0:
            self.errors.append(f"seed {seed}: exit {done.returncode}: "
                               f"{done.stderr.strip()[-300:]}")
            return None
        try:
            rec = json.loads(done.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            self.errors.append(f"seed {seed}: unreadable output")
            return None
        self.records.append(rec)
        return rec

    def of(self, mode):
        return [r for r in self.records if r["mode"] == mode]


def measure(binary, workload, seed, seconds, trace):
    """Repeat the workload for about `seconds`; returns the Repeats."""
    start = time.monotonic()
    reps = Repeats(binary, workload, start + DEADLINE_S)
    if trace:
        plan = [(seed, False), (seed, True)]  # one untraced + one traced
        min_rounds = 2
    else:
        plan = [(s, False) for s in derive_seeds(seed, POOLED_SEEDS)]
        min_rounds = 1
    step = 0
    # Cover every seed (and repeat the first, so byte identity is
    # checked) before the time budget may end the run.
    needed = len(plan) * min_rounds + (0 if trace else 1)
    while True:
        s, traced = plan[step % len(plan)]
        if reps.run(s, traced) is None:
            break
        step += 1
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / step
        if (step >= needed and next_end > seconds) or next_end > DEADLINE_S:
            break
    return reps


def determinism_errors(records):
    """Repeats of one seed whose simulated results differ."""
    by_seed = {}
    errors = []
    for r in records:
        key = (json.dumps(r["sim"], sort_keys=True), r["fingerprint"])
        first = by_seed.setdefault(r["seed"], key)
        if key != first:
            errors.append(f"seed {r['seed']}: {r['mode']} repeat differs "
                          "from the first repeat of that seed")
    if not any(sum(1 for r in records if r["seed"] == s) > 1
               for s in by_seed):
        errors.append("no seed was repeated; byte identity unchecked")
    return errors


class Report:
    """Collects metrics with units and prints them by name."""

    def __init__(self):
        self.lines = []
        self.metrics = {}

    def add(self, name, value, unit, note=""):
        self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append(f"  {name:34s} = {value:<14.6g} {unit:12s} {note}")

    def text(self, line):
        self.lines.append(line)


def timing_note(values):
    q1, med, q3 = agg.spread(values)
    return (f"median of {len(values)}, quartiles {q1:.4g}..{q3:.4g}"
            if len(values) > 1 else "1 repeat")


def host_seconds(records):
    """Median over repeats of run_for plus export host time."""
    return agg.median(r["host"]["host_s"] for r in records)


def request_record(r):
    """The fields of a repeat record that request accounting reads."""
    return {"submitted": r["sim"]["submitted"],
            "accepted": r["sim"]["accepted"], "correct": r["correct"]}


def end_to_end(rep, untraced):
    """The end-to-end metrics (host metrics over repeats, simulated
    metrics pooled over the distinct seeds)."""
    host_s = host_seconds(untraced)
    med_commits = agg.median(r["sim"]["commits"] for r in untraced)
    events = agg.median(r["sim"]["events"] for r in untraced)
    setups = [ms / 1e3 for r in untraced
              for ms in r["host"]["setup_samples_ms"]]
    rss = [r["host"]["peak_rss_mb"] for r in untraced]
    rep.add("host_s", host_s, "s",
            timing_note([r["host"]["host_s"] for r in untraced]))
    per_commit = agg.Ratio(host_s * 1e3, med_commits)
    rep.add("host_ms_per_commit", per_commit.value, "ms",
            per_commit.text("host ms", "median commits"))
    rate = agg.Ratio(events, host_s)
    rep.add("sim_events_per_host_s", rate.value, "1/s",
            rate.text("median events", "host s"))
    rep.add("setup_s", agg.median(setups), "s", timing_note(setups))
    rep.add("peak_rss_mb", agg.median(rss), "MB", timing_note(rss))

    seen = {}
    for r in untraced:
        seen.setdefault(r["seed"], r)
    distinct = list(seen.values())
    sims = [r["sim"] for r in distinct]
    pooled = agg.pooled_latency(s["latency_ms"] for s in sims)
    count = len(pooled)
    seeds = ", ".join(str(s) for s in seen)
    rep.text(f"  simulated metrics pooled over {len(sims)} seed(s): {seeds}")
    ok = True
    for name, pct in (("sim_latency_p50_ms", 50.0),
                      ("sim_latency_p99_ms", 99.0)):
        if not agg.supports(count, pct):
            ok = False
            rep.text(f"  {name}: {count} samples do not support p{pct:g}")
            continue
        rep.add(name, agg.nearest_rank(pooled, pct), "sim_ms",
                f"nearest rank of {count} samples, "
                f"{agg.samples_beyond(count, pct)} beyond")
    tail = agg.tail_percentile(count)
    if tail is not None:
        rep.text(f"  {'sim_latency_tail':34s} = p{tail:g} "
                 f"{agg.nearest_rank(pooled, tail):.6g} sim_ms "
                 f"({count} samples, {agg.samples_beyond(count, tail)} "
                 "beyond)")
    commits = sum(s["commits"] for s in sims)
    energy = agg.Ratio(sum(s["total_energy_mj"] for s in sims), commits)
    wire = agg.Ratio(sum(s["bytes_transmitted"] for s in sims), commits)
    goodput = agg.Ratio(sum(s["accepted"] for s in sims),
                        sum(s["sim_seconds"] for s in sims))
    rep.add("sim_energy_per_commit_mj", energy.value, "mJ",
            energy.text("mJ", "commits"))
    rep.add("sim_bytes_per_commit", wire.value, "B",
            wire.text("bytes", "commits"))
    rep.add("sim_goodput_rps", goodput.value, "req/s",
            goodput.text("accepted", "sim s"))
    stalls = [s["max_stall_ms"] for s in sims]
    rep.add("sim_max_stall_ms", agg.median(stalls), "sim_ms",
            f"median over seeds of {stalls}")
    requests = agg.Requests(request_record(r) for r in distinct)
    accept = requests.accept_ratio()
    rep.text(f"  {'request_fail_ratio':34s} = "
             f"{requests.fail_ratio().text('unaccepted', 'submitted')}")
    rep.add("request_accept_ratio", accept.value, "ratio",
            accept.text("accepted", "submitted"))
    return ok


def per_layer(rep, untraced, traced):
    """The per-layer metrics of the traced repeats (times are medians)."""
    t = traced[0]
    layer = t["layer"]
    sim = t["sim"]
    commits = max(1, sim["commits"])

    def med(path):
        vals = [r[path[0]][path[1]] for r in traced]
        return agg.median(vals), timing_note(vals)

    # commit_chain runs from commit timers and, on some paths, nested in
    # on_deliver. Calls beyond the commit-timer events are the nested
    # ones; their (mean-apportioned) time is already inside on_deliver.
    cc_calls = t["host"]["commit_chain_calls"]
    nested = max(0, cc_calls - layer["events_commit_timer"])
    handler = []
    self_ms = []
    for r in traced:
        h = r["host"]
        top_cc = (h["commit_chain_ms"] * (cc_calls - nested) / cc_calls
                  if cc_calls else 0.0)
        handler.append(h["on_deliver_ms"] + top_cc)
        self_ms.append(h["run_ms"] - handler[-1])
    run_ms = agg.median([r["host"]["run_ms"] for r in traced])
    share = agg.Ratio(agg.median(handler), run_ms)

    rep.text("  smr")
    v, note = med(("host", "on_deliver_ms"))
    rep.add("smr.on_deliver_ms", v, "ms", note)
    rep.add("smr.on_deliver_calls", t["host"]["on_deliver_calls"], "count")
    v, note = med(("host", "commit_chain_ms"))
    rep.add("smr.commit_chain_ms", v, "ms", note)
    rep.add("smr.commit_chain_calls", cc_calls, "count",
            f"vs {layer['events_commit_timer']} commit_timer events: "
            f"{nested} nested in on_deliver")
    rep.add("smr.handler_share", share.value, "ratio",
            share.text("non-nested handler ms", "run ms"))
    for key in ("block_hash_us", "block_encode_us", "block_decode_us"):
        v, note = med(("probe", key))
        rep.add(f"smr.{key}", v, "us",
                f"{note}; over {t['probe']['probe_blocks']} committed blocks")
    rep.add("smr.retained_log_max", layer["retained_log_max"], "count")
    rep.add("smr.store_blocks_max", layer["store_blocks_max"], "count")

    rep.text("  sim")
    events = sim["events"]
    rep.add("sim.events", events, "count")
    for kind in ("net_deliver", "commit_timer", "channel_timeout",
                 "view_change"):
        rep.add(f"sim.events.{kind}", layer[f"events_{kind}"], "count")
    per = agg.Ratio(events, commits)
    rep.add("sim.events_per_commit", per.value, "count/commit",
            per.text("events", "commits"))
    v, note = med(("probe", "schedule_fire_ns"))
    rep.add("sim.schedule_fire_ns", v, "ns",
            f"{note}; standalone Scheduler::at + run, per event")

    rep.text("  net")
    tx = agg.Ratio(layer["transmissions"], commits)
    rep.add("net.transmissions_per_commit", tx.value, "count/commit",
            tx.text("transmissions", "commits"))
    wire = agg.Ratio(layer["bytes_transmitted"], commits)
    rep.add("net.bytes_per_commit", wire.value, "B/commit",
            wire.text("bytes", "commits"))
    rep.add("net.flood_dedup_tail_max", layer["flood_dedup_tail_max"],
            "count")
    rep.add("net.bytes_copy_saved", layer["bytes_copy_saved"], "B")
    useful = agg.Ratio(t["host"]["on_deliver_calls"],
                       layer["events_net_deliver"])
    rep.add("net.useful_delivery_ratio", useful.value, "ratio",
            useful.text("on_deliver calls", "net_deliver events"))

    rep.text("  harness")
    for key in ("setup_ms", "run_ms", "safety_check_ms"):
        v, note = med(("host", key))
        rep.add(f"harness.{key}", v, "ms", note)
    rep.add("harness.run_self_ms", agg.median(self_ms), "ms",
            "run_ms minus non-nested replica-handler time")

    rep.text("  obs")
    v, note = med(("host", "export_ms"))
    rep.add("obs.export_ms", v, "ms", note)

    rep.text("  serde")
    enc = agg.Ratio(layer["encode_bytes"], commits)
    dec = agg.Ratio(layer["decode_bytes"], commits)
    rep.add("serde.encode_bytes_per_commit", enc.value, "B/commit",
            enc.text("encoded bytes", "commits"))
    rep.add("serde.decode_bytes_per_commit", dec.value, "B/commit",
            dec.text("decoded bytes", "commits"))

    rep.text("  crypto")
    signs = agg.Ratio(layer["signs"], commits)
    verifies = agg.Ratio(layer["verifies"], commits)
    rep.add("crypto.signs_per_commit", signs.value, "count/commit",
            signs.text("signs", "commits"))
    rep.add("crypto.verifies_per_commit", verifies.value, "count/commit",
            verifies.text("verifies", "commits"))
    v, note = med(("probe", "sign_us"))
    rep.add("crypto.sign_us", v, "us",
            f"{note}; simulated-key Signer::sign ({layer['signs']} "
            "profiled signs)")
    v, note = med(("probe", "verify_us"))
    rep.add("crypto.verify_us", v, "us",
            f"{note}; simulated-key verify ({layer['verifies']} "
            "profiled verifies)")
    v, note = med(("probe", "sha256_64B_ns"))
    rep.add("crypto.sha256_64B_ns", v, "ns", note)
    cache = agg.Ratio(layer["sig_cache_hits"],
                      layer["sig_cache_hits"] + layer["verifies"])
    rep.add("crypto.sig_cache_hit_ratio", cache.value, "ratio",
            cache.text("hits", "hits + metered verifies"))
    join = agg.Ratio(layer["spec_join_hits"],
                     layer["spec_join_hits"] + layer["spec_join_misses"])
    rep.add("crypto.spec_join_hit_ratio", join.value, "ratio",
            join.text("hits", "hits + misses"))

    rep.text("  protocol, checkpoint, client")
    rep.add("protocol.view_changes", layer["view_changes"], "count")
    rep.add("checkpoint.taken", layer["checkpoints_taken"], "count")
    rep.add("checkpoint.state_transfers", layer["state_transfers"], "count")
    rep.add("checkpoint.max_recovery_ms", layer["max_recovery_ms"], "sim_ms")
    rep.add("client.retransmissions", layer["retransmissions"], "count")
    rep.add("client.rate_limited", layer["rate_limited"], "count")

    overhead = agg.Ratio(host_seconds(traced), host_seconds(untraced))
    rep.add("trace_overhead_ratio", overhead.value, "ratio",
            overhead.text("traced host_s (one snapshot per window)",
                          "untraced host_s"))


def run_workload(binary, workload, seed, seconds, trace):
    """Measure one workload; returns (report, correct, attempted, failed)."""
    reps = measure(binary, workload, seed, seconds, trace)
    untraced = reps.of("untraced")
    traced = reps.of("traced")
    rep = Report()
    # Failures that span repeats (or lost repeats) void the whole run;
    # a repeat failing its own gate voids its own requests.
    errors = list(reps.errors)
    if not untraced or (trace and not traced):
        errors.append("no complete repeat")
    errors += determinism_errors(reps.records)
    if any(not r["build"]["valid"] for r in reps.records):
        errors.append("build is unoptimised or sanitized: its numbers are "
                      "not comparable")

    if reps.records:
        b = reps.records[0]["build"]
        rep.text(f"hostbench {workload} seed={seed} trace={trace}: "
                 f"{len(untraced)} untraced + {len(traced)} traced repeats")
        rep.text(f"  host: {b['nproc']} cpus, {b['cpu']}; build: "
                 f"{b['build_type']}, {b['compiler']}, optimized="
                 f"{b['optimized']}, sanitized={b['sanitized']}, "
                 f"valid={b['valid']}")
    # With --trace 1 the end-to-end lines cover one seed only and are not
    # the result, so a percentile they cannot support is just noted.
    if untraced and not end_to_end(rep, untraced) and not trace:
        errors.append("latency samples do not support a reported percentile")
    if trace and traced and untraced:
        rep.text(f"  chrome trace: {BUILD_DIR / 'traces'}/"
                 f"{workload}-seed{seed}.json")
        per_layer(rep, untraced, traced)
    missing = sorted(_wanted_metrics(trace) - set(rep.metrics))
    if missing:
        errors.append(f"not measured: {', '.join(missing)}")

    for r in reps.records:
        if not r["correct"]:
            rep.text(f"  CHECK FAILED: seed {r['seed']} ({r['mode']}): "
                     f"{r['failed_checks']}")
    for e in errors:
        rep.text(f"  CHECK FAILED: {e}")
    # The result line counts every repeat's requests; a check spanning
    # repeats that failed voids all of them.
    requests = agg.Requests(request_record(r) for r in reps.records)
    attempted = max(1, requests.attempted)
    failed = attempted if errors else requests.gate_failed
    ok = not errors and all(r["correct"] for r in reps.records)
    return rep, ok, attempted, failed


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    binary = build()
    if binary is None:
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    attempted = failed = 0
    metrics = {}
    for w in workloads:
        rep, ok, att, fail = run_workload(binary, w, args.seed, args.seconds,
                                          args.trace)
        print("\n".join(rep.lines), flush=True)
        correct = correct and ok
        attempted += att
        failed += fail
        prefix = f"{w}." if len(workloads) > 1 else ""
        for name, m in rep.metrics.items():
            metrics[prefix + name] = m
    if args.workload != "all":
        wanted = _wanted_metrics(args.trace)
        metrics = {k: v for k, v in metrics.items() if k in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _wanted_metrics(trace):
    """Metric names BENCHMARK.json lists for this --trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
