#!/usr/bin/env bash
# Benchmark smoke run: exercises every perf Criterion group and writes a
# JSON-lines summary — one {"id", "ns_per_iter", "iters"} object per
# bench — for the cross-PR perf trajectory (BENCH_pr1.json et al.).
# PR 2 adds the parallel-sweep ids (sweep/registry_100k_{1,N}thread) and
# netsim/events_per_sec alongside the PR 1 set. PR 4 adds the
# observability pair: the obs_overhead bench runs with default features
# (instrumented) and --no-default-features (no-op) and the derived
# obs/overhead_* records report the enabled-vs-disabled delta in
# ns/packet and percent (budget: <= 5%). PR 5 adds the churn trio
# (churn/delta_apply_ns, churn/policy_recompile_ns,
# churn/convergence_virtual_ms) and derives
# churn/delta_vs_recompile_ratio, asserting the incremental path beats a
# full recompile by >= 50x. PR 6 measures the fork-per-cell sweep
# (sweep/registry_100k_forked_*, sweep/lab_fork_ns,
# sweep/registry_100k_fresh_1thread) and derives
# sweep/forked_vs_fresh_ratio with a floor assertion. PR 7 adds the
# million-flow load engine (load/sustained_pps_1m_flows — value is
# packets/sec, higher is better — load/p{50,99,999}_hop_ns_1m_flows,
# load/bytes_per_flow), asserts the pps floor, and derives load/p999_vs_p50_ratio with a <= 10x ceiling
# (steady-state tail must stay near the median). PR 8 prices the
# three-country differential campaign per (profile x domain) cell
# (profiles/differential_3country_us_per_cell, plus the _audited_
# variant with capture + per-profile oracle replay on), derives
# core/device_hop_ns as the canonical per-hop cost record, and guards it
# against the PR 7 baseline (BENCH_pr7.json): the profile indirection on
# the packet path must stay within 5% (or 3 ns absolute, whichever is
# larger) of the pre-profile engine. The hop record takes the minimum of
# device/conntrack_data_packet and the three obs/device_hop_enabled
# batches — four process-level runs of the *identical* loop (same
# packet, same device, same instrumented build), so the guard compares
# the least-disturbed measurement rather than whichever single run the
# scheduler happened to preempt. PR 9 keeps the same bench set (the
# time-series/flight-recorder instrumentation must cost nothing the
# obs/overhead_* records can resolve), moves the hop guard to the PR 8
# baseline, and finishes by running scripts/bench_trend.sh so the full
# cross-PR trajectory (with its own 10% hop gate) prints with every run.
# PR 10 adds the generated-topology records: topo/gen_ns_per_as (5000-AS
# graph build amortized per AS), topo/fork_ns_5000as,
# topo/route_flip_ns (interned-arena path flips),
# tomography/us_per_probe (value is wall microseconds per end-to-end
# probe), and the 1k-domain sweep at three graph sizes
# (sweep/registry_1k_{100,1000,5000}as); the hop guard moves to the
# PR 9 baseline.
#
# Noise control: the enabled/disabled obs batches are interleaved
# (A/B/A/B) so a frequency ramp or a neighbor stealing the core hits
# both sides of the comparison, and every bench id keeps the *minimum*
# ns_per_iter across batches — the run least disturbed by the machine.
#
# Usage:
#   scripts/bench_smoke.sh [OUTPUT]      # quick (~20x shorter) run
#   BENCH_FULL=1 scripts/bench_smoke.sh  # full-length measurement
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_pr10.json}"
# cargo runs bench binaries from the package dir, so anchor relative
# output paths to the workspace root.
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
rm -f "$out"

quick_env=(BENCH_QUICK=1)
if [ "${BENCH_FULL:-0}" = "1" ]; then
  quick_env=()
fi

env "${quick_env[@]}" BENCH_JSON="$out" cargo bench -q -p tspu-bench --bench perf
# Interleaved enabled/disabled batches: A/B/A/B rather than AA/BB, so
# slow drift in machine load cannot masquerade as instrumentation
# overhead (or as a negative overhead).
for _batch in 1 2 3; do
  env "${quick_env[@]}" BENCH_JSON="$out" cargo bench -q -p tspu-bench --bench obs_overhead
  env "${quick_env[@]}" BENCH_JSON="$out" cargo bench -q -p tspu-bench --bench obs_overhead --no-default-features
done

# Dedupe repeated ids (min ns_per_iter wins), derive the cross-record
# metrics, and assert the floors.
python3 - "$out" <<'EOF'
import json, sys

path = sys.argv[1]
records = {}
order = []
with open(path) as fh:
    for line in fh:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        prev = records.get(rec["id"])
        if prev is None:
            order.append(rec["id"])
            records[rec["id"]] = rec
        elif rec["ns_per_iter"] < prev["ns_per_iter"]:
            records[rec["id"]] = rec

derived = []

for metric in ("device_hop", "netsim_event"):
    enabled = records.get(f"obs/{metric}_enabled")
    disabled = records.get(f"obs/{metric}_disabled")
    if not enabled or not disabled:
        continue
    delta = enabled["ns_per_iter"] - disabled["ns_per_iter"]
    rec = {
        "id": f"obs/overhead_{metric}",
        "iters": enabled["iters"],
        "enabled_ns": enabled["ns_per_iter"],
        "disabled_ns": disabled["ns_per_iter"],
    }
    if delta < 0.0:
        # The instrumented build measured *faster* than the no-op build:
        # the true overhead is below what this machine can resolve.
        # Clamp to zero rather than report a negative cost.
        rec["ns_per_iter"] = 0.0
        rec["percent"] = 0.0
        rec["note"] = f"below noise floor (raw delta {delta:+.2f} ns)"
        print(f"obs overhead {metric}: below noise floor (raw {delta:+.2f} ns/iter)")
    else:
        percent = 100.0 * delta / disabled["ns_per_iter"] if disabled["ns_per_iter"] else 0.0
        rec["ns_per_iter"] = round(delta, 3)
        rec["percent"] = round(percent, 2)
        print(f"obs overhead {metric}: {delta:+.2f} ns/iter ({percent:+.2f}%)")
        # Budget: <= 5% of the uninstrumented path, OR <= 3 ns absolute.
        # The absolute floor exists because the base hop cost keeps
        # shrinking: a couple of indexed counter adds are a fixed ns
        # cost, and on a ~50 ns hop that fixed cost can exceed 5% while
        # still being within this machine's run-to-run noise.
        assert percent <= 5.0 or delta <= 3.0, (
            f"obs overhead for {metric} is {delta:.2f} ns ({percent:.2f}%), "
            "over both the 5% and the 3 ns budget"
        )
    derived.append(rec)

# Churn delta-vs-recompile ratio (acceptance: >= 50x).
apply = records.get("churn/delta_apply_ns")
recompile = records.get("churn/policy_recompile_ns")
if apply and recompile:
    ratio = recompile["ns_per_iter"] / apply["ns_per_iter"] if apply["ns_per_iter"] else 0.0
    derived.append({
        "id": "churn/delta_vs_recompile_ratio",
        "ns_per_iter": round(ratio, 1),
        "iters": apply["iters"],
        "delta_apply_ns": apply["ns_per_iter"],
        "policy_recompile_ns": recompile["ns_per_iter"],
    })
    print(f"churn delta vs recompile: {ratio:.1f}x")
    assert ratio >= 50.0, f"incremental delta only {ratio:.1f}x faster than recompile"

# Fork-per-cell vs build-per-scenario (acceptance: >= 2.5x).
# Measured headroom on the reference box is ~3.2x (fork ~1.6 us + run
# vs fresh build ~36 us + run); the floor leaves margin for machine
# noise while still failing if forking ever degenerates into a rebuild.
forked = records.get("sweep/registry_100k_forked_1thread")
fresh = records.get("sweep/registry_100k_fresh_1thread")
if forked and fresh:
    ratio = fresh["ns_per_iter"] / forked["ns_per_iter"] if forked["ns_per_iter"] else 0.0
    rec = {
        "id": "sweep/forked_vs_fresh_ratio",
        "ns_per_iter": round(ratio, 2),
        "iters": forked["iters"],
        "forked_ns": forked["ns_per_iter"],
        "fresh_ns": fresh["ns_per_iter"],
    }
    fork_cost = records.get("sweep/lab_fork_ns")
    if fork_cost:
        rec["lab_fork_ns"] = fork_cost["ns_per_iter"]
    derived.append(rec)
    print(f"sweep forked vs fresh: {ratio:.2f}x")
    assert ratio >= 2.5, f"forked sweep only {ratio:.2f}x faster than build-per-scenario"

# Load engine: sustained throughput floor and tail-latency ceiling.
# The pps record stores packets/sec in ns_per_iter (higher is better);
# the reference box sustains ~110k pps on the full million-flow soak, so
# 20k leaves wide margin for slower CI machines while still failing on
# an algorithmic regression (an O(n) scan anywhere in the packet path
# drops throughput by orders of magnitude, not percents).
pps = records.get("load/sustained_pps_1m_flows")
if pps:
    print(f"load sustained pps: {pps['ns_per_iter']:.0f}")
    assert pps["ns_per_iter"] >= 20_000.0, (
        f"sustained throughput {pps['ns_per_iter']:.0f} pps below the 20k floor"
    )

p50 = records.get("load/p50_hop_ns_1m_flows")
p999 = records.get("load/p999_hop_ns_1m_flows")
if p50 and p999 and p50["ns_per_iter"] > 0:
    ratio = p999["ns_per_iter"] / p50["ns_per_iter"]
    derived.append({
        "id": "load/p999_vs_p50_ratio",
        "ns_per_iter": round(ratio, 2),
        "iters": p50["iters"],
        "p50_ns": p50["ns_per_iter"],
        "p999_ns": p999["ns_per_iter"],
    })
    print(f"load p999 vs p50: {ratio:.2f}x")
    assert ratio <= 10.0, (
        f"steady-state p999 {p999['ns_per_iter']:.0f} ns is {ratio:.1f}x p50 — "
        "tail latency detached from the median"
    )

# Differential campaign: report the per-cell price and the audit overhead.
plain = records.get("profiles/differential_3country_us_per_cell")
audited = records.get("profiles/differential_3country_audited_us_per_cell")
if plain and audited and plain["ns_per_iter"] > 0:
    ratio = audited["ns_per_iter"] / plain["ns_per_iter"]
    print(
        f"profiles differential: {plain['ns_per_iter']:.1f} us/cell "
        f"({audited['ns_per_iter']:.1f} us/cell audited, {ratio:.2f}x)"
    )

# The canonical per-hop cost record, under its own id so the cross-PR
# trajectory reads one stable name; the value is the conntrack data-packet
# path (the hop every non-triggering packet pays). obs/device_hop_enabled
# times the identical loop (same packet, same device, instrumented
# build), so the minimum over both ids is the least-noise estimate of
# the one underlying cost.
hop = records.get("device/conntrack_data_packet")
if hop:
    rec = dict(hop)
    rec["id"] = "core/device_hop_ns"
    rec["source"] = "device/conntrack_data_packet"
    enabled = records.get("obs/device_hop_enabled")
    if enabled and enabled["ns_per_iter"] < rec["ns_per_iter"]:
        rec["ns_per_iter"] = enabled["ns_per_iter"]
        rec["iters"] = enabled["iters"]
        rec["source"] = "obs/device_hop_enabled"
    derived.append(rec)
    # Regression guard vs the PR 9 baseline: the topology generator and
    # churn machinery must be free on the hot path. 5% relative with a
    # 3 ns absolute floor (same rationale as the obs budget: on a ~50 ns
    # hop, scheduler noise alone can exceed 5%).
    import os
    baseline_path = "BENCH_pr9.json"
    if os.path.exists(baseline_path):
        baseline = None
        with open(baseline_path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                b = json.loads(line)
                if b["id"] in ("core/device_hop_ns", "device/conntrack_data_packet"):
                    baseline = b["ns_per_iter"]
                    if b["id"] == "core/device_hop_ns":
                        break
        if baseline is not None:
            delta = rec["ns_per_iter"] - baseline
            percent = 100.0 * delta / baseline if baseline else 0.0
            print(f"device hop vs PR 9: {rec['ns_per_iter']:.2f} ns vs {baseline:.2f} ns ({percent:+.2f}%)")
            assert rec["ns_per_iter"] <= baseline * 1.05 or delta <= 3.0, (
                f"device hop regressed to {rec['ns_per_iter']:.2f} ns "
                f"({percent:+.2f}% vs PR 9 baseline {baseline:.2f} ns) — "
                "over both the 5% and the 3 ns budget"
            )

with open(path, "w") as fh:
    for rec_id in order:
        fh.write(json.dumps(records[rec_id]) + "\n")
    for rec in derived:
        fh.write(json.dumps(rec) + "\n")
EOF

echo "wrote $(wc -l <"$out") bench records to $out"

# The cross-PR trajectory: every committed BENCH_pr*.json plus this run,
# with its own gate on core/device_hop_ns drifting upward across PRs.
scripts/bench_trend.sh "$out"
