#!/usr/bin/env bash
# ci.sh — the full verification gate for incastlab.
#
# Runs, in order:
#   1. go vet            static checks across every package
#   2. go build          everything compiles, commands included
#   3. go test           the full unit + determinism suite
#   4. go test -race     the parallel orchestration tests (worker pool +
#                        experiment fan-out) and the sweep cache's tests
#                        (concurrent writers appending to one directory)
#                        under the race detector
#   4b. fuzz             short -fuzz runs of FuzzSchedulerEquivalence
#                        (generated schedule/stop/re-arm/reset workloads
#                        on the calendar queue and the reference binary
#                        heap: identical execution logs), of FuzzClassPlan
#                        (the fluid solver's cohort plan, built from class
#                        counts, and its on-demand member list against the
#                        reference plan over generated class sequences),
#                        of FuzzFluidRun (generated small path sets and
#                        configs through flowsim.Run with Check on: no
#                        error, and no more records than flows) and of
#                        FuzzCompileScenario (generated spec bytes through
#                        scenario.Parse and core.CompileScenario under
#                        quick, flow and perflow options: no panic, and
#                        every compiled row passes SimConfig.Validate)
#   5. audit gate        the invariant auditor's own tests, the open-loop
#                        rackmodel<->netsim trace (RunDiff,
#                        TestDifferentialGate), and the closed-loop
#                        differential gate (internal/audit/gate_test.go),
#                        which checks the fluid solver by running each gate
#                        point twice through core.RunIncastSim: packet vs
#                        flow on the Fig-5 dumbbell and the Clos fabric
#                        (Test{Incast,Clos}DifferentialGate), and per-flow
#                        vs cohort-aggregated on both
#                        (TestCohortDifferentialGate), with mode
#                        classification exact and BCT/peak queue within each
#                        contract's documented tolerances (see
#                        EXPERIMENTS.md); the stage fails unless each of the
#                        four gate tests' PASS lines appears; then quick
#                        Fig-5/Fig-8 experiments re-run in checked mode
#                        (every simulation invariant enforced, zero
#                        violations tolerated)
#   6. obs gate          quick Fig-5 + ablation_g + the Clos cross-rack
#                        sweep run three ways (no metrics; metrics serial;
#                        metrics parallel, where the experiments overlap in
#                        one row pool): CSV artifacts must be bit-identical
#                        across all three, both snapshots must parse and
#                        carry the key metric families, and their
#                        deterministic subsets must be byte-equal; quick
#                        Fig-5 + the Clos cross-rack sweep then run the same
#                        three ways at -fidelity flow, so the fluid harvest
#                        is held to the same contract; each leg's snapshot
#                        must name no family that internal/core/obs.go's
#                        backendFamilies table declares for the other
#                        backend
#   7. registry gate     `figures -list` must match the checked-in golden
#                        name list, an unknown -only name must exit
#                        non-zero, a trailing comma in -only is ignored
#                        while a list naming nothing is rejected, and
#                        every CSV that `figures -quick` writes over the
#                        whole registry must have a checked-in golden
#                        (testdata/quick) and be byte-identical to it,
#                        and every golden must be written (scheduler and
#                        pooling changes are behavior-preserving); fig5
#                        and the two Clos sweeps then re-run at
#                        -fidelity flow against their own checked-in
#                        goldens (testdata/quick_flow), pinning the fluid
#                        solver's output bit for bit on the dumbbell and
#                        the fabric
#   8. sweep-cache gate  the Clos cross-rack example sweep runs cold,
#                        sharded across two worker processes against a
#                        shared content-addressed cache, then again as a
#                        warm resume: the resume must be all cache hits
#                        and its CSV byte-identical to the cold run; the
#                        1,000-point flow-fidelity RTO grid then shards
#                        across four processes and warm-assembles the
#                        same way (resumable 1k-point studies work); the
#                        million-flow Clos grid (208 rows, 1.26M flows
#                        summed, fidelity flow) does the same cold/warm
#                        byte-identity dance through the sharded cache,
#                        and its cold CSV must match its checked-in
#                        golden (testdata/quick_flow); finally a serial
#                        cold run of that grid is killed (SIGKILL) after
#                        1.5 s and resumed: rows land in the cache as they
#                        finish, so the resume must report cache hits,
#                        and its CSV must match the same golden
#   9. scenario gate     example specs run end to end through
#                        `incastsim -scenario` and produce their CSVs —
#                        one packet-level, one at flow fidelity (a
#                        10,000-flow sweep only the fluid backend can
#                        turn around), one with the notification block
#                        and its sweep axis, and the single-run
#                        million-flow Clos scenario (1,048,576 flows in
#                        ONE cohort-aggregated row, no shard cache) under
#                        a wall-clock sanity bound and byte-identical to
#                        its golden; a bogus spec path, a malformed
#                        -shard spec, a bogus -aggregation level, a
#                        per-flow run of 2^20 flows, a flow-level run
#                        whose default start jitter reaches its burst
#                        interval, a flow-level run with -ecn 0 (a fluid
#                        queue cannot model the packet backend's "no
#                        marking"), -contend without -shared, a spec with
#                        an over-full Clos row under -shard-procs 2, and a
#                        2^20-flow spec that only the -aggregation perflow
#                        option makes invalid, run directly and under
#                        -shard-procs 2, must exit non-zero, the last seven
#                        with a one-line error (the spec errors naming the
#                        row, printed before any shard starts)
#  10. bench gate        the substrate micro-benchmarks, the packet- and
#                        flow-level Fig-5 sweeps, the ICTCP ablation, the
#                        packet multi-aggregator Clos sweep, the million-flow
#                        Clos run, and the rack-contention, query-tail and
#                        cross-validation experiments smoke-run in one
#                        process at one timed iteration each, after one
#                        untimed warm-up: each must execute and stay under
#                        its allocs/op ceiling, and the packet Fig-5 sweep,
#                        the million-flow run and the last three also under
#                        their B/op ceilings (allocation counts and bytes
#                        repeat run to run, so they are gated); measured
#                        wall time lives in internal/bench/incastbench, not
#                        here
set -euo pipefail
cd "$(dirname "$0")"

echo "==> gofmt -l"
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
  echo "gofmt needed on:" >&2
  echo "$UNFORMATTED" >&2
  exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./internal/core -run TestParallel; go test -race ./internal/sweep"
go test -race ./internal/core -run TestParallel
go test -race ./internal/sweep

echo "==> fuzz: FuzzSchedulerEquivalence, FuzzClassPlan, FuzzFluidRun and FuzzCompileScenario for 20s each"
go test ./internal/sim -run '^$' -fuzz '^FuzzSchedulerEquivalence$' -fuzztime 20s -parallel 2
go test ./internal/flowsim -run '^$' -fuzz '^FuzzClassPlan$' -fuzztime 20s -parallel 2
go test ./internal/flowsim -run '^$' -fuzz '^FuzzFluidRun$' -fuzztime 20s -parallel 2
go test ./internal/core -run '^$' -fuzz '^FuzzCompileScenario$' -fuzztime 20s -parallel 2

OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT

echo "==> audit gate: invariant auditor, open-loop rackmodel<->netsim + closed-loop packet<->flow gates; audited experiments"
go test ./internal/audit -count=1 -v >"$OBS_TMP/gate.log" ||
  { cat "$OBS_TMP/gate.log" >&2; exit 1; }
# A gate test that was renamed away would pass silently, so require each PASS line.
for gate in TestDifferentialGate TestIncastDifferentialGate TestClosDifferentialGate TestCohortDifferentialGate; do
  grep -q "^--- PASS: $gate " "$OBS_TMP/gate.log" ||
    { echo "audit gate: $gate did not run and pass" >&2; exit 1; }
done
tail -n 1 "$OBS_TMP/gate.log"
go test ./internal/core -run 'TestAudited' -count=1

echo "==> obs gate: metrics must not perturb results; serial == parallel snapshots"
# forbid SNAPSHOT BACKEND fails when the snapshot names a metric family that
# backendFamilies (internal/core/obs.go, one `"name": FidelityX,` line per
# family) declares for BACKEND (Packet or Flow).
forbid() {
  local names
  names="$(sed -n "s/^[[:space:]]*\"\([a-z_]*\)\":[[:space:]]*Fidelity$2,\$/\1/p" internal/core/obs.go)"
  if [ -z "$names" ]; then
    echo "obs gate: no $2-only families found in internal/core/obs.go" >&2
    exit 1
  fi
  for name in $names; do
    if grep -q "\"name\": \"$name\"" "$1"; then
      echo "obs gate: $1 names $name, a $2-only family" >&2
      exit 1
    fi
  done
}
go run ./cmd/figures -quick -only fig5,ablation_g,ext_clos_crossrack -workers 1 -out "$OBS_TMP/base"
go run ./cmd/figures -quick -only fig5,ablation_g,ext_clos_crossrack -workers 1 -metrics "$OBS_TMP/m1.json" -out "$OBS_TMP/serial"
go run ./cmd/figures -quick -only fig5,ablation_g,ext_clos_crossrack -workers 4 -metrics "$OBS_TMP/m2.json" -out "$OBS_TMP/parallel"
for f in "$OBS_TMP"/base/*.csv; do
  name="$(basename "$f")"
  cmp "$f" "$OBS_TMP/serial/$name"    # instrumented == uninstrumented
  cmp "$f" "$OBS_TMP/parallel/$name"  # parallel == serial
done
go run ./internal/obs/snapcheck \
  -require runs,sim_events_executed,sim_time_ns,net_queue_enqueued_packets,net_link_tx_bytes,net_pool_gets,tcp_sent_packets,cc_cwnd_updates,burst_bct_ms \
  "$OBS_TMP/m1.json"
go run ./internal/obs/snapcheck -diff "$OBS_TMP/m1.json" "$OBS_TMP/m2.json"
forbid "$OBS_TMP/m1.json" Flow
go run ./cmd/figures -quick -only fig5,ext_clos_crossrack -fidelity flow -workers 1 -out "$OBS_TMP/flow_base"
go run ./cmd/figures -quick -only fig5,ext_clos_crossrack -fidelity flow -workers 1 -metrics "$OBS_TMP/f1.json" -out "$OBS_TMP/flow_serial"
go run ./cmd/figures -quick -only fig5,ext_clos_crossrack -fidelity flow -workers 4 -metrics "$OBS_TMP/f2.json" -out "$OBS_TMP/flow_parallel"
for f in "$OBS_TMP"/flow_base/*.csv; do
  name="$(basename "$f")"
  cmp "$f" "$OBS_TMP/flow_serial/$name"
  cmp "$f" "$OBS_TMP/flow_parallel/$name"
done
go run ./internal/obs/snapcheck \
  -require runs,sim_events_executed,flowsim_cohorts,cc_final_cwnd_bytes,cc_final_alpha,burst_bct_ms,net_queue_enqueued_packets,net_link_tx_bytes,tcp_sent_packets \
  "$OBS_TMP/f1.json"
go run ./internal/obs/snapcheck -diff "$OBS_TMP/f1.json" "$OBS_TMP/f2.json"
forbid "$OBS_TMP/f1.json" Packet

echo "==> registry gate: -list golden, unknown -only rejection, quick CSV goldens"
go run ./cmd/figures -list | diff -u internal/core/testdata/registry_names.golden -
if go run ./cmd/figures -only bogus -out "$OBS_TMP/bogus" 2>/dev/null; then
  echo "figures -only bogus should have exited non-zero" >&2
  exit 1
fi
go run ./cmd/figures -quick -only fig1, -out "$OBS_TMP/trailing_comma" >/dev/null
test -s "$OBS_TMP/trailing_comma/fig1_example_trace.csv"
if go run ./cmd/figures -only , -out "$OBS_TMP/no_names" 2>/dev/null; then
  echo "figures -only , should have exited non-zero" >&2
  exit 1
fi
go run ./cmd/figures -quick -out "$OBS_TMP/golden" >/dev/null
for f in "$OBS_TMP"/golden/*.csv; do
  golden="internal/core/testdata/quick/$(basename "$f")"
  if [ ! -e "$golden" ]; then
    echo "registry gate: figures -quick wrote $(basename "$f"), which has no golden in internal/core/testdata/quick" >&2
    exit 1
  fi
  cmp "$golden" "$f"
done
for f in internal/core/testdata/quick/*.csv; do
  test -e "$OBS_TMP/golden/$(basename "$f")" ||
    { echo "registry gate: figures -quick did not write $(basename "$f")" >&2; exit 1; }
done
go run ./cmd/figures -quick -only fig5,ext_clos_crossrack,ext_clos_multiagg -fidelity flow -out "$OBS_TMP/golden_flow"
for name in fig5_modes fig5_queue_80flows fig5_queue_500flows fig5_queue_1400flows ext_clos_crossrack ext_clos_multiagg; do
  cmp "internal/core/testdata/quick_flow/$name.csv" "$OBS_TMP/golden_flow/$name.csv"
done

echo "==> sweep-cache gate: sharded cold run, then warm resume, byte-identical"
go build -o "$OBS_TMP/incastsim" ./cmd/incastsim
"$OBS_TMP/incastsim" -scenario examples/scenarios/clos_crossrack.json -quick \
  -cache "$OBS_TMP/sweep.cache" -shard-procs 2 -out "$OBS_TMP/sweep_cold" >"$OBS_TMP/sweep_cold.log"
grep -q '^cache: 4 rows, 4 hits, 0 computed, 0 skipped$' "$OBS_TMP/sweep_cold.log"
"$OBS_TMP/incastsim" -scenario examples/scenarios/clos_crossrack.json -quick \
  -cache "$OBS_TMP/sweep.cache" -out "$OBS_TMP/sweep_warm" >"$OBS_TMP/sweep_warm.log"
grep -q '^cache: 4 rows, 4 hits, 0 computed, 0 skipped$' "$OBS_TMP/sweep_warm.log"
cmp "$OBS_TMP/sweep_cold/clos_crossrack.csv" "$OBS_TMP/sweep_warm/clos_crossrack.csv"
"$OBS_TMP/incastsim" -scenario examples/scenarios/fanin_rto_grid_flow.json -quick \
  -cache "$OBS_TMP/grid.cache" -shard-procs 4 -out "$OBS_TMP/grid_cold" >"$OBS_TMP/grid_cold.log"
grep -q '^cache: 1000 rows, 1000 hits, 0 computed, 0 skipped$' "$OBS_TMP/grid_cold.log"
"$OBS_TMP/incastsim" -scenario examples/scenarios/fanin_rto_grid_flow.json -quick \
  -cache "$OBS_TMP/grid.cache" -out "$OBS_TMP/grid_warm" >"$OBS_TMP/grid_warm.log"
cmp "$OBS_TMP/grid_cold/fanin_rto_grid_flow.csv" "$OBS_TMP/grid_warm/fanin_rto_grid_flow.csv"
"$OBS_TMP/incastsim" -scenario examples/scenarios/clos_million_flow_grid.json -quick \
  -cache "$OBS_TMP/mfg.cache" -shard-procs 4 -out "$OBS_TMP/mfg_cold" >"$OBS_TMP/mfg_cold.log"
grep -q '^cache: 208 rows, 208 hits, 0 computed, 0 skipped$' "$OBS_TMP/mfg_cold.log"
"$OBS_TMP/incastsim" -scenario examples/scenarios/clos_million_flow_grid.json -quick \
  -cache "$OBS_TMP/mfg.cache" -out "$OBS_TMP/mfg_warm" >"$OBS_TMP/mfg_warm.log"
grep -q '^cache: 208 rows, 208 hits, 0 computed, 0 skipped$' "$OBS_TMP/mfg_warm.log"
cmp "$OBS_TMP/mfg_cold/clos_million_flow_grid.csv" "$OBS_TMP/mfg_warm/clos_million_flow_grid.csv"
cmp internal/core/testdata/quick_flow/clos_million_flow_grid.csv "$OBS_TMP/mfg_cold/clos_million_flow_grid.csv"
# Kill a serial cold run mid-sweep (it takes about 3 s on 2 cores), then
# resume: the rows finished before the kill must be served from the cache.
# Exit 0 means the run beat the kill; 137 is the SIGKILL.
timeout -s KILL 1.5 "$OBS_TMP/incastsim" -scenario examples/scenarios/clos_million_flow_grid.json -quick \
  -workers 1 -cache "$OBS_TMP/killed.cache" -out "$OBS_TMP/killed" >/dev/null || [ $? -eq 137 ]
"$OBS_TMP/incastsim" -scenario examples/scenarios/clos_million_flow_grid.json -quick \
  -cache "$OBS_TMP/killed.cache" -out "$OBS_TMP/resumed" >"$OBS_TMP/resumed.log"
grep -Eq '^cache: 208 rows, [1-9][0-9]* hits, ' "$OBS_TMP/resumed.log" ||
  { echo "sweep-cache gate: the resumed run found no rows of the killed run in the cache" >&2; exit 1; }
cmp internal/core/testdata/quick_flow/clos_million_flow_grid.csv "$OBS_TMP/resumed/clos_million_flow_grid.csv"

echo "==> scenario gate: example specs end to end; bad spec path rejected"
go run ./cmd/incastsim -scenario examples/scenarios/ml_periodic_bursts.json -quick -out "$OBS_TMP/scenario" >/dev/null
test -s "$OBS_TMP/scenario/ml_periodic_bursts.csv"
go run ./cmd/incastsim -scenario examples/scenarios/fanin_scaling_flow.json -quick -out "$OBS_TMP/scenario" >/dev/null
test -s "$OBS_TMP/scenario/fanin_scaling_flow.csv"
go run ./cmd/incastsim -scenario examples/scenarios/pulser_fanin.json -quick -out "$OBS_TMP/scenario" >/dev/null
test -s "$OBS_TMP/scenario/pulser_fanin.csv"
# The headline single-run million-flow scenario: 1,048,576 flows in one
# cohort-aggregated row, byte-identical to its checked-in golden. The
# timeout is the wall-clock sanity bound — the run takes ~1 s; if it
# regresses past 60 s the aggregation is broken.
timeout 60 "$OBS_TMP/incastsim" -scenario examples/scenarios/clos_million_flow_single.json \
  -quick -out "$OBS_TMP/scenario" >/dev/null
cmp internal/core/testdata/quick_flow/clos_million_flow_single.csv "$OBS_TMP/scenario/clos_million_flow_single.csv"
if go run ./cmd/incastsim -scenario "$OBS_TMP/no_such_spec.json" 2>/dev/null; then
  echo "incastsim -scenario with a missing file should have exited non-zero" >&2
  exit 1
fi
if go run ./cmd/incastsim -flows 8 -shard 0/0 2>/dev/null; then
  echo "incastsim -shard 0/0 should have exited non-zero" >&2
  exit 1
fi
if go run ./cmd/incastsim -flows 8 -fidelity flow -aggregation bogus 2>/dev/null; then
  echo "incastsim -aggregation bogus should have exited non-zero" >&2
  exit 1
fi
if go run ./cmd/incastsim -flows 8 -aggregation cohort 2>/dev/null; then
  echo "incastsim -aggregation without -fidelity flow should have exited non-zero" >&2
  exit 1
fi
# Per-flow records stop below 2^20 flows: the run must be refused up front
# with a one-line error naming the knob, not a panic.
if "$OBS_TMP/incastsim" -flows 1048576 -fidelity flow -aggregation perflow 2>"$OBS_TMP/perflow.err"; then
  echo "incastsim -aggregation perflow at 2^20 flows should have exited non-zero" >&2
  exit 1
fi
test "$(wc -l <"$OBS_TMP/perflow.err")" -eq 1
grep -q 'aggregation "perflow"' "$OBS_TMP/perflow.err"
# The fluid release schedule needs the start jitter (100 us by default)
# below the burst interval: a 50 us interval must be refused the same way.
if "$OBS_TMP/incastsim" -flows 80 -fidelity flow -bursts 2 -interval 0.05 -plot=false 2>"$OBS_TMP/jitter.err"; then
  echo "incastsim -fidelity flow with the default jitter past a 50 us interval should have exited non-zero" >&2
  exit 1
fi
test "$(wc -l <"$OBS_TMP/jitter.err")" -eq 1
grep -q 'jitter' "$OBS_TMP/jitter.err"
# The packet backend reads -ecn 0 as no marking, which a fluid queue cannot
# model: fidelity flow must refuse it in one line naming the ECN threshold
# instead of running with another threshold.
if "$OBS_TMP/incastsim" -flows 100 -bursts 2 -ecn 0 -fidelity flow -plot=false 2>"$OBS_TMP/ecn.err"; then
  echo "incastsim -ecn 0 -fidelity flow should have exited non-zero" >&2
  exit 1
fi
test "$(wc -l <"$OBS_TMP/ecn.err")" -eq 1
grep -q 'ECN threshold' "$OBS_TMP/ecn.err"
# Rack contention lives in a shared buffer: -contend without -shared must
# be refused up front with a one-line error, not a panic.
if "$OBS_TMP/incastsim" -flows 50 -bursts 2 -contend 700000 -plot=false 2>"$OBS_TMP/contend.err"; then
  echo "incastsim -contend without -shared should have exited non-zero" >&2
  exit 1
fi
test "$(wc -l <"$OBS_TMP/contend.err")" -eq 1
grep -q 'shared buffer' "$OBS_TMP/contend.err"
# A spec whose second row overfills a rack (4 aggregators x 20 workers on
# 4 racks of 16 hosts) must fail at compile time in the parent, one line
# naming the row, before -shard-procs starts any shard.
cat >"$OBS_TMP/overfull.json" <<'SPEC'
{"name": "overfull_clos", "workload": {"flows": 20},
 "topology": {"clos": {"racks": 4, "hosts_per_rack": 16}},
 "sweep": {"axis": "aggregators", "values": [1, 4]}}
SPEC
if "$OBS_TMP/incastsim" -scenario "$OBS_TMP/overfull.json" -quick -cache "$OBS_TMP/overfull.cache" \
  -shard-procs 2 -out "$OBS_TMP/overfull" >/dev/null 2>"$OBS_TMP/overfull.err"; then
  echo "incastsim -scenario with an over-full Clos row should have exited non-zero" >&2
  exit 1
fi
test "$(wc -l <"$OBS_TMP/overfull.err")" -eq 1
grep -q 'row 1' "$OBS_TMP/overfull.err"
if grep -q 'shard 0/2 failed' "$OBS_TMP/overfull.err"; then
  echo "incastsim -shard-procs started shards for a spec that does not compile" >&2
  exit 1
fi
# Run options are stamped on each row before it is validated: a 2^20-flow
# row compiles with cohort records, and -aggregation perflow makes it
# invalid, so the compile must refuse it in one line naming the row, run
# directly and before -shard-procs starts any shard.
echo '{"name": "big_dumbbell", "sweep": {"axis": "flows", "values": [1048576]}, "fidelity": "flow"}' >"$OBS_TMP/big.json"
if "$OBS_TMP/incastsim" -scenario "$OBS_TMP/big.json" -quick -fidelity flow -aggregation perflow \
  -out "$OBS_TMP/big_out" >/dev/null 2>"$OBS_TMP/big.err"; then
  echo "incastsim -scenario with a 2^20-flow row under -aggregation perflow should have exited non-zero" >&2
  exit 1
fi
test "$(wc -l <"$OBS_TMP/big.err")" -eq 1
grep -q 'row 0.*perflow' "$OBS_TMP/big.err"
if "$OBS_TMP/incastsim" -scenario "$OBS_TMP/big.json" -quick -fidelity flow -aggregation perflow \
  -cache "$OBS_TMP/big" -shard-procs 2 -out "$OBS_TMP/big_out" >/dev/null 2>"$OBS_TMP/big_sharded.err"; then
  echo "incastsim -shard-procs with a 2^20-flow row under -aggregation perflow should have exited non-zero" >&2
  exit 1
fi
test "$(wc -l <"$OBS_TMP/big_sharded.err")" -eq 1
grep -q 'row 0.*perflow' "$OBS_TMP/big_sharded.err"
if grep -q 'shard 0/2 failed' "$OBS_TMP/big_sharded.err"; then
  echo "incastsim -shard-procs started shards for a row the options make invalid" >&2
  exit 1
fi

echo "==> bench gate: micro-benchmarks + Fig-5 sweeps smoke-run under allocation ceilings"
# Each benchmark runs one untimed warm-up iteration before the timed one
# (bench_test.go's warmUp), so the simulation resource pools the timed run
# draws from are filled whatever ran before it in the process, and the
# counts do not depend on the benchmark set or its order.
go test -run '^$' \
  -bench '^(BenchmarkFig5DCTCPModes|BenchmarkSimulatorPacketRate|BenchmarkAblationReceiverWindow|BenchmarkClosMultiAggPacket|BenchmarkMillisamplerAnalyze|BenchmarkPredictorObserve|BenchmarkFlowsimFig5|BenchmarkFlowsimCohortFig5|BenchmarkFlowsimPerFlowFig5Point|BenchmarkFlowsimCohortFig5Point|BenchmarkClosMillionFlowSingleRun|BenchmarkExtRackContention|BenchmarkExtQueryTail|BenchmarkCrossValidation)$' \
  -benchtime=1x -benchmem . >"$OBS_TMP/bench_smoke.txt"
# Each ceiling is the highest allocs/op (and, where a third column gives
# one, B/op) of the runs made when it was set (at least three), plus 10 %,
# rounded up, and never raised. The current ones come from eleven runs:
# Fig-5 and the multi-aggregator Clos sweep run their rows in parallel,
# and the pools keep one cache per processor, so their counts still move
# with scheduling (Fig-5: 73,570-84,904 allocs/op). A garbage collection
# between the warm-up and the timed iteration can also empty a pool, which
# is why the million-flow run's B/op ceiling sits near 42 MB while it
# usually allocates 2.4 MB.
while read -r name ceiling bytes_ceiling; do
  read -r allocs bytes <<<"$(awk -v name="$name" '$1 ~ ("^" name "(-[0-9]+)?$") {
    for (i = 2; i <= NF; i++) { if ($i == "allocs/op") a = $(i - 1); if ($i == "B/op") b = $(i - 1) }
    print a, b }' "$OBS_TMP/bench_smoke.txt")"
  if [ -z "$allocs" ]; then
    echo "bench gate: $name did not run" >&2
    exit 1
  fi
  if [ "$allocs" -gt "$ceiling" ]; then
    echo "bench gate: $name allocates $allocs per op, above its ceiling of $ceiling" >&2
    exit 1
  fi
  if [ -n "$bytes_ceiling" ]; then
    if [ -z "$bytes" ]; then
      echo "bench gate: $name reported no B/op" >&2
      exit 1
    fi
    if [ "$bytes" -gt "$bytes_ceiling" ]; then
      echo "bench gate: $name allocates $bytes B per op, above its ceiling of $bytes_ceiling" >&2
      exit 1
    fi
  fi
done <<'CEILINGS'
BenchmarkFig5DCTCPModes 93395 7864534
BenchmarkSimulatorPacketRate 3446
BenchmarkAblationReceiverWindow 37875
BenchmarkClosMultiAggPacket 547355
BenchmarkMillisamplerAnalyze 83
BenchmarkPredictorObserve 0
BenchmarkFlowsimFig5 3396
BenchmarkFlowsimCohortFig5 3383
BenchmarkFlowsimPerFlowFig5Point 31
BenchmarkFlowsimCohortFig5Point 33
BenchmarkClosMillionFlowSingleRun 300 45956117
BenchmarkExtRackContention 60000 5873921
BenchmarkExtQueryTail 37287 4685015
BenchmarkCrossValidation 19797 1901381
CEILINGS

echo "==> ci.sh: all checks passed"
