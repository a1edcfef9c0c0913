// Command incastsim runs one packet-level incast simulation over the
// paper's dumbbell topology and reports the congestion outcome: queue
// behavior, burst completion times, marks, drops, and timeouts. With
// -scenario it instead runs a declarative JSON scenario spec end to end
// and writes the sweep's CSV artifact.
//
// Examples:
//
//	incastsim -flows 100                          # Mode 1/2 boundary
//	incastsim -flows 1400                         # Mode 3 (timeouts)
//	incastsim -flows 500 -cca swift               # pacing under incast
//	incastsim -flows 500 -wave 64                 # Section 5.2 scheduling
//	incastsim -flows 200 -guardrail               # Section 5.1 clamp
//	incastsim -flows 1400 -notify                 # explicit incast notification
//	incastsim -flows 1000 -shared 2000000 -contend 700000
//	incastsim -sweep 80,500,1400                  # one run per degree, in parallel
//	incastsim -scenario examples/scenarios/ml_periodic_bursts.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"incastlab"
	"incastlab/internal/cli"
)

func main() {
	flows := flag.Int("flows", 100, "incast degree N")
	durationMS := flag.Float64("duration", 15, "burst duration in ms")
	bursts := flag.Int("bursts", 11, "bursts to run (first is discarded)")
	intervalMS := flag.Float64("interval", 250, "burst start-to-start interval in ms")
	jitterMS := flag.Float64("jitter", 0, "per-flow start jitter ceiling in ms (0 = default 0.1; very large synchronized incasts need more to avoid retransmission-timer lockstep)")
	cca := flag.String("cca", "dctcp", "congestion control: dctcp, reno, swift")
	g := flag.Float64("g", 1.0/16, "DCTCP alpha gain")
	ecnK := flag.Int("ecn", 65, "switch ECN marking threshold in packets")
	queuePkts := flag.Int("queue", 1333, "switch queue capacity in packets")
	shared := flag.Int("shared", 0, "shared switch buffer bytes (0 = dedicated queues)")
	contend := flag.Int("contend", 0, "external rack contention bytes in the shared buffer")
	wave := flag.Int("wave", 0, "wave-schedule the incast with this concurrency (0 = off)")
	guardrail := flag.Bool("guardrail", false, "clamp ramp-up at the predicted fair share")
	notify := flag.Bool("notify", false, "switch-side incast detection with explicit sender notification")
	notifyBackoff := flag.Float64("notify-backoff", 0, "with -notify: multiplicative backoff factor in (0,1) (0 = default 0.5)")
	ictcp := flag.Bool("ictcp", false, "manage receive windows with a receiver-side ICTCP controller")
	seed := flag.Uint64("seed", 1, "jitter seed")
	plot := flag.Bool("plot", true, "print the ASCII queue plot")
	sweep := flag.String("sweep", "", "comma-separated incast degrees to run instead of -flows (e.g. 80,500,1400)")
	scenarioPath := flag.String("scenario", "", "run a declarative scenario spec (JSON file) instead of the flag-built simulation")
	out := flag.String("out", "out", "output directory for the -scenario CSV artifact")
	quick := flag.Bool("quick", false, "with -scenario: reduced burst counts")
	cacheDir := flag.String("cache", "", "with -scenario: content-addressed row cache directory (sweeps resume incrementally; warm reruns are byte-identical)")
	shardSpec := flag.String("shard", "", "with -scenario -cache: compute only rows K/N of the sweep, e.g. 0/4 (other rows are read from cache or skipped)")
	shardProcs := flag.Int("shard-procs", 0, "with -scenario -cache: fan the sweep out over this many worker processes, then assemble from cache")
	common := cli.Register(flag.CommandLine)
	flag.Parse()

	if err := common.Setup(); err != nil {
		log.Fatal(err)
	}
	defer common.Close()

	if *scenarioPath != "" {
		sc := scenarioInvocation{
			path:       *scenarioPath,
			out:        *out,
			seed:       *seed,
			quick:      *quick,
			cacheDir:   *cacheDir,
			shardSpec:  *shardSpec,
			shardProcs: *shardProcs,
		}
		sc.run(common)
		if err := common.WriteMetrics(true); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *cacheDir != "" || *shardSpec != "" || *shardProcs > 0 {
		log.Fatal("-cache, -shard, and -shard-procs only apply to -scenario runs")
	}

	metrics := common.Metrics()

	buildCfg := func(flows int) incastlab.SimConfig {
		net := incastlab.DefaultDumbbellConfig(flows)
		net.ECNThresholdPackets = *ecnK
		net.QueueCapacityPackets = *queuePkts
		net.QueueCapacityBytes = *queuePkts * 1500
		if *shared > 0 {
			net.SharedBufferBytes = *shared
			net.SharedBufferAlpha = 1
		}

		cfg := incastlab.SimConfig{
			Flows:               flows,
			BurstDuration:       incastlab.Time(*durationMS * float64(incastlab.Millisecond)),
			Bursts:              *bursts,
			Interval:            incastlab.Time(*intervalMS * float64(incastlab.Millisecond)),
			JitterMax:           incastlab.Time(*jitterMS * float64(incastlab.Millisecond)),
			Net:                 net,
			ExternalBufferBytes: *contend,
			Audit:               common.Audit,
			Seed:                *seed,
			Metrics:             metrics,
			Experiment:          "incastsim",
			Fidelity:            common.Fidelity,
			Aggregation:         common.Aggregation,
		}
		switch *cca {
		case "dctcp":
			gv := *g
			cfg.Alg = func(int) incastlab.CongestionControl {
				c := incastlab.DefaultDCTCPConfig()
				c.G = gv
				return incastlab.NewDCTCP(c)
			}
		case "reno":
			cfg.Alg = func(int) incastlab.CongestionControl { return incastlab.NewReno(10 * 1460) }
		case "swift":
			rtt := net.BaseRTT()
			cfg.Alg = func(int) incastlab.CongestionControl {
				return incastlab.NewSwift(incastlab.DefaultSwiftConfig(rtt))
			}
		default:
			log.Fatalf("unknown cca %q (dctcp, reno, swift)", *cca)
		}
		if *guardrail {
			inner := cfg.Alg
			bdp := net.BDPBytes()
			kBytes := net.ECNThresholdPackets * 1500
			n := flows
			cfg.Alg = func(i int) incastlab.CongestionControl {
				gr := incastlab.NewGuardrail(inner(i), bdp, kBytes)
				gr.Predict(n)
				return gr
			}
		}
		if *wave > 0 {
			cfg.Admitter = incastlab.NewWave(*wave)
		}
		if *notify {
			cfg.Notification = &incastlab.NotificationConfig{Backoff: *notifyBackoff}
		}
		cfg.EnableICTCP = *ictcp
		return cfg
	}

	if *sweep == "" && *flows <= 0 {
		log.Fatalf("bad -flows %d: want a positive incast degree like 100", *flows)
	}
	degrees := []int{*flows}
	if *sweep != "" {
		degrees = degrees[:0]
		for _, f := range strings.Split(*sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				log.Fatalf("bad -sweep entry %q: want positive integers like 80,500,1400", f)
			}
			degrees = append(degrees, n)
		}
	}

	cfgs := make([]incastlab.SimConfig, len(degrees))
	for i, n := range degrees {
		cfgs[i] = buildCfg(n)
		// An explicit -fidelity flow request fails up front with the
		// feature that blocks it, not deep inside the run.
		if common.Fidelity == incastlab.FidelityFlow {
			if err := cfgs[i].FlowCompatible(); err != nil {
				log.Fatalf("-fidelity flow: %v", err)
			}
		}
	}

	started := time.Now()
	results := incastlab.RunIncastSims(common.Workers, cfgs)
	elapsed := time.Since(started)

	for i, res := range results {
		if i > 0 {
			fmt.Println()
		}
		net := cfgs[i].Net
		backend := ""
		if res.Fidelity == incastlab.FidelityFlow {
			backend = ", flow-level backend"
		}
		fmt.Printf("incast: %d flows x %.3gms bursts, %s, topology %dG/%dG, K=%d, queue=%d pkts%s\n",
			res.Flows, *durationMS, res.AlgName,
			net.HostLinkBps/1e9, net.CoreLinkBps/1e9, net.ECNThresholdPackets, net.QueueCapacityPackets, backend)
		fmt.Printf("  mean BCT        %v (max %v; optimal %.3gms)\n", res.MeanBCT, res.MaxBCT, *durationMS)
		fmt.Printf("  queue           busy-avg %.0f pkts, max %.0f, burst-start spike %.0f, %.0f%% of busy samples below K\n",
			busyAvg(res), res.MaxQueue, res.SpikePackets, 100*res.FracBelowK)
		fmt.Printf("  loss/recovery   %d drops, %d fast retransmits, %d timeouts, %d retransmitted packets\n",
			res.Drops, res.FastRetransmits, res.Timeouts, res.RetransmitPackets)
		fmt.Printf("  marking         %d CE marks over %d packets sent\n", res.Marks, res.SentPackets)

		if *plot && len(results) == 1 {
			if err := printQueue(res); err != nil {
				fmt.Fprintf(os.Stderr, "plot: %v\n", err)
			}
		}
	}
	audited := ""
	if common.Audit {
		audited = ", invariants audited: clean"
	}
	fmt.Printf("\n(%d simulation(s) in %v wall clock, workers=%d%s)\n",
		len(results), elapsed.Round(time.Millisecond), common.Workers, audited)

	if err := common.WriteMetrics(true); err != nil {
		log.Fatal(err)
	}
}

// scenarioInvocation carries one -scenario run's flags: the spec, the
// output directory, and the optional sweep-cache/sharding setup.
type scenarioInvocation struct {
	path, out  string
	seed       uint64
	quick      bool
	cacheDir   string
	shardSpec  string
	shardProcs int
}

// run loads the JSON spec, runs it (directly, or through the sweep cache
// when -cache is set), writes its CSV artifact under out, and prints the
// rendered summary. Any resolution or validation failure exits non-zero
// with the underlying error.
func (sc scenarioInvocation) run(common *cli.Common) {
	spec, err := incastlab.LoadScenario(sc.path)
	if err != nil {
		log.Fatalf("-scenario: %v", err)
	}
	opt := incastlab.Options{
		Seed:        sc.seed,
		Quick:       sc.quick,
		Workers:     common.Workers,
		Audit:       common.Audit,
		Metrics:     common.Metrics(),
		Fidelity:    common.Fidelity,
		Aggregation: common.Aggregation,
	}
	started := time.Now()

	var res *incastlab.TableResult
	switch {
	case sc.cacheDir == "" && (sc.shardSpec != "" || sc.shardProcs > 0):
		log.Fatal("-shard and -shard-procs need -cache: shards meet in the shared row cache")
	case sc.cacheDir == "":
		res, err = incastlab.RunScenario(opt, spec)
		if err != nil {
			log.Fatalf("-scenario %s: %v", sc.path, err)
		}
	default:
		if sc.shardProcs > 0 {
			sc.fanOut(common)
		}
		cache, err := incastlab.OpenSweepCache(sc.cacheDir)
		if err != nil {
			log.Fatalf("-cache: %v", err)
		}
		shard, err := parseShard(sc.shardSpec)
		if err != nil {
			log.Fatalf("-shard: %v", err)
		}
		var stats incastlab.SweepCacheStats
		res, stats, err = incastlab.RunScenarioCached(opt, spec, cache, shard)
		if err != nil {
			log.Fatalf("-scenario %s: %v", sc.path, err)
		}
		fmt.Printf("cache: %s\n", stats)
		if res == nil {
			fmt.Printf("[%s shard %s incomplete after %v: rows owned by other shards are not cached yet; rerun to resume]\n",
				spec.Name, sc.shardSpec, time.Since(started).Round(time.Millisecond))
			return
		}
	}

	if err := os.MkdirAll(sc.out, 0o755); err != nil {
		log.Fatalf("create output dir: %v", err)
	}
	if err := res.WriteFiles(sc.out); err != nil {
		log.Fatalf("%s: write artifacts: %v", res.Name(), err)
	}
	fmt.Print(res.Summary())
	fmt.Printf("\n[%s completed in %v; CSVs under %s]\n",
		res.Name(), time.Since(started).Round(time.Millisecond), sc.out)
}

// fanOut re-executes this binary once per shard with -shard k/N, waits for
// all workers, and returns with the cache fully populated (the caller then
// assembles the table from it). Worker failures are fatal: a missing shard
// would leave the sweep incomplete anyway.
func (sc scenarioInvocation) fanOut(common *cli.Common) {
	if sc.shardSpec != "" {
		log.Fatal("-shard and -shard-procs are mutually exclusive: -shard-procs spawns the shards itself")
	}
	exe, err := os.Executable()
	if err != nil {
		log.Fatalf("-shard-procs: resolve executable: %v", err)
	}
	procs := make([]*exec.Cmd, sc.shardProcs)
	for k := 0; k < sc.shardProcs; k++ {
		args := []string{
			"-scenario", sc.path,
			"-cache", sc.cacheDir,
			"-shard", fmt.Sprintf("%d/%d", k, sc.shardProcs),
			"-seed", strconv.FormatUint(sc.seed, 10),
			"-out", sc.out,
			"-workers", strconv.Itoa(common.Workers),
		}
		if sc.quick {
			args = append(args, "-quick")
		}
		if common.Audit {
			args = append(args, "-audit")
		}
		if common.Fidelity != "" {
			args = append(args, "-fidelity", common.Fidelity)
		}
		if common.Aggregation != "" {
			args = append(args, "-aggregation", common.Aggregation)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatalf("-shard-procs: start shard %d: %v", k, err)
		}
		procs[k] = cmd
	}
	for k, cmd := range procs {
		if err := cmd.Wait(); err != nil {
			log.Fatalf("-shard-procs: shard %d/%d failed: %v", k, sc.shardProcs, err)
		}
	}
}

// parseShard parses "K/N" into a shard selector; "" selects the whole
// sweep. Malformed specs are rejected here rather than deferred to the
// core validator, because the zero-value shard (which "0/0" would parse
// to) is a legal whole-sweep sentinel internally — a user who typed a
// shard spec meant to select a real slice, so anything that does not
// satisfy 0 <= K < N is an error with the fix spelled out.
func parseShard(s string) (incastlab.SweepShard, error) {
	if s == "" {
		return incastlab.SweepShard{}, nil
	}
	idx, cnt, ok := strings.Cut(s, "/")
	if !ok {
		return incastlab.SweepShard{}, fmt.Errorf("want K/N, e.g. 0/4 (got %q)", s)
	}
	k, err1 := strconv.Atoi(strings.TrimSpace(idx))
	n, err2 := strconv.Atoi(strings.TrimSpace(cnt))
	if err1 != nil || err2 != nil {
		return incastlab.SweepShard{}, fmt.Errorf("want integers K/N, e.g. 0/4 (got %q)", s)
	}
	if n <= 0 {
		return incastlab.SweepShard{}, fmt.Errorf(
			"shard count must be positive (got %q); drop -shard to run the whole sweep", s)
	}
	if k < 0 || k >= n {
		return incastlab.SweepShard{}, fmt.Errorf(
			"shard index %d out of range for %d shard(s) (got %q); want 0 <= K < N, e.g. 0/%d", k, n, s, n)
	}
	return incastlab.SweepShard{Index: k, Count: n}, nil
}

func busyAvg(res *incastlab.SimResult) float64 {
	var sum float64
	n := 0
	for _, v := range res.AvgQueue.Values {
		if v > 0 {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func printQueue(res *incastlab.SimResult) error {
	fmt.Println("\nQueue depth over the averaged burst (packets vs ms):")
	step := len(res.AvgQueue.Values) / 60
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(res.AvgQueue.Values); i += step {
		v := res.AvgQueue.Values[i]
		bar := int(v / float64(res.QueueCapacity) * 60)
		if bar > 60 {
			bar = 60
		}
		fmt.Printf("%7.2fms %6.0f |%s\n", float64(res.AvgQueue.TimeAt(i))/1e6, v, bars(bar))
	}
	return nil
}

func bars(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}
