package app

import (
	"testing"

	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
)

func dctcp(int) cc.Algorithm { return cc.NewDCTCP(cc.DefaultDCTCPConfig()) }

// onDumbbell builds cfg's application over a dumbbell of workers senders:
// the coordinator at the receiver, a worker at each sender.
func onDumbbell(eng *sim.Engine, workers int, cfg PartitionAggregateConfig) (*netsim.Dumbbell, *PartitionAggregate) {
	net := netsim.NewDumbbell(eng, netsim.DefaultDumbbellConfig(), workers, 1, nil)
	return net, NewPartitionAggregate(eng, net.Receiver, net.Senders, cfg, dctcp)
}

func runPA(t *testing.T, workers int, cfg PartitionAggregateConfig) (*netsim.Dumbbell, *PartitionAggregate) {
	t.Helper()
	eng := sim.NewEngine()
	net, pa := onDumbbell(eng, workers, cfg)
	eng.RunUntil(30 * sim.Second)
	if !pa.Done() {
		t.Fatalf("only %d of %d queries completed", len(pa.Queries()), cfg.Queries)
	}
	return net, pa
}

func TestPartitionAggregateCompletes(t *testing.T) {
	cfg := DefaultPartitionAggregateConfig()
	cfg.Queries = 5
	_, pa := runPA(t, 20, cfg)
	qs := pa.Queries()
	if len(qs) != 5 {
		t.Fatalf("queries = %d", len(qs))
	}
	for i, q := range qs {
		if q.Index != i {
			t.Fatalf("query order broken: %+v", q)
		}
		if q.QCT <= 0 || q.End != q.Start+q.QCT {
			t.Fatalf("inconsistent record %+v", q)
		}
		if i > 0 && q.Start < qs[i-1].End+cfg.ThinkTime {
			t.Fatalf("closed loop violated: query %d started before think time elapsed", i)
		}
	}
}

func TestPartitionAggregateQCTNearOptimal(t *testing.T) {
	// 20 workers x 20 KB = 400 KB over a 10 Gbps bottleneck ~ 320 us, plus
	// request delivery, jitter, and queueing: QCT should land well under
	// 2 ms per query in the healthy regime.
	cfg := DefaultPartitionAggregateConfig()
	cfg.Queries = 5
	_, pa := runPA(t, 20, cfg)
	s := pa.QCTStats()
	if s.P50 > 2 {
		t.Fatalf("median QCT = %vms, want < 2ms", s.P50)
	}
	if s.Min*1000 < 300 {
		t.Fatalf("QCT %vms below the bandwidth bound (~0.32ms)", s.Min)
	}
}

func TestPartitionAggregateIncastCongestion(t *testing.T) {
	// 150 workers responding together must push the coordinator's ToR
	// queue past the marking threshold.
	cfg := DefaultPartitionAggregateConfig()
	cfg.Queries = 3
	net, _ := runPA(t, 150, cfg)
	st := net.BottleneckQueue().Stats()
	if st.PeakPackets <= 65 {
		t.Fatalf("peak queue %d, want incast congestion above K", st.PeakPackets)
	}
	if st.MarkedPackets == 0 {
		t.Fatal("no CE marks during fan-in")
	}
}

func TestPartitionAggregateTailGrowsWithFanIn(t *testing.T) {
	qct := func(workers int) (p50, max float64) {
		cfg := DefaultPartitionAggregateConfig()
		cfg.Queries = 5
		// Keep the aggregate response volume constant so only the degree
		// changes (the paper's fan-in framing).
		cfg.ResponseBytes = 4_000_000 / int64(workers)
		_, pa := runPA(t, workers, cfg)
		s := pa.QCTStats()
		return s.P50, s.Max
	}
	smallP50, smallMax := qct(20)
	largeP50, largeMax := qct(400)
	// With total bytes fixed, the bandwidth bound is identical, so medians
	// stay comparable...
	if largeP50 > 3*smallP50 {
		t.Fatalf("median QCT blew up: %vms (20) vs %vms (400)", smallP50, largeP50)
	}
	// ...but the 400-worker fan-in overflows the queue when windows align,
	// and tail-loss recovery at 1-MSS windows waits for the RTO: the tail
	// explodes. This is the paper's "high tail latency that directly
	// impacts service-level performance".
	if largeMax < 10*smallMax {
		t.Fatalf("tail QCT should explode with fan-in: max %vms (20) vs %vms (400)",
			smallMax, largeMax)
	}
}

func TestPartitionAggregateDeterministic(t *testing.T) {
	run := func() []QueryRecord {
		eng := sim.NewEngine()
		cfg := DefaultPartitionAggregateConfig()
		cfg.Queries = 3
		_, pa := onDumbbell(eng, 15, cfg)
		eng.RunUntil(5 * sim.Second)
		return pa.Queries()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("replay diverged")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPartitionAggregateValidation(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.NewDumbbell(eng, netsim.DefaultDumbbellConfig(), 2, 1, nil)
	mustPanic := func(name string, cfg PartitionAggregateConfig, workers int) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		NewPartitionAggregate(eng, net.Receiver, net.Senders[:workers], cfg, dctcp)
	}
	base := DefaultPartitionAggregateConfig()
	bad := base
	bad.ResponseBytes = 0
	mustPanic("zero response", bad, 2)
	bad = base
	bad.Queries = 0
	mustPanic("zero queries", bad, 2)
	mustPanic("no worker hosts", base, 0)
}
