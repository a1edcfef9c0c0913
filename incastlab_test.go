package incastlab_test

import (
	"testing"

	"incastlab"
)

// These tests exercise the public facade end to end, the way a downstream
// user would.

func TestPublicSimulationAPI(t *testing.T) {
	res := incastlab.RunIncastSim(incastlab.SimConfig{
		Flows:         40,
		BurstDuration: incastlab.Millisecond,
		Bursts:        3,
		Interval:      10 * incastlab.Millisecond,
	})
	if res.MeanBCT <= 0 || res.MeanBCT > 5*incastlab.Millisecond {
		t.Fatalf("BCT = %v", res.MeanBCT)
	}
	if res.AlgName != "dctcp" {
		t.Fatalf("default algorithm = %q", res.AlgName)
	}
	if res.MaxQueue <= 0 {
		t.Fatal("no queueing observed")
	}
}

func TestPublicCustomCCA(t *testing.T) {
	net := incastlab.DefaultDumbbellConfig(30)
	res := incastlab.RunIncastSim(incastlab.SimConfig{
		Flows:         30,
		BurstDuration: incastlab.Millisecond,
		Bursts:        2,
		Interval:      10 * incastlab.Millisecond,
		Net:           net,
		Alg: func(int) incastlab.CongestionControl {
			return incastlab.NewSwift(incastlab.DefaultSwiftConfig(net.BaseRTT()))
		},
	})
	if res.AlgName != "swift" {
		t.Fatalf("algorithm = %q", res.AlgName)
	}
}

func TestPublicMeasurementAPI(t *testing.T) {
	p, ok := incastlab.ServiceByName("aggregator")
	if !ok {
		t.Fatal("aggregator missing")
	}
	tr := p.Generate(incastlab.GenConfig{Seed: 1, DurationMS: 500})
	bursts := incastlab.DetectBursts(tr)
	if len(bursts) == 0 {
		t.Fatal("no bursts detected")
	}
	cfg := incastlab.DefaultCollectConfig()
	cfg.Hosts, cfg.Rounds = 2, 1
	rep := incastlab.AnalyzeTraces(incastlab.Collect(p, cfg))
	if rep.Bursts == 0 || rep.IncastFraction() == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if len(incastlab.Services()) != 5 {
		t.Fatal("service registry wrong")
	}
}

func TestPublicPredictorAndWave(t *testing.T) {
	pr := incastlab.NewPredictor(incastlab.DefaultPredictorConfig())
	for i := 0; i < 100; i++ {
		pr.Observe(200)
	}
	if d := pr.PredictedDegree(); d != 200 {
		t.Fatalf("predicted degree = %d", d)
	}

	res := incastlab.RunIncastSim(incastlab.SimConfig{
		Flows:         60,
		BurstDuration: incastlab.Millisecond,
		Bursts:        2,
		Interval:      20 * incastlab.Millisecond,
		Admitter:      incastlab.NewWave(20),
	})
	if res.MeanBCT <= 0 {
		t.Fatal("wave-scheduled incast did not complete")
	}
}

func TestPublicGuardrail(t *testing.T) {
	net := incastlab.DefaultDumbbellConfig(1)
	g := incastlab.NewGuardrail(incastlab.NewDCTCP(incastlab.DefaultDCTCPConfig()),
		net.BDPBytes(), net.ECNThresholdPackets*1500)
	g.Predict(100)
	if g.Cap() <= 0 {
		t.Fatal("guardrail cap not set")
	}
}

func TestPublicExperimentRunners(t *testing.T) {
	opt := incastlab.Options{Seed: 1, Quick: true}
	t1 := incastlab.Table1(opt)
	if len(t1.Services) != 5 {
		t.Fatal("table 1 wrong")
	}
	f1 := incastlab.Fig1ExampleTrace(opt)
	if len(f1.Bursts) == 0 {
		t.Fatal("fig1 empty")
	}
	dir := t.TempDir()
	if err := f1.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
}

func TestPublicPartitionAggregate(t *testing.T) {
	res := incastlab.RunPartitionAggregate(10, incastlab.PartitionAggregateConfig{
		ResponseBytes: 20_000,
		Queries:       3,
		ThinkTime:     incastlab.Millisecond,
		Seed:          1,
	})
	if len(res.Queries) != 3 {
		t.Fatalf("queries = %d", len(res.Queries))
	}
	if res.QCT.P50 <= 0 {
		t.Fatalf("QCT summary empty: %+v", res.QCT)
	}
}

func TestPublicTracePersistence(t *testing.T) {
	p, _ := incastlab.ServiceByName("indexer")
	tr := p.Generate(incastlab.GenConfig{Seed: 1, DurationMS: 100})
	path := t.TempDir() + "/trace.csv"
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := incastlab.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != len(tr.Samples) {
		t.Fatalf("round trip lost samples: %d vs %d", len(got.Samples), len(tr.Samples))
	}
}

func TestPublicD2TCP(t *testing.T) {
	alg := incastlab.NewD2TCP(incastlab.DefaultD2TCPConfig())
	if alg.Name() != "d2tcp" {
		t.Fatalf("name = %q", alg.Name())
	}
	res := incastlab.RunIncastSim(incastlab.SimConfig{
		Flows:         20,
		BurstDuration: incastlab.Millisecond,
		Bursts:        2,
		Interval:      10 * incastlab.Millisecond,
		Alg: func(int) incastlab.CongestionControl {
			return incastlab.NewD2TCP(incastlab.DefaultD2TCPConfig())
		},
	})
	if res.AlgName != "d2tcp" {
		t.Fatalf("sim ran %q", res.AlgName)
	}
}

func TestPublicModeBoundary(t *testing.T) {
	r := incastlab.ModeBoundary(incastlab.Options{Seed: 1, Quick: true})
	if len(r.Flows) == 0 || r.HealthyToDegenerate == 0 {
		t.Fatalf("mode boundary empty: %+v", r)
	}
}
