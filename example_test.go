package incastlab_test

import (
	"fmt"

	"incastlab"
)

// The paper's headline simulation: repeated equal-demand bursts from N
// senders over a 10G/100G dumbbell under DCTCP. At 500 flows every sender
// is pinned at the 1-MSS degenerate point and the queue stands at N - BDP.
func ExampleRunIncastSim() {
	res := incastlab.RunIncastSim(incastlab.SimConfig{
		Flows:  500,
		Bursts: 4, // keep the example fast; the paper runs 11
	})
	fmt.Printf("algorithm: %s\n", res.AlgName)
	fmt.Printf("timeouts: %d\n", res.Timeouts)
	fmt.Printf("queue stands near N-BDP: %v\n", res.MaxQueue > 450 && res.MaxQueue < 700)
	// Output:
	// algorithm: dctcp
	// timeouts: 0
	// queue stands near N-BDP: true
}

// Millisampler's burst definition: contiguous 1 ms spans above 50% of line
// rate; an incast is a burst with more than 25 flows.
func ExampleDetectBursts() {
	p, _ := incastlab.ServiceByName("video")
	tr := p.Generate(incastlab.GenConfig{Seed: 3, DurationMS: 1000})
	bursts := incastlab.DetectBursts(tr)
	incasts := 0
	for _, b := range bursts {
		if b.IsIncast() {
			incasts++
		}
	}
	fmt.Printf("every video burst is an incast: %v\n", incasts == len(bursts) && len(bursts) > 0)
	// Output:
	// every video burst is an incast: true
}

// The Section 3.3 stability observation as a component: observe per-burst
// incast degrees, predict the worst case to expect next.
func ExampleNewPredictor() {
	pr := incastlab.NewPredictor(incastlab.DefaultPredictorConfig())
	for i := 0; i < 99; i++ {
		pr.Observe(150)
	}
	pr.Observe(420) // one rare deep incast
	fmt.Printf("ready: %v\n", pr.Ready())
	fmt.Printf("predicted worst-case degree above typical: %v\n", pr.PredictedDegree() > 150)
	// Output:
	// ready: true
	// predicted worst-case degree above typical: true
}

// The Section 5.1 guardrail sizes a per-flow window clamp from a predicted
// incast degree: each flow gets its share of BDP plus marking headroom.
func ExampleNewGuardrail() {
	net := incastlab.DefaultDumbbellConfig()
	g := incastlab.NewGuardrail(
		incastlab.NewDCTCP(incastlab.DefaultDCTCPConfig()),
		net.BDPBytes(), net.ECNThresholdPackets*1500)
	g.Predict(50)
	fmt.Printf("cap for 50 flows: %d bytes\n", g.Cap())
	g.Predict(0)
	fmt.Printf("no incast expected, cap removed: %v\n", g.Cap() == 0)
	// Output:
	// cap for 50 flows: 2699 bytes
	// no incast expected, cap removed: true
}

// Wave scheduling (Section 5.2) turns one large incast into a series of
// small ones: only W flows are released at a time.
func ExampleNewWave() {
	res := incastlab.RunIncastSim(incastlab.SimConfig{
		Flows:         200,
		BurstDuration: 2 * incastlab.Millisecond,
		Bursts:        3,
		Interval:      20 * incastlab.Millisecond,
		Admitter:      incastlab.NewWave(50),
	})
	fmt.Printf("scheduled incast completed without loss: %v\n", res.Drops == 0)
	fmt.Printf("queue stayed shallow: %v\n", res.MaxQueue < 200)
	// Output:
	// scheduled incast completed without loss: true
	// queue stayed shallow: true
}
