package audit

import (
	"fmt"
	"math"

	"incastlab/internal/netsim"
	"incastlab/internal/rackmodel"
	"incastlab/internal/sim"
)

// DiffConfig parameterizes the open-loop differential cross-check: one
// offered-load trace driven through the analytic fluid model
// (internal/rackmodel) and the packet-level simulator (internal/netsim).
// The packet simulator is the reference; the model must agree with it
// within the stated tolerances. The flow-level solver (internal/flowsim)
// is not open-loop: the closed-loop gates (gate_test.go) check it against
// packet through core.RunIncastSim, the code every run takes.
//
// Rate-accounting contract: rackmodel thinks in a single byte currency,
// while netsim serializes WireBytes (IP bytes + 38 B Ethernet framing) but
// accounts queues and deliveries in IP bytes. The harness bridges the two
// by running the model at the effective IP-byte drain rate,
//
//	LineRateBps × MTU / (MTU + EthernetOverhead)  (= ×1500/1538),
//
// and expressing every offered/delivered volume in IP bytes. Without this
// correction the model drains ~2.5% faster than the simulator and the
// watermark curves diverge mechanically.
type DiffConfig struct {
	// OfferedFractions is the load trace: interval i offers
	// OfferedFractions[i] × (effective drain) bytes, injected as uniformly
	// spaced MTU packets. Values above 1 build queue; trailing zeros let it
	// drain.
	OfferedFractions []float64
	// Interval is the model interval and sim injection window (default 1 ms,
	// the millisampler granularity).
	Interval sim.Time
	// LineRateBps is the bottleneck line rate (default 10 Gbps).
	LineRateBps int64
	// QueueCapacityPackets is the bottleneck queue capacity (default 1333,
	// the 2 MB ToR port).
	QueueCapacityPackets int
	// ECNThresholdPackets is the marking threshold K (default 65).
	ECNThresholdPackets int

	// Tolerances; zero values take the defaults stated on each field.

	// DeliveredAggTol bounds |sim − model| total delivered bytes, relative
	// to the model total (default 0.02).
	DeliveredAggTol float64
	// ECNAggTol bounds the absolute difference of aggregate mark fractions
	// (marked delivered / delivered) between sim and model (default 0.05).
	ECNAggTol float64
	// ECNIntervalTol bounds the per-interval absolute mark-fraction
	// difference (default 0.5 — deliberately loose: the model marks
	// delivery in the interval the queue is over threshold, while the
	// simulator marks at enqueue and delivers a standing-queue delay
	// later, skewing marked bytes by up to one interval at load edges).
	ECNIntervalTol float64
	// WatermarkIntervalTol bounds the per-interval absolute difference of
	// queue-watermark fractions of capacity (default 0.1).
	WatermarkIntervalTol float64
	// WatermarkPeakTol bounds the absolute difference of whole-trace peak
	// watermark fractions (default 0.05).
	WatermarkPeakTol float64
	// DropTol bounds |sim − model| total dropped bytes relative to total
	// offered bytes (default 0.02).
	DropTol float64

	// Audit attaches an invariant Auditor to the simulator side and fails
	// the diff on any violation.
	Audit bool
}

// DefaultDiffConfig returns the canonical gate trace: ramp to moderate
// load, hold near saturation, overload past line rate (builds a standing
// queue and sustains ECN marking without drops), then back off and fully
// drain over trailing idle intervals.
func DefaultDiffConfig() DiffConfig {
	return DiffConfig{
		OfferedFractions: []float64{
			0.2, 0.2, 0.2,
			0.6, 0.6, 0.6,
			0.95, 0.95,
			1.3, 1.3, 1.3,
			0.8, 0.8,
			0.4, 0.4, 0.4,
			0.1, 0.1,
			0, 0, 0, 0,
		},
		Interval:             sim.Millisecond,
		LineRateBps:          10 * netsim.Gbps,
		QueueCapacityPackets: netsim.DefaultPortConfig().QueueCapacityPackets,
		ECNThresholdPackets:  netsim.DefaultPortConfig().ECNThresholdPackets,
		Audit:                true,
	}
}

func (c *DiffConfig) fill() {
	if len(c.OfferedFractions) == 0 {
		c.OfferedFractions = DefaultDiffConfig().OfferedFractions
	}
	if c.Interval <= 0 {
		c.Interval = sim.Millisecond
	}
	if c.LineRateBps <= 0 {
		c.LineRateBps = 10 * netsim.Gbps
	}
	if c.QueueCapacityPackets <= 0 {
		c.QueueCapacityPackets = netsim.DefaultPortConfig().QueueCapacityPackets
	}
	if c.ECNThresholdPackets <= 0 {
		c.ECNThresholdPackets = netsim.DefaultPortConfig().ECNThresholdPackets
	}
	if c.DeliveredAggTol <= 0 {
		c.DeliveredAggTol = 0.02
	}
	if c.ECNAggTol <= 0 {
		c.ECNAggTol = 0.05
	}
	if c.ECNIntervalTol <= 0 {
		c.ECNIntervalTol = 0.5
	}
	if c.WatermarkIntervalTol <= 0 {
		c.WatermarkIntervalTol = 0.1
	}
	if c.WatermarkPeakTol <= 0 {
		c.WatermarkPeakTol = 0.05
	}
	if c.DropTol <= 0 {
		c.DropTol = 0.02
	}
}

// DiffResult carries both sides' curves and the tolerance verdicts.
type DiffResult struct {
	// Offered is the per-interval offered volume in IP bytes (identical
	// input to both sides).
	Offered []float64

	// Sim-side per-interval measurements (IP bytes; watermark as fraction
	// of queue capacity).
	SimDelivered []float64
	SimECNBytes  []float64
	SimWatermark []float64
	// SimDroppedBytes is the whole-run tail-drop volume in IP bytes.
	SimDroppedBytes float64

	// Model-side outputs under the effective-rate correction.
	Model *rackmodel.Result

	// Aggregate mark fractions (marked delivered / delivered).
	SimMarkFraction   float64
	ModelMarkFraction float64
	// Peak watermark fractions over the whole trace.
	SimPeakWatermark   float64
	ModelPeakWatermark float64

	// Breaches lists every tolerance violation, empty on agreement.
	Breaches []string

	// AuditViolations is the simulator-side invariant violation count when
	// DiffConfig.Audit was set.
	AuditViolations int
}

// RunDiff drives the configured offered-load trace through rackmodel and
// netsim and compares the model against the packet simulator. The
// returned error is non-nil when any tolerance is breached
// or (with cfg.Audit) the invariant auditor found violations; the
// DiffResult always carries the full curves for reporting.
func RunDiff(cfg DiffConfig) (*DiffResult, error) {
	cfg.fill()
	n := len(cfg.OfferedFractions)

	// Effective IP-byte drain per interval: the link serializes
	// MTU+overhead wire bytes per MTU-sized packet.
	effRateBps := float64(cfg.LineRateBps) * float64(netsim.MTU) / float64(netsim.MTU+netsim.EthernetOverhead)
	intervalSec := float64(cfg.Interval) / float64(sim.Second)
	drainPkts := effRateBps / 8 * intervalSec / float64(netsim.MTU)

	offered := make([]float64, n)
	counts := make([]int, n)
	for i, f := range cfg.OfferedFractions {
		if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("audit: offered fraction %v at interval %d must be finite and non-negative", f, i)
		}
		counts[i] = int(math.Round(f * drainPkts))
		offered[i] = float64(counts[i]) * float64(netsim.MTU)
	}

	// --- Simulator side: pool → link → sink host, MTU packets uniformly
	// spaced within each interval.
	eng := sim.NewEngine()
	pool := netsim.NewPacketPool()
	sink := netsim.NewHost(eng, 0, "sink")
	sink.SetPool(pool)
	queue := netsim.NewQueue(netsim.QueueConfig{
		Name:                "diff-bottleneck",
		CapacityPackets:     cfg.QueueCapacityPackets,
		ECNThresholdPackets: cfg.ECNThresholdPackets,
	})
	link := netsim.NewLink(eng, netsim.LinkConfig{
		Name:         "diff-bottleneck",
		BandwidthBps: cfg.LineRateBps,
		Queue:        queue,
		Dst:          sink,
	})
	link.SetPool(pool)

	res := &DiffResult{
		Offered:      offered,
		SimDelivered: make([]float64, n),
		SimECNBytes:  make([]float64, n),
		SimWatermark: make([]float64, n),
	}
	sink.SetOnReceive(func(now sim.Time, p *netsim.Packet) {
		i := int(now / cfg.Interval)
		if i >= n {
			i = n - 1
		}
		res.SimDelivered[i] += float64(p.IPBytes())
		if p.CE {
			res.SimECNBytes[i] += float64(p.IPBytes())
		}
	})
	watermarks := netsim.QueueWatermarkSeries(eng, queue, 0, cfg.Interval, n)

	for i, cnt := range counts {
		if cnt == 0 {
			continue
		}
		gap := cfg.Interval / sim.Time(cnt)
		for j := 0; j < cnt; j++ {
			at := sim.Time(i)*cfg.Interval + sim.Time(j)*gap
			eng.Schedule(at, func() {
				p := pool.Get()
				p.Flow = 1
				p.Src = 1
				p.Dst = 0
				p.Len = netsim.MTU - netsim.HeaderBytes
				p.ECT = true
				link.Send(p)
			})
		}
	}

	var auditor *Auditor
	if cfg.Audit {
		auditor = New(eng, Config{Interval: cfg.Interval, RequireDrained: true})
		auditor.WatchLink(link)
		auditor.WatchHost(sink)
		auditor.WatchPool(pool)
		auditor.SetClosedWorld(true)
		auditor.Start()
	}

	// One extra interval of margin lets in-flight stragglers land before
	// the clamp bucket would otherwise absorb them.
	eng.RunUntil(sim.Time(n+1) * cfg.Interval)
	if auditor != nil {
		auditor.Finish()
		res.AuditViolations = auditor.Total()
	}
	res.SimDroppedBytes = float64(queue.Stats().DroppedBytes)

	capPkts := float64(cfg.QueueCapacityPackets)
	for i := 0; i < n; i++ {
		res.SimWatermark[i] = watermarks.Values[i] / capPkts
		if res.SimWatermark[i] > res.SimPeakWatermark {
			res.SimPeakWatermark = res.SimWatermark[i]
		}
	}

	// --- Model side, at the effective IP-byte rate.
	res.Model = rackmodel.Run(offered, int64(cfg.Interval), rackmodel.Config{
		LineRateBps:          int64(effRateBps),
		QueueCapacityBytes:   capPkts * float64(netsim.MTU),
		ECNThresholdFraction: float64(cfg.ECNThresholdPackets) / capPkts,
		RetxDelayIntervals:   1,
	})
	res.ModelPeakWatermark = res.Model.WatermarkFraction

	// --- Compare the model against the packet simulator.
	breach := func(format string, args ...any) {
		res.Breaches = append(res.Breaches, fmt.Sprintf(format, args...))
	}

	var simTotal, simECN, modelTotal, modelECN, modelDropped, totalOffered float64
	for i := 0; i < n; i++ {
		simTotal += res.SimDelivered[i]
		simECN += res.SimECNBytes[i]
		modelTotal += res.Model.Delivered[i]
		modelECN += res.Model.ECNBytes[i]
		modelDropped += res.Model.DroppedBytes[i]
		totalOffered += offered[i]
	}
	if simTotal > 0 {
		res.SimMarkFraction = simECN / simTotal
	}
	if modelTotal > 0 {
		res.ModelMarkFraction = modelECN / modelTotal
		if rel := math.Abs(simTotal-modelTotal) / modelTotal; rel > cfg.DeliveredAggTol {
			breach("aggregate delivered: sim %.0f vs rackmodel %.0f bytes (rel diff %.4f > tol %.4f)",
				simTotal, modelTotal, rel, cfg.DeliveredAggTol)
		}
	}
	if d := math.Abs(res.SimMarkFraction - res.ModelMarkFraction); d > cfg.ECNAggTol {
		breach("aggregate ECN mark fraction: sim %.4f vs rackmodel %.4f (diff %.4f > tol %.4f)",
			res.SimMarkFraction, res.ModelMarkFraction, d, cfg.ECNAggTol)
	}
	for i := 0; i < n; i++ {
		var simF, modelF float64
		if res.SimDelivered[i] > 0 {
			simF = res.SimECNBytes[i] / res.SimDelivered[i]
		}
		if res.Model.Delivered[i] > 0 {
			modelF = res.Model.ECNBytes[i] / res.Model.Delivered[i]
		}
		if d := math.Abs(simF - modelF); d > cfg.ECNIntervalTol {
			breach("interval %d ECN mark fraction: sim %.4f vs rackmodel %.4f (diff %.4f > tol %.4f)",
				i, simF, modelF, d, cfg.ECNIntervalTol)
		}
		if d := math.Abs(res.SimWatermark[i] - res.Model.QueuePeakFraction[i]); d > cfg.WatermarkIntervalTol {
			breach("interval %d queue watermark: sim %.4f vs rackmodel %.4f of capacity (diff %.4f > tol %.4f)",
				i, res.SimWatermark[i], res.Model.QueuePeakFraction[i], d, cfg.WatermarkIntervalTol)
		}
	}
	if d := math.Abs(res.SimPeakWatermark - res.ModelPeakWatermark); d > cfg.WatermarkPeakTol {
		breach("peak queue watermark: sim %.4f vs rackmodel %.4f of capacity (diff %.4f > tol %.4f)",
			res.SimPeakWatermark, res.ModelPeakWatermark, d, cfg.WatermarkPeakTol)
	}
	if totalOffered > 0 {
		if rel := math.Abs(res.SimDroppedBytes-modelDropped) / totalOffered; rel > cfg.DropTol {
			breach("dropped bytes: sim %.0f vs rackmodel %.0f (rel to offered %.4f > tol %.4f)",
				res.SimDroppedBytes, modelDropped, rel, cfg.DropTol)
		}
	}

	var err error
	switch {
	case res.AuditViolations > 0 && auditor != nil:
		err = fmt.Errorf("audit: differential run had %d invariant violation(s): %w", res.AuditViolations, auditor.Err())
	case len(res.Breaches) > 0:
		msg := fmt.Sprintf("audit: rackmodel/netsim differential check failed with %d breach(es)", len(res.Breaches))
		for _, b := range res.Breaches {
			msg += "\n  " + b
		}
		err = fmt.Errorf("%s", msg)
	}
	return res, err
}
