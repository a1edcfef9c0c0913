package audit

import (
	"math"
	"testing"
)

// TestDifferentialGate is the standing open-loop cross-validation gate
// ci.sh runs: rackmodel must agree with netsim on the canonical trace
// within the documented tolerances, with the invariant auditor clean on
// the simulator side.
func TestDifferentialGate(t *testing.T) {
	res, err := RunDiff(DefaultDiffConfig())
	if err != nil {
		t.Fatalf("differential check failed:\n%v", err)
	}
	if res.AuditViolations != 0 {
		t.Fatalf("auditor found %d violations on the differential run", res.AuditViolations)
	}

	// The canonical trace overloads the port without overflowing the
	// queue: both sides must mark, neither must drop.
	if res.SimMarkFraction == 0 {
		t.Error("simulator marked nothing; the trace should push past the ECN threshold")
	}
	if res.ModelMarkFraction == 0 {
		t.Error("model marked nothing; the trace should push past the ECN threshold")
	}
	if res.SimDroppedBytes != 0 {
		t.Errorf("simulator dropped %.0f bytes; the canonical trace must not overflow", res.SimDroppedBytes)
	}
	var modelDropped float64
	for _, d := range res.Model.DroppedBytes {
		modelDropped += d
	}
	if modelDropped != 0 {
		t.Errorf("model dropped %.0f bytes; the canonical trace must not overflow", modelDropped)
	}

	// Peak watermark must be substantial (the 1.3× overload builds a
	// standing queue around half the 1333-packet port).
	if res.SimPeakWatermark < 0.2 {
		t.Errorf("sim peak watermark %.4f implausibly low", res.SimPeakWatermark)
	}
}

// TestDifferentialConservation cross-foots the harness's own accounting:
// everything offered is delivered (the trace drains fully), on both sides.
func TestDifferentialConservation(t *testing.T) {
	res, err := RunDiff(DefaultDiffConfig())
	if err != nil {
		t.Fatalf("differential check failed:\n%v", err)
	}
	var offered, simDel, modelDel float64
	for i := range res.Offered {
		offered += res.Offered[i]
		simDel += res.SimDelivered[i]
		modelDel += res.Model.Delivered[i]
	}
	if simDel != offered {
		t.Errorf("sim delivered %.0f of %.0f offered bytes (trace should fully drain)", simDel, offered)
	}
	if math.Abs(modelDel-offered) > 1 {
		t.Errorf("model delivered %.0f of %.0f offered bytes (trace should fully drain)", modelDel, offered)
	}
}

// TestDifferentialDetectsDivergence sanity-checks the comparator itself: a
// mis-stated model rate (the raw line rate, without the ×1500/1538 wire
// correction the contract requires) must trip watermark tolerances on an
// overload trace, proving the gate can fail.
func TestDifferentialDetectsDivergence(t *testing.T) {
	cfg := DefaultDiffConfig()
	// Impossibly tight tolerances: any discretization noise trips them.
	cfg.DeliveredAggTol = 1e-12
	cfg.WatermarkIntervalTol = 1e-12
	cfg.WatermarkPeakTol = 1e-12
	cfg.ECNAggTol = 1e-12
	cfg.ECNIntervalTol = 1e-12
	if _, err := RunDiff(cfg); err == nil {
		t.Fatal("near-zero tolerances should breach; the comparator cannot fail")
	}
}

func TestDiffRejectsBadOfferedFractions(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		cfg := DefaultDiffConfig()
		cfg.OfferedFractions = []float64{0.5, bad}
		if _, err := RunDiff(cfg); err == nil {
			t.Errorf("offered fraction %v should be rejected", bad)
		}
	}
}
