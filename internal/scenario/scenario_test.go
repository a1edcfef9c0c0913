package scenario

import (
	"encoding/json"
	"strings"
	"testing"
)

// fullSpec exercises every Spec field, so the round-trip test covers the
// whole surface.
func fullSpec() Spec {
	return Spec{
		Name:  "kitchen-sink_1.0",
		Title: "Scenario: everything at once",
		Notes: "multi\nline notes",
		Topology: &Topology{
			HostLinkGbps:        10,
			CoreLinkGbps:        100,
			QueuePackets:        1333,
			ECNThresholdPackets: 65,
			SharedBufferBytes:   2_000_000,
			SharedBufferAlpha:   1,
			ContendBytes:        700_000,
		},
		Workload:  Workload{BurstMS: 2, IntervalMS: 100, Bursts: 12, QuickBursts: 3},
		CC:        &CC{Algorithm: "dctcp", G: 1.0 / 64, InitialWindowPkts: 10},
		Transport: &Transport{MinRTOMS: 10, DelayedAcks: true, AckEvery: 2, IdleRestart: true, ICTCP: true},
		// MinPorts stays zero: coordinated detection needs a clos block,
		// and this spec exercises the dumbbell surface.
		Notification: &Notification{
			WindowUS: 5, SlopePackets: 16, BurstArrivals: 64, CooldownUS: 50,
			Backoff: 0.5, HoldAcks: 4, FlowHorizonUS: 100,
		},
		Sweep: Sweep{
			Axis:   "g",
			Values: Nums(0.5, 0.0625, 0.002),
			Labels: []string{"half", "paper", "tiny"},
			Column: "gain",
			Flows:  []int{80, 500},
		},
		Fidelity: "packet",
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := fullSpec()
	first, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	parsed, err := Parse(first)
	if err != nil {
		t.Fatalf("parse own marshal output: %v", err)
	}
	second, err := json.MarshalIndent(parsed, "", "  ")
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(first) != string(second) {
		t.Errorf("round trip is lossy:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}

func TestValuePreservesJSONText(t *testing.T) {
	// The raw JSON text must survive unmarshal -> marshal, including
	// number spellings Go would otherwise normalize.
	for _, raw := range []string{`0.002`, `1e-3`, `65`, `true`, `false`, `"dctcp+wave64"`} {
		var v Value
		if err := json.Unmarshal([]byte(raw), &v); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %s: %v", raw, err)
		}
		if string(out) != raw {
			t.Errorf("value %s round-tripped to %s", raw, out)
		}
	}
}

func TestValueRejectsNonScalars(t *testing.T) {
	for _, raw := range []string{`{}`, `[1]`, `null`} {
		var v Value
		if err := json.Unmarshal([]byte(raw), &v); err == nil {
			t.Errorf("unmarshal %s: want error, got %q", raw, v.String())
		}
	}
	if _, err := json.Marshal(Value{}); err == nil {
		t.Error("marshaling a zero Value: want error")
	}
}

func TestValueKinds(t *testing.T) {
	if k := Num(3).Kind(); k != Number {
		t.Errorf("Num kind = %v", k)
	}
	if k := Flg(true).Kind(); k != Flag {
		t.Errorf("Flg kind = %v", k)
	}
	if k := Str("reno").Kind(); k != Name {
		t.Errorf("Str kind = %v", k)
	}
	if s, ok := Str("reno").Str(); !ok || s != "reno" {
		t.Errorf("Str(\"reno\").Str() = %q, %v", s, ok)
	}
	if f, ok := Num(0.25).Number(); !ok || f != 0.25 {
		t.Errorf("Num(0.25).Number() = %v, %v", f, ok)
	}
	if b, ok := Flg(true).Bool(); !ok || !b {
		t.Errorf("Flg(true).Bool() = %v, %v", b, ok)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"name": "x", "workload": {"flows": 10}, "sweeep": {}, "sweep": {"axis": "g", "values": [0.5]}}`))
	if err == nil || !strings.Contains(err.Error(), "sweeep") {
		t.Errorf("typo'd key: want a parse error naming the field, got %v", err)
	}
}

func TestWaveSize(t *testing.T) {
	for scheme, want := range map[string]int{
		"dctcp":           0,
		"dctcp+guardrail": 0,
		"dctcp+wave64":    64,
		"dctcp+wave8":     8,
	} {
		if got := WaveSize(scheme); got != want {
			t.Errorf("WaveSize(%q) = %d, want %d", scheme, got, want)
		}
		if !KnownScheme(scheme) {
			t.Errorf("KnownScheme(%q) = false", scheme)
		}
	}
}
