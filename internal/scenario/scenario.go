// Package scenario is incastlab's declarative experiment layer: a
// JSON-encodable Spec describes a complete incast study — topology,
// workload shape, congestion-control algorithm and parameters, transport
// tuning, and a sweep axis with its values — and internal/core compiles
// it into packet-level simulation configs and runs it to CSV. Scenarios
// are data, not code: the ten ablation experiments are specs compiled by
// one generic runner, and `incastsim -scenario file.json` runs a
// user-defined study end to end with no Go changes.
//
// Two rulebooks decide whether a spec runs. This package's Validate owns
// what a spec says on its own: field ranges, the CC, scheme and placement
// words, and shape rules such as which block an axis toggles. Whether a
// compiled row can run (a known fidelity and aggregation, a fabric that
// fits its workers, the fluid backend's limits) is core.SimConfig.Validate's
// rule, which core.CompileScenario applies to every row, naming the row
// that fails, before any row runs.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Spec is one declarative scenario: a named sweep of packet-level incast
// simulations sharing a workload, topology, and transport setup, varying
// one axis.
type Spec struct {
	// Name identifies the scenario. It becomes the CSV file stem, the
	// metrics "experiment" label, and — for registered ablations — the
	// registry name.
	Name string `json:"name"`
	// Title overrides the summary heading; empty means "Scenario: <name>".
	Title string `json:"title,omitempty"`
	// Notes is free-form commentary appended to the text summary.
	Notes string `json:"notes,omitempty"`
	// Topology overrides the paper's dumbbell parameters; nil keeps the
	// per-flow-count defaults.
	Topology *Topology `json:"topology,omitempty"`
	// Workload shapes the repeated-burst incast.
	Workload Workload `json:"workload"`
	// CC selects the congestion-control algorithm; nil means DCTCP with
	// the paper's parameters.
	CC *CC `json:"cc,omitempty"`
	// Transport tunes the TCP sender/receiver; nil keeps the paper
	// defaults (200 ms min RTO, immediate ACKs, persistent windows).
	Transport *Transport `json:"transport,omitempty"`
	// Notification enables switch-side incast detection and the explicit
	// notification path (Pulser-style sender backoff). With the
	// "notification" sweep axis, the block parameterizes the mechanism and
	// the axis values toggle it per row.
	Notification *Notification `json:"notification,omitempty"`
	// Sweep names the varied axis and its values; every value is one row
	// of the result table.
	Sweep Sweep `json:"sweep"`
	// Fidelity selects the simulation backend: "packet" (the default,
	// also selected by omission) runs the discrete-event simulator;
	// "flow" runs the fluid fast-path engine, which is orders of
	// magnitude faster but rejects packet-level-only features (shared
	// buffers, delayed ACKs, ICTCP, idle restart).
	Fidelity string `json:"fidelity,omitempty"`
	// Aggregation selects how the fluid backend represents the flow
	// population: "perflow" (one record per flow), "cohort" (equivalence
	// classes integrated as weighted records, split lazily and exactly on
	// divergence — the million-flow fast path), or "auto" (also by
	// omission: cohorts from the backend's flow-count threshold up).
	// Requires fidelity "flow" when set (checked when the spec compiles).
	Aggregation string `json:"aggregation,omitempty"`
}

// Topology overrides the paper's dumbbell configuration. Zero fields keep
// the defaults (10/100 Gbps, 1333-packet queues, K=65).
type Topology struct {
	// HostLinkGbps and CoreLinkGbps set the line rates (0.1 to 10,000
	// Gbps). CoreLinkGbps is packet-level only: the fluid dumbbell models
	// the bottleneck queue alone, so fidelity "flow" rejects any rate but
	// the default.
	HostLinkGbps float64 `json:"host_link_gbps,omitempty"`
	CoreLinkGbps float64 `json:"core_link_gbps,omitempty"`
	// QueuePackets bounds every switch port queue (bytes scale with MTU;
	// at most 1e9 packets, as is ECNThresholdPackets).
	QueuePackets int `json:"queue_packets,omitempty"`
	// ECNThresholdPackets is the marking threshold K.
	ECNThresholdPackets int `json:"ecn_threshold_pkts,omitempty"`
	// SharedBufferBytes pools the receiver-side port queues into a shared
	// switch memory with dynamic-threshold factor SharedBufferAlpha.
	SharedBufferBytes int     `json:"shared_buffer_bytes,omitempty"`
	SharedBufferAlpha float64 `json:"shared_buffer_alpha,omitempty"`
	// ContendBytes models rack-level contention: bytes consumed in the
	// shared buffer by bursts to other hosts.
	ContendBytes int `json:"contend_bytes,omitempty"`
	// Clos replaces the dumbbell with a multi-rack leaf/spine fabric. The
	// scalar overrides above still apply (host link rate, queue bounds, ECN
	// threshold, per-leaf shared buffer); CoreLinkGbps does not — the
	// fabric's inter-switch rate is Clos.SpineLinkGbps.
	Clos *Clos `json:"clos,omitempty"`
}

// Clos describes a two-tier leaf/spine fabric: Racks ToR switches with
// HostsPerRack hosts each, every leaf uplinked to every spine, and
// cross-rack flows hashed over the uplinks with deterministic seeded ECMP.
// The incast aggregator sits at rack 0, slot 0; workers are placed by
// Placement (or the "placement" sweep axis).
type Clos struct {
	// Racks is the leaf count (at least 2).
	Racks int `json:"racks"`
	// HostsPerRack is the host count under each leaf.
	HostsPerRack int `json:"hosts_per_rack"`
	// Spines is the spine count (default 2).
	Spines int `json:"spines,omitempty"`
	// SpineLinkGbps sets each leaf-spine uplink's rate directly (default
	// 100; 0.1 to 10,000 Gbps). Mutually exclusive with Oversubscription.
	SpineLinkGbps float64 `json:"spine_link_gbps,omitempty"`
	// Oversubscription sets the uplink rate indirectly as the rack's
	// oversubscription factor: offered host bandwidth over aggregate uplink
	// bandwidth (e.g. 4 means hosts_per_rack*host_gbps = 4*spines*uplink).
	Oversubscription float64 `json:"oversubscription,omitempty"`
	// ECMPSeed seeds the flow-placement hash; 0 derives it from the run
	// seed, so `-seed` reshuffles ECMP placement along with start jitter.
	ECMPSeed uint64 `json:"ecmp_seed,omitempty"`
	// Placement is where workers sit relative to the aggregator:
	// "cross-rack" (default) or "same-rack". Ignored when the sweep axis is
	// "placement".
	Placement string `json:"placement,omitempty"`
	// Aggregators runs that many concurrent incasts over the fabric
	// (default 1): aggregator k receives at rack k, slot 0, each fanning
	// in workload.flows workers, so the spine layer carries overlapping
	// incasts. Ignored when the sweep axis is "aggregators".
	Aggregators int `json:"aggregators,omitempty"`
}

// Workload shapes the repeated-burst incast the scenario simulates.
type Workload struct {
	// Flows is the incast degree N. It may be omitted when the sweep
	// supplies the degrees (axis "flows" or Sweep.Flows).
	Flows int `json:"flows,omitempty"`
	// BurstMS is the target burst duration in milliseconds (default 15).
	BurstMS float64 `json:"burst_ms,omitempty"`
	// IntervalMS is the burst start-to-start spacing in milliseconds
	// (default 250; keep it above the minimum RTO so one burst's timeout
	// recovery does not bleed into the next).
	IntervalMS float64 `json:"interval_ms,omitempty"`
	// Bursts is the burst count in full runs (default 11; the first burst
	// is always discarded as a slow-start transient). QuickBursts is the
	// count under quick mode (default 4).
	Bursts      int `json:"bursts,omitempty"`
	QuickBursts int `json:"quick_bursts,omitempty"`
	// JitterUS is the per-flow start jitter ceiling in microseconds
	// (default 100). Very large synchronized incasts can lock their
	// retransmission timers together and never drain the burst tail;
	// widening the jitter desynchronizes them. Must stay below the burst
	// interval.
	JitterUS float64 `json:"jitter_us,omitempty"`
}

// CC selects and parameterizes the congestion-control algorithm.
type CC struct {
	// Algorithm is one of CCNames; empty means "dctcp".
	Algorithm string `json:"algorithm,omitempty"`
	// G overrides DCTCP's alpha gain (0 keeps the paper's 1/16).
	G float64 `json:"g,omitempty"`
	// InitialWindowPkts overrides Reno's initial window in packets
	// (0 keeps the default 10).
	InitialWindowPkts int `json:"initial_window_pkts,omitempty"`
}

// Transport tunes the TCP sender and receiver.
type Transport struct {
	// MinRTOMS sets the minimum retransmission timeout in milliseconds.
	MinRTOMS float64 `json:"min_rto_ms,omitempty"`
	// DelayedAcks coalesces ACKs (AckEvery segments per ACK, default 2).
	DelayedAcks bool `json:"delayed_acks,omitempty"`
	AckEvery    int  `json:"ack_every,omitempty"`
	// IdleRestart applies RFC 2861-style congestion window validation.
	IdleRestart bool `json:"idle_restart,omitempty"`
	// ICTCP manages receive windows with a receiver-side ICTCP controller.
	ICTCP bool `json:"ictcp,omitempty"`
}

// Notification configures switch-side incast detection and the sender
// reaction. Zero fields take the defaults sized for the paper's ~30us-RTT
// fabrics (5us window, 16-packet slope, 64-arrival burst, 50us cooldown,
// 0.5 backoff).
type Notification struct {
	// WindowUS is the detector observation window in microseconds.
	WindowUS float64 `json:"window_us,omitempty"`
	// SlopePackets trips the detector on this much queue growth within
	// one window.
	SlopePackets int `json:"slope_packets,omitempty"`
	// BurstArrivals trips the detector on this many arrivals within one
	// window regardless of net growth.
	BurstArrivals int `json:"burst_arrivals,omitempty"`
	// CooldownUS is the minimum time between firings, in microseconds.
	CooldownUS float64 `json:"cooldown_us,omitempty"`
	// Backoff is the sender's multiplicative reaction factor in (0, 1).
	Backoff float64 `json:"backoff,omitempty"`
	// HoldAcks is how many ACKs the backoff holds before releasing.
	HoldAcks int `json:"hold_acks,omitempty"`
	// MinPorts > 0 selects distributed in-fabric detection on a Clos
	// fabric: each leaf declares incast when this many of its uplink
	// ports trip within CoordWindowUS microseconds, and notifies every
	// same-rack flow seen within FlowHorizonUS microseconds (default 100).
	MinPorts      int     `json:"min_ports,omitempty"`
	CoordWindowUS float64 `json:"coord_window_us,omitempty"`
	FlowHorizonUS float64 `json:"flow_horizon_us,omitempty"`
}

// Sweep is the scenario's varied axis.
type Sweep struct {
	// Axis names the swept parameter; see Axes for the vocabulary.
	Axis string `json:"axis"`
	// Values are the axis values, one simulation (table row) each. Their
	// JSON kind must match the axis: numbers for number axes, booleans
	// for flag axes, strings for name axes.
	Values []Value `json:"values"`
	// Labels overrides how each value renders in the axis column; when
	// present its length must equal len(Values).
	Labels []string `json:"labels,omitempty"`
	// Column overrides the axis column's header (default: the axis name).
	Column string `json:"column,omitempty"`
	// Flows crosses the axis with several incast degrees, adding a
	// leading "flows" column (rows iterate degrees outermost). It is
	// mutually exclusive with axis "flows" and with Workload.Flows.
	Flows []int `json:"flows,omitempty"`
}

// ValueKind is the JSON value kind a sweep axis expects.
type ValueKind int

// The three axis value kinds.
const (
	Number ValueKind = iota
	Flag
	Name
)

func (k ValueKind) String() string {
	switch k {
	case Number:
		return "number"
	case Flag:
		return "boolean"
	case Name:
		return "string"
	}
	return "unknown"
}

// Axes is the sweep-axis vocabulary: axis name to expected value kind.
//
//	flows               incast degree N
//	g                   DCTCP alpha gain
//	ecn_threshold_pkts  switch marking threshold K
//	min_rto_ms          minimum retransmission timeout
//	marking_ewma        RED-style EWMA marking weight (0 = instantaneous)
//	delayed_acks        immediate vs coalesced ACKs
//	idle_restart        persistent windows vs RFC 2861 restarts
//	shared_buffer       dedicated queues vs the spec's shared buffer
//	ictcp               receiver-side ICTCP window management on/off
//	cc                  congestion-control algorithm by name
//	scheme              Section 5 schemes: dctcp, dctcp+guardrail, dctcp+wave<N>
//	placement           Clos worker placement: same-rack vs cross-rack
//	aggregators         concurrent Clos incasts sharing the fabric (one per rack, from rack 0)
//	notification        explicit incast notification on/off (needs the spec's notification block)
var Axes = map[string]ValueKind{
	"flows":              Number,
	"g":                  Number,
	"ecn_threshold_pkts": Number,
	"min_rto_ms":         Number,
	"marking_ewma":       Number,
	"aggregators":        Number,
	"delayed_acks":       Flag,
	"idle_restart":       Flag,
	"shared_buffer":      Flag,
	"ictcp":              Flag,
	"notification":       Flag,
	"cc":                 Name,
	"scheme":             Name,
	"placement":          Name,
}

// Placements lists the Clos worker placement policies, for Clos.Placement
// and axis "placement" values.
var Placements = []string{"cross-rack", "same-rack"}

// KnownPlacement reports whether name is a placement policy ("" means
// cross-rack).
func KnownPlacement(name string) bool {
	for _, p := range Placements {
		if name == p {
			return true
		}
	}
	return name == ""
}

// CCNames lists the congestion-control algorithms a spec may name, for
// CC.Algorithm and for axis "cc" values. "d2tcp-tight" is D2TCP with a
// tight deadline factor (D=2), the CCA ablation's configuration.
var CCNames = []string{"dctcp", "reno", "swift", "d2tcp", "d2tcp-tight"}

// KnownCC reports whether name is a recognized congestion-control name.
func KnownCC(name string) bool {
	for _, n := range CCNames {
		if n == name {
			return true
		}
	}
	return false
}

// schemePattern matches the Section 5 scheme names: plain DCTCP, the
// guardrail clamp, and wave scheduling with an explicit concurrency.
var schemePattern = regexp.MustCompile(`^dctcp(\+guardrail|\+wave[1-9][0-9]*)?$`)

// KnownScheme reports whether name is a recognized scheme axis value.
func KnownScheme(name string) bool { return schemePattern.MatchString(name) }

// WaveSize extracts the concurrency from a "dctcp+wave<N>" scheme name,
// returning 0 for other schemes.
func WaveSize(scheme string) int {
	const prefix = "dctcp+wave"
	if !strings.HasPrefix(scheme, prefix) {
		return 0
	}
	n, err := strconv.Atoi(scheme[len(prefix):])
	if err != nil {
		return 0
	}
	return n
}

// namePattern bounds scenario names to safe CSV/metric identifiers.
var namePattern = regexp.MustCompile(`^[a-z0-9][a-z0-9_.-]*$`)

// Value is one sweep-axis value: a JSON number, string, or boolean. It
// preserves the exact JSON text, so specs round-trip losslessly.
type Value struct {
	raw string
}

// Num builds a number value.
func Num(v float64) Value { return Value{raw: strconv.FormatFloat(v, 'g', -1, 64)} }

// Nums builds a number value list.
func Nums(vs ...float64) []Value {
	out := make([]Value, len(vs))
	for i, v := range vs {
		out[i] = Num(v)
	}
	return out
}

// Str builds a string (name) value.
func Str(s string) Value {
	b, err := json.Marshal(s)
	if err != nil {
		// Strings always marshal.
		panic(err)
	}
	return Value{raw: string(b)}
}

// Strs builds a string value list.
func Strs(ss ...string) []Value {
	out := make([]Value, len(ss))
	for i, s := range ss {
		out[i] = Str(s)
	}
	return out
}

// Flg builds a boolean value.
func Flg(b bool) Value { return Value{raw: strconv.FormatBool(b)} }

// Flags builds a boolean value list.
func Flags(bs ...bool) []Value {
	out := make([]Value, len(bs))
	for i, b := range bs {
		out[i] = Flg(b)
	}
	return out
}

// MarshalJSON implements json.Marshaler.
func (v Value) MarshalJSON() ([]byte, error) {
	if v.raw == "" {
		return nil, fmt.Errorf("scenario: marshaling a zero Value")
	}
	return []byte(v.raw), nil
}

// UnmarshalJSON implements json.Unmarshaler: scalars only.
func (v *Value) UnmarshalJSON(b []byte) error {
	s := strings.TrimSpace(string(b))
	if s == "" || s == "null" || strings.HasPrefix(s, "{") || strings.HasPrefix(s, "[") {
		return fmt.Errorf("scenario: sweep value %s must be a number, string, or boolean", s)
	}
	v.raw = s
	return nil
}

// Kind returns the value's JSON kind.
func (v Value) Kind() ValueKind {
	switch {
	case strings.HasPrefix(v.raw, `"`):
		return Name
	case v.raw == "true" || v.raw == "false":
		return Flag
	default:
		return Number
	}
}

// Number returns the numeric value; ok is false for non-numbers.
func (v Value) Number() (f float64, ok bool) {
	if v.Kind() != Number {
		return 0, false
	}
	f, err := strconv.ParseFloat(v.raw, 64)
	return f, err == nil
}

// Bool returns the boolean value; ok is false for non-booleans.
func (v Value) Bool() (b, ok bool) {
	if v.Kind() != Flag {
		return false, false
	}
	return v.raw == "true", true
}

// Str returns the string value; ok is false for non-strings.
func (v Value) Str() (s string, ok bool) {
	if v.Kind() != Name {
		return "", false
	}
	if err := json.Unmarshal([]byte(v.raw), &s); err != nil {
		return "", false
	}
	return s, true
}

// String renders the value for error messages and default labels.
func (v Value) String() string {
	if s, ok := v.Str(); ok {
		return s
	}
	return v.raw
}

// Validate rejects specs that are malformed on their own terms, with
// actionable errors: field ranges, the CC, scheme and placement words, and
// the shape rules that tie fields together. It does not check whether
// each row can run (backend, capacity, flow limits); core.CompileScenario
// checks that row by row.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name (it becomes the CSV file stem)")
	}
	if !namePattern.MatchString(s.Name) {
		return fmt.Errorf("scenario %q: name must match %s (lowercase letters, digits, '_', '.', '-')", s.Name, namePattern)
	}
	if err := s.Workload.validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if s.Topology != nil {
		if err := s.Topology.validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if s.CC != nil {
		if err := s.CC.validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if s.Transport != nil {
		if err := s.Transport.validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if s.Notification != nil {
		if err := s.Notification.validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if err := s.Sweep.validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}

	// Cross-field rules: the incast degree must come from exactly one
	// place, and every run needs one.
	sweepsFlows := s.Sweep.Axis == "flows"
	if sweepsFlows && len(s.Sweep.Flows) > 0 {
		return fmt.Errorf("scenario %q: axis \"flows\" and sweep.flows are mutually exclusive", s.Name)
	}
	if (sweepsFlows || len(s.Sweep.Flows) > 0) && s.Workload.Flows != 0 {
		return fmt.Errorf("scenario %q: workload.flows conflicts with the sweep's flow degrees; set one or the other", s.Name)
	}
	if !sweepsFlows && len(s.Sweep.Flows) == 0 && s.Workload.Flows <= 0 {
		return fmt.Errorf("scenario %q: workload.flows must be a positive incast degree (or sweep flows via the axis)", s.Name)
	}
	if s.Topology == nil && s.Sweep.Axis == "shared_buffer" {
		return fmt.Errorf("scenario %q: axis \"shared_buffer\" needs a topology with shared_buffer_bytes to toggle", s.Name)
	}
	if s.Sweep.Axis == "notification" && s.Notification == nil {
		return fmt.Errorf("scenario %q: axis \"notification\" needs a notification block to toggle", s.Name)
	}

	// Clos cross-field rules.
	var clos *Clos
	if s.Topology != nil {
		clos = s.Topology.Clos
	}
	if s.Sweep.Axis == "placement" && clos == nil {
		return fmt.Errorf("scenario %q: axis \"placement\" places workers in a fabric; it needs a topology.clos block", s.Name)
	}
	if s.Sweep.Axis == "aggregators" && clos == nil {
		return fmt.Errorf("scenario %q: axis \"aggregators\" spreads incasts over racks; it needs a topology.clos block", s.Name)
	}
	if s.Notification != nil && s.Notification.MinPorts > 0 && clos == nil {
		return fmt.Errorf("scenario %q: notification.min_ports coordinates detectors across a leaf's uplink ports; it needs a topology.clos block", s.Name)
	}
	return nil
}

func (w Workload) validate() error {
	if w.Flows < 0 {
		return fmt.Errorf("workload.flows = %d: an incast degree cannot be negative", w.Flows)
	}
	if w.BurstMS < 0 || math.IsNaN(w.BurstMS) || math.IsInf(w.BurstMS, 0) {
		return fmt.Errorf("workload.burst_ms = %v: want a positive duration (or omit for the 15 ms default)", w.BurstMS)
	}
	if w.IntervalMS < 0 || math.IsNaN(w.IntervalMS) || math.IsInf(w.IntervalMS, 0) {
		return fmt.Errorf("workload.interval_ms = %v: want a positive spacing (or omit for the 250 ms default)", w.IntervalMS)
	}
	if w.Bursts < 0 || w.QuickBursts < 0 {
		return fmt.Errorf("workload bursts (%d) and quick_bursts (%d) cannot be negative", w.Bursts, w.QuickBursts)
	}
	if w.JitterUS < 0 || math.IsNaN(w.JitterUS) || math.IsInf(w.JitterUS, 0) {
		return fmt.Errorf("workload.jitter_us = %v: want a non-negative jitter ceiling (or omit for the 100 us default)", w.JitterUS)
	}
	if w.JitterUS > 0 && w.IntervalMS > 0 && w.JitterUS >= w.IntervalMS*1000 {
		return fmt.Errorf("workload.jitter_us = %v must stay below the burst interval (%v ms)", w.JitterUS, w.IntervalMS)
	}
	return nil
}

func (t Topology) validate() error {
	if err := checkRate("topology.host_link_gbps", t.HostLinkGbps); err != nil {
		return err
	}
	if err := checkRate("topology.core_link_gbps", t.CoreLinkGbps); err != nil {
		return err
	}
	// At most 1e9 packets keeps the queue and threshold bytes in an int.
	if min(t.QueuePackets, t.ECNThresholdPackets) < 0 || max(t.QueuePackets, t.ECNThresholdPackets) > 1e9 {
		return fmt.Errorf("topology queue_packets (%d) and ecn_threshold_pkts (%d) must lie in [0, 1e9] packets",
			t.QueuePackets, t.ECNThresholdPackets)
	}
	if t.SharedBufferBytes < 0 || t.SharedBufferAlpha < 0 {
		return fmt.Errorf("topology shared buffer parameters cannot be negative")
	}
	if t.ContendBytes < 0 {
		return fmt.Errorf("topology contend_bytes cannot be negative")
	}
	if t.ContendBytes > 0 && t.SharedBufferBytes == 0 {
		return fmt.Errorf("topology contend_bytes requires shared_buffer_bytes (contention lives in the shared memory)")
	}
	if t.Clos != nil {
		if t.CoreLinkGbps > 0 {
			return fmt.Errorf("topology.core_link_gbps is the dumbbell inter-ToR rate; with topology.clos set clos.spine_link_gbps instead")
		}
		if err := t.Clos.validate(); err != nil {
			return err
		}
	}
	return nil
}

// checkRate checks a line rate in Gbps: omitted (0), or from 0.1 to 10,000,
// so the compile's base-RTT and BDP arithmetic stays exact in int64 (below
// 1 bps a rate truncates to 0; rates 10^6 apart overflow the BDP a
// guardrail is sized from).
func checkRate(field string, gbps float64) error {
	if gbps != 0 && !(gbps >= 0.1 && gbps <= 10_000) {
		return fmt.Errorf("%s = %v: want a positive rate from 0.1 to 10000 Gbps", field, gbps)
	}
	return nil
}

func (c Clos) validate() error {
	if c.Racks < 2 {
		return fmt.Errorf("topology.clos.racks = %d: a fabric needs at least 2 racks (drop the clos block for a single-rack dumbbell)", c.Racks)
	}
	if c.HostsPerRack < 2 {
		return fmt.Errorf("topology.clos.hosts_per_rack = %d: need at least 2 (the aggregator plus one worker slot)", c.HostsPerRack)
	}
	if c.Spines < 0 {
		return fmt.Errorf("topology.clos.spines = %d: cannot be negative (omit for the 2-spine default)", c.Spines)
	}
	if err := checkRate("topology.clos.spine_link_gbps", c.SpineLinkGbps); err != nil {
		return err
	}
	if c.Oversubscription < 0 || math.IsNaN(c.Oversubscription) || math.IsInf(c.Oversubscription, 0) {
		return fmt.Errorf("topology.clos.oversubscription = %v: want a positive factor", c.Oversubscription)
	}
	if c.SpineLinkGbps > 0 && c.Oversubscription > 0 {
		return fmt.Errorf("topology.clos.spine_link_gbps and topology.clos.oversubscription both set; they determine each other, pick one")
	}
	if !KnownPlacement(c.Placement) {
		return fmt.Errorf("topology.clos.placement %q is not one of %s (or omit for cross-rack)",
			c.Placement, strings.Join(Placements, ", "))
	}
	if c.Aggregators < 0 {
		return fmt.Errorf("topology.clos.aggregators = %d: cannot be negative (omit for the single aggregator at rack 0)", c.Aggregators)
	}
	return nil
}

func (c CC) validate() error {
	if c.Algorithm != "" && !KnownCC(c.Algorithm) {
		return fmt.Errorf("cc.algorithm %q is not one of %s", c.Algorithm, strings.Join(CCNames, ", "))
	}
	if c.G < 0 || c.G > 1 {
		return fmt.Errorf("cc.g = %v: DCTCP's gain must be in (0, 1]", c.G)
	}
	if c.InitialWindowPkts < 0 {
		return fmt.Errorf("cc.initial_window_pkts cannot be negative")
	}
	return nil
}

func (t Transport) validate() error {
	if t.MinRTOMS < 0 || math.IsNaN(t.MinRTOMS) || math.IsInf(t.MinRTOMS, 0) {
		return fmt.Errorf("transport.min_rto_ms = %v: want a positive timeout", t.MinRTOMS)
	}
	if t.AckEvery < 0 {
		return fmt.Errorf("transport.ack_every cannot be negative")
	}
	return nil
}

func (n Notification) validate() error {
	if n.WindowUS < 0 || math.IsNaN(n.WindowUS) || math.IsInf(n.WindowUS, 0) {
		return fmt.Errorf("notification.window_us = %v: want a positive window (or omit for the 5 us default)", n.WindowUS)
	}
	if n.SlopePackets < 0 || n.BurstArrivals < 0 {
		return fmt.Errorf("notification slope_packets (%d) and burst_arrivals (%d) cannot be negative", n.SlopePackets, n.BurstArrivals)
	}
	if n.CooldownUS < 0 || math.IsNaN(n.CooldownUS) || math.IsInf(n.CooldownUS, 0) {
		return fmt.Errorf("notification.cooldown_us = %v: want a positive cooldown (or omit for the 50 us default)", n.CooldownUS)
	}
	if n.Backoff < 0 || n.Backoff >= 1 || math.IsNaN(n.Backoff) {
		return fmt.Errorf("notification.backoff = %v: the multiplicative factor lives in (0, 1) (or omit for 0.5)", n.Backoff)
	}
	if n.HoldAcks < 0 {
		return fmt.Errorf("notification.hold_acks cannot be negative")
	}
	if n.MinPorts < 0 {
		return fmt.Errorf("notification.min_ports cannot be negative")
	}
	if n.CoordWindowUS < 0 || math.IsNaN(n.CoordWindowUS) || math.IsInf(n.CoordWindowUS, 0) {
		return fmt.Errorf("notification.coord_window_us = %v: want a positive window (or omit for the 20 us default)", n.CoordWindowUS)
	}
	if n.FlowHorizonUS < 0 || math.IsNaN(n.FlowHorizonUS) || math.IsInf(n.FlowHorizonUS, 0) {
		return fmt.Errorf("notification.flow_horizon_us = %v: want a positive horizon (or omit for the 100 us default)", n.FlowHorizonUS)
	}
	return nil
}

func (sw Sweep) validate() error {
	kind, ok := Axes[sw.Axis]
	if !ok {
		names := make([]string, 0, len(Axes))
		for n := range Axes {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("sweep.axis %q is not a known axis; choose one of %s", sw.Axis, strings.Join(names, ", "))
	}
	if len(sw.Values) == 0 {
		return fmt.Errorf("sweep.values is empty: a sweep needs at least one %s value for axis %q", kind, sw.Axis)
	}
	if len(sw.Labels) > 0 && len(sw.Labels) != len(sw.Values) {
		return fmt.Errorf("sweep.labels has %d entries for %d values", len(sw.Labels), len(sw.Values))
	}
	for i, v := range sw.Values {
		if v.Kind() != kind {
			return fmt.Errorf("sweep.values[%d] = %s: axis %q takes %s values", i, v.raw, sw.Axis, kind)
		}
		switch sw.Axis {
		case "flows":
			n, _ := v.Number()
			if n <= 0 || n != math.Trunc(n) {
				return fmt.Errorf("sweep.values[%d] = %v: incast degrees are positive integers", i, n)
			}
		case "g":
			g, _ := v.Number()
			if g <= 0 || g > 1 {
				return fmt.Errorf("sweep.values[%d] = %v: DCTCP's gain must be in (0, 1]", i, g)
			}
		case "ecn_threshold_pkts":
			k, _ := v.Number()
			if k <= 0 || k != math.Trunc(k) {
				return fmt.Errorf("sweep.values[%d] = %v: marking thresholds are positive packet counts", i, k)
			}
		case "min_rto_ms":
			rto, _ := v.Number()
			if rto <= 0 {
				return fmt.Errorf("sweep.values[%d] = %v: min RTO must be positive milliseconds", i, rto)
			}
		case "marking_ewma":
			w, _ := v.Number()
			if w < 0 || w >= 1 {
				return fmt.Errorf("sweep.values[%d] = %v: EWMA weights live in [0, 1)", i, w)
			}
		case "cc":
			name, _ := v.Str()
			if !KnownCC(name) {
				return fmt.Errorf("sweep.values[%d] = %q: not a congestion-control name (%s)", i, name, strings.Join(CCNames, ", "))
			}
		case "scheme":
			name, _ := v.Str()
			if !KnownScheme(name) {
				return fmt.Errorf("sweep.values[%d] = %q: schemes are dctcp, dctcp+guardrail, or dctcp+wave<N>", i, name)
			}
		case "placement":
			name, _ := v.Str()
			if name == "" || !KnownPlacement(name) {
				return fmt.Errorf("sweep.values[%d] = %q: placements are %s", i, name, strings.Join(Placements, " or "))
			}
		case "aggregators":
			a, _ := v.Number()
			if a <= 0 || a != math.Trunc(a) {
				return fmt.Errorf("sweep.values[%d] = %v: aggregator counts are positive integers", i, a)
			}
		}
	}
	for i, n := range sw.Flows {
		if n <= 0 {
			return fmt.Errorf("sweep.flows[%d] = %d: incast degrees are positive", i, n)
		}
	}
	return nil
}

// Load reads and validates a spec file. Unknown fields are rejected, so a
// typo'd key fails loudly instead of silently doing nothing.
func Load(path string) (Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	return Parse(b)
}

// Parse decodes and validates a spec from JSON bytes.
func Parse(b []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}
