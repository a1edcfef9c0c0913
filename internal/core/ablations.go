package core

import (
	"fmt"

	"incastlab/internal/scenario"
	"incastlab/internal/trace"
)

// The ten ablations are declarative scenario specs compiled and run by the
// generic machinery in scenario.go — each one is pure data: a workload, an
// optional topology/CC/transport base, and one swept axis. The exported
// Ablation* functions below are thin wrappers kept for direct library use;
// cmd/figures reaches the same specs through the registry.

// ablationRow renders a run's shared metric columns.
func ablationRow(m *SimResult) []string {
	return []string{
		trace.Float(m.BusyAvgQueue()), trace.Float(m.MaxQueue), trace.Float(m.SpikePackets),
		trace.Float(m.MeanBCT.Milliseconds()),
		fmt.Sprint(m.Timeouts), fmt.Sprint(m.Drops),
		trace.Float(markRate(m)),
	}
}

// markRate returns the fraction of sent packets that were CE-marked.
func markRate(m *SimResult) float64 {
	if m.SentPackets == 0 {
		return 0
	}
	return float64(m.Marks) / float64(m.SentPackets)
}

var ablationHeader = []string{"queue_busy_avg_pkts", "queue_max_pkts", "spike_pkts",
	"mean_bct_ms", "timeouts", "drops", "mark_rate"}

// ablationGSpec sweeps DCTCP's EWMA gain g in the healthy mode: small g
// reacts slowly (smoother but sluggish alpha), large g overreacts.
var ablationGSpec = scenario.Spec{
	Name:     "ablation_g",
	Title:    "Ablation: ablation_g",
	Notes:    "The paper tunes g = 1/16 (Section 2); larger gains react faster but oscillate harder.",
	Workload: scenario.Workload{Flows: 80},
	Sweep:    scenario.Sweep{Axis: "g", Values: scenario.Nums(1.0/2, 1.0/4, 1.0/16, 1.0/64)},
}

// ablationECNThresholdSpec sweeps the switch marking threshold K: small K
// marks early (short queues, risk of underutilization with bursty hosts —
// why the production deployment uses a higher threshold than the DCTCP
// paper recommends), large K tolerates deep standing queues.
var ablationECNThresholdSpec = scenario.Spec{
	Name:     "ablation_ecn_threshold",
	Title:    "Ablation: ablation_ecn_threshold",
	Notes:    "Queue depth tracks K: DCTCP parks the queue near the threshold it is given.",
	Workload: scenario.Workload{Flows: 80},
	Sweep:    scenario.Sweep{Axis: "ecn_threshold_pkts", Values: scenario.Nums(20, 65, 200)},
}

// ablationSharedBufferSpec compares the paper's dedicated 1333-packet queue
// against a shared switch buffer under rack-level contention at 1000
// flows: sharing shrinks the effective capacity and converts the lossless
// degenerate mode into the timeout mode (the paper's Section 3/4.1.1
// explanation for production losses at flow counts the dedicated-queue
// simulation survives).
var ablationSharedBufferSpec = scenario.Spec{
	Name:     "ablation_shared_buffer",
	Title:    "Ablation: ablation_shared_buffer",
	Notes:    "Rack-level contention on shared memory causes loss at flow counts a dedicated queue absorbs.",
	Workload: scenario.Workload{Flows: 1000},
	Topology: &scenario.Topology{
		SharedBufferBytes: 2 * 1000 * 1000,
		SharedBufferAlpha: 1,
		ContendBytes:      700 * 1000,
	},
	Sweep: scenario.Sweep{
		Axis:   "shared_buffer",
		Column: "buffer",
		Values: scenario.Flags(false, true),
		Labels: []string{"dedicated_2MB", "shared_2MB_contended"},
	},
}

// ablationDelayedACKsSpec compares immediate ACKs (the paper's
// configuration) against delayed ACKs, which the paper disables "because
// it exacerbates burstiness and masks the impact of DCTCP's congestion
// control".
var ablationDelayedACKsSpec = scenario.Spec{
	Name:     "ablation_delayed_acks",
	Title:    "Ablation: ablation_delayed_acks",
	Notes:    "Coalesced ACKs release data in larger clumps, deepening the queue excursions.",
	Workload: scenario.Workload{Flows: 80},
	Sweep: scenario.Sweep{
		Axis:   "delayed_acks",
		Column: "acks",
		Values: scenario.Flags(false, true),
		Labels: []string{"immediate", "delayed"},
	},
}

// ablationGuardrailSpec evaluates the Section 5 proposals: DCTCP alone,
// DCTCP clamped by the predicted-incast-degree guardrail (5.1), and DCTCP
// under receiver-driven wave scheduling (5.2), at a healthy and a
// degenerate flow count.
var ablationGuardrailSpec = scenario.Spec{
	Name:  "ablation_guardrail",
	Title: "Ablation: ablation_guardrail",
	Notes: "Guardrails cap ramp-up at the predicted fair share, removing the straggler spike;\n" +
		"wave scheduling turns one large incast into a series of healthy small ones.",
	Sweep: scenario.Sweep{
		Axis:   "scheme",
		Flows:  []int{80, 500},
		Values: scenario.Strs("dctcp", "dctcp+guardrail", "dctcp+wave64"),
	},
}

// ablationCCASpec compares congestion-control algorithms under the same
// healthy-mode incast: loss-based Reno (ECN-blind), DCTCP, and the
// delay-based Swift-like pacer.
var ablationCCASpec = scenario.Spec{
	Name:  "ablation_cca",
	Title: "Ablation: ablation_cca",
	Notes: "Reno ignores marks and fills the queue until it drops; DCTCP parks near K.\n" +
		"Swift's sub-MSS pacing keeps the steady queue shallow but, exactly as the paper's\n" +
		"Section 5.2 argues, infrequent probing starves it of feedback on millisecond bursts:\n" +
		"completion times blow up. Pacing helps long incasts, not these.",
	Workload: scenario.Workload{Flows: 80},
	Sweep: scenario.Sweep{
		Axis:   "cc",
		Column: "cca",
		Values: scenario.Strs("reno", "dctcp", "d2tcp-tight", "swift"),
	},
}

// ablationMinRTOSpec validates the Mode 3 mechanism directly: with windows
// at one MSS, dup-ACK recovery is impossible and burst completion is bound
// by the minimum retransmission timeout. Sweeping min-RTO at a flow count
// in steady overflow should move the BCT nearly one-for-one.
var ablationMinRTOSpec = scenario.Spec{
	Name:     "ablation_min_rto",
	Title:    "Ablation: ablation_min_rto",
	Notes:    "Mode 3 BCT tracks the minimum RTO: losses at 1-MSS windows are only ever repaired by timeouts.",
	Workload: scenario.Workload{Flows: 1400},
	Sweep:    scenario.Sweep{Axis: "min_rto_ms", Values: scenario.Nums(10, 50, 200)},
}

// ablationIdleRestartSpec contrasts the paper's persistent connections
// (window state carried across bursts — the precondition for Section 4.3's
// straggler divergence) with RFC 2861/5681 congestion window validation,
// which clamps an idle connection's window to min(IW, cwnd) before it
// transmits again. The result is a negative one worth having on paper:
// during incast, per-flow windows already sit at or below the initial
// window, so standards-track idle restarts change nothing — straggler
// divergence survives them. Taming it requires clamping *below* IW, which
// is exactly what the Section 5.1 guardrail does.
var ablationIdleRestartSpec = scenario.Spec{
	Name:  "ablation_idle_restart",
	Title: "Ablation: ablation_idle_restart",
	Notes: "RFC 2861/5681 restarts clamp to min(IW, cwnd); incast windows are already below IW,\n" +
		"so idle restarts are a no-op here. Straggler divergence survives standards-track cwnd\n" +
		"validation — only a sub-IW clamp (the Section 5.1 guardrail) removes it.",
	Workload: scenario.Workload{Flows: 80},
	Sweep: scenario.Sweep{
		Axis:   "idle_restart",
		Column: "windows",
		Values: scenario.Flags(false, true),
		Labels: []string{"persistent", "idle_restart"},
	},
}

// ablationReceiverWindowSpec evaluates ICTCP, the receiver-driven scheme
// the paper groups with the O(50)-flow designs: the receiving host steers
// each connection's advertised window. At moderate degree it rescues
// ECN-blind Reno from overrunning the queue; at hundreds of flows its
// 2-MSS window floor pins 2N packets in flight and the scheme degenerates
// exactly like sender-side windows do — the paper's argument for why
// receiver windows alone do not scale to modern incast degrees.
var ablationReceiverWindowSpec = scenario.Spec{
	Name:  "ablation_receiver_window",
	Title: "Ablation: ablation_receiver_window",
	Notes: "ICTCP tames Reno's queue at 40 flows; at 400 flows the 2-MSS receive-window floor\n" +
		"pins 2N packets in flight and the receiver-driven scheme degenerates too.",
	CC: &scenario.CC{Algorithm: "reno"},
	Sweep: scenario.Sweep{
		Axis:   "ictcp",
		Column: "scheme",
		Flows:  []int{40, 400},
		Values: scenario.Flags(false, true),
		Labels: []string{"reno", "reno+ictcp"},
	},
}

// ablationMarkingSpec contrasts DCTCP's instantaneous-queue marking (what
// the paper's switches do) with classic RED-style averaged marking. The
// DCTCP paper argues instantaneous marking is essential for fast feedback;
// with an EWMA, millisecond bursts come and go faster than the average
// moves, so marking lags the congestion and the queue excursions deepen.
var ablationMarkingSpec = scenario.Spec{
	Name:     "ablation_marking",
	Title:    "Ablation: ablation_marking",
	Notes:    "Averaged (RED-style) marking lags millisecond bursts; instantaneous marking is what keeps DCTCP responsive.",
	Workload: scenario.Workload{Flows: 80},
	Sweep: scenario.Sweep{
		Axis:   "marking_ewma",
		Column: "marking",
		Values: scenario.Nums(0, 0.002),
		Labels: []string{"instantaneous", "ewma_w=0.002"},
	},
}

// AblationSpecs returns the built-in ablation specs in presentation order —
// the same data the registry entries run, exposed so tools (and users
// looking for spec-file examples) can inspect or serialize them.
func AblationSpecs() []scenario.Spec {
	out := make([]scenario.Spec, len(ablations))
	for i, a := range ablations {
		out[i] = a.spec
	}
	return out
}

// ablations binds each spec to its registry metadata, in presentation
// order after the paper experiments.
var ablations = []struct {
	ref  string
	spec scenario.Spec
}{
	{"Section 2 (DCTCP gain g = 1/16)", ablationGSpec},
	{"Section 2 (marking threshold K)", ablationECNThresholdSpec},
	{"Sections 3, 4.1.1 (shared-buffer contention)", ablationSharedBufferSpec},
	{"Section 4 setup (delayed ACKs disabled)", ablationDelayedACKsSpec},
	{"Section 5 (guardrail, wave scheduling)", ablationGuardrailSpec},
	{"Section 5.2 (congestion-control alternatives)", ablationCCASpec},
	{"Section 4.2 (Mode 3 timeout floor)", ablationMinRTOSpec},
	{"Section 4.3 (persistent connections)", ablationIdleRestartSpec},
	{"Section 5.2 (receiver-driven windows)", ablationReceiverWindowSpec},
	{"Section 2 (instantaneous marking)", ablationMarkingSpec},
}

func init() {
	for i, a := range ablations {
		spec := a.spec
		register(90+10*i, Experiment{
			Name:     spec.Name,
			Kind:     KindAblation,
			PaperRef: a.ref,
			Run:      func(o Options) Result { return mustScenario(o, spec) },
		})
	}
}

// AblationG sweeps DCTCP's EWMA gain g; see ablationGSpec.
func AblationG(opt Options) *TableResult { return mustScenario(opt, ablationGSpec) }

// AblationECNThreshold sweeps the marking threshold K; see
// ablationECNThresholdSpec.
func AblationECNThreshold(opt Options) *TableResult {
	return mustScenario(opt, ablationECNThresholdSpec)
}

// AblationSharedBuffer compares dedicated and shared switch buffers; see
// ablationSharedBufferSpec.
func AblationSharedBuffer(opt Options) *TableResult {
	return mustScenario(opt, ablationSharedBufferSpec)
}

// AblationDelayedACKs compares immediate and coalesced ACKs; see
// ablationDelayedACKsSpec.
func AblationDelayedACKs(opt Options) *TableResult {
	return mustScenario(opt, ablationDelayedACKsSpec)
}

// AblationGuardrail evaluates the Section 5 proposals; see
// ablationGuardrailSpec.
func AblationGuardrail(opt Options) *TableResult {
	return mustScenario(opt, ablationGuardrailSpec)
}

// AblationCCA compares congestion-control algorithms; see ablationCCASpec.
func AblationCCA(opt Options) *TableResult { return mustScenario(opt, ablationCCASpec) }

// AblationMinRTO sweeps the minimum retransmission timeout; see
// ablationMinRTOSpec.
func AblationMinRTO(opt Options) *TableResult { return mustScenario(opt, ablationMinRTOSpec) }

// AblationIdleRestart contrasts persistent windows with RFC 2861 restarts;
// see ablationIdleRestartSpec.
func AblationIdleRestart(opt Options) *TableResult {
	return mustScenario(opt, ablationIdleRestartSpec)
}

// AblationReceiverWindow evaluates receiver-driven (ICTCP) windows; see
// ablationReceiverWindowSpec.
func AblationReceiverWindow(opt Options) *TableResult {
	return mustScenario(opt, ablationReceiverWindowSpec)
}

// AblationMarkingDiscipline contrasts instantaneous and EWMA marking; see
// ablationMarkingSpec.
func AblationMarkingDiscipline(opt Options) *TableResult {
	return mustScenario(opt, ablationMarkingSpec)
}
