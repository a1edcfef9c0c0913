// Quickstart: simulate one incast and read the three health indicators the
// paper's Section 4 analysis is built on — burst completion time, queue
// depth relative to the ECN threshold, and loss recovery events.
package main

import (
	"fmt"

	"incastlab"
)

func main() {
	// 100 senders each deliver an equal share of a 15 ms burst to one
	// receiver over the paper's 10G/100G dumbbell, using DCTCP. Eleven
	// bursts run; the first (slow-start transient) is discarded.
	res := incastlab.RunIncastSim(incastlab.SimConfig{Flows: 100})

	fmt.Printf("incast of %d DCTCP flows, 15ms bursts\n\n", res.Flows)

	// Indicator 1: did the burst complete near its optimum?
	fmt.Printf("burst completion time: %v (optimal 15ms)\n", res.MeanBCT)

	// Indicator 2: where does the queue sit relative to the marking
	// threshold K? A healthy DCTCP oscillates around K; a degenerate one
	// stands at N - BDP because windows cannot shrink below 1 MSS.
	fmt.Printf("queue: max %.0f packets against K=%d (%.0f%% of busy time below K)\n",
		res.MaxQueue, res.ECNThreshold, 100*res.FracBelowK)

	// Indicator 3: did congestion control lose the plot?
	fmt.Printf("loss recovery: %d drops, %d fast retransmits, %d timeouts\n",
		res.Drops, res.FastRetransmits, res.Timeouts)

	switch res.Mode() {
	case "3 (timeouts)":
		fmt.Println("\n=> Mode 3: windows are too small for dup-ACK recovery; RTOs dominate.")
	case "2 (degenerate)":
		fmt.Println("\n=> Mode 2: every flow is pinned at the 1-MSS degenerate point;")
		fmt.Println("   the queue stands at N - BDP and everything is ECN-marked.")
	default:
		fmt.Println("\n=> Mode 1: congestion control is functioning.")
	}
}
