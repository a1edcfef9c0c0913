// Dctcpmodes: the paper's Figure 5 in miniature — run the same 15 ms
// repeated incast at three flow counts and watch DCTCP pass through its
// three operating modes: healthy oscillation around the marking threshold,
// the 1-MSS degenerate point, and timeout-dominated collapse.
package main

import (
	"fmt"

	"incastlab"
)

func main() {
	// Flow counts straddling this configuration's mode boundaries:
	// healthy below K + BDP (~90), degenerate up to capacity + BDP
	// (~1358), timeouts beyond.
	for _, n := range []int{80, 500, 1400} {
		res := incastlab.RunIncastSim(incastlab.SimConfig{
			Flows:  n,
			Bursts: 6, // enough for steady state; the demo favors speed
		})

		fmt.Printf("=== %d flows ===\n", n)
		fmt.Printf("  BCT %v  queue max %.0f pkts (capacity %d)  spike %.0f\n",
			res.MeanBCT, res.MaxQueue, res.QueueCapacity, res.SpikePackets)
		fmt.Printf("  below-K time %.0f%%  drops %d  timeouts %d\n",
			100*res.FracBelowK, res.Drops, res.Timeouts)

		switch res.Mode() {
		case "3 (timeouts)":
			fmt.Println("  mode 3: overflow drops with 1-MSS windows mean no dup ACKs;")
			fmt.Printf("          recovery waits for the %v min-RTO, so BCT ~ %v.\n",
				200*incastlab.Millisecond, res.MeanBCT)
		case "2 (degenerate)":
			fmt.Printf("  mode 2: all flows pinned at 1 MSS; queue stands at N-BDP = %.0f pkts;\n",
				float64(n-25))
			fmt.Println("          ~every packet is CE-marked, yet nobody can back off further.")
		default:
			fmt.Println("  mode 1: queue oscillates around K; marking comes in phases;")
			fmt.Println("          flows keep multi-packet windows and finish on time.")
		}

		// A terminal-sized queue profile: one row per 500us.
		fmt.Println("  queue profile (# = 40 pkts):")
		step := int(500 * incastlab.Microsecond / incastlab.Time(res.AvgQueue.IntervalNS))
		for i := 0; i < len(res.AvgQueue.Values); i += step {
			v := res.AvgQueue.Values[i]
			nHash := int(v / 40)
			if nHash > 70 {
				nHash = 70
			}
			bar := make([]byte, nHash)
			for j := range bar {
				bar[j] = '#'
			}
			fmt.Printf("  %6.1fms %5.0f %s\n", float64(res.AvgQueue.TimeAt(i))/1e6, v, bar)
		}
		fmt.Println()
	}
}
