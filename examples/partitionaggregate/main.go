// Partitionaggregate: the application pattern that causes incast, as a
// closed loop. A coordinator fans a query out to N workers; their roughly
// synchronized responses converge on the coordinator's ToR downlink. The
// example holds the total response volume constant and sweeps the fan-in
// degree, showing the paper's service-level story: the median query is
// bandwidth-bound and immune, while the tail is destroyed by incast loss.
package main

import (
	"fmt"

	"incastlab"
)

func main() {
	fmt.Println("partition/aggregate: 4 MB of responses per query, fan-in sweep")
	fmt.Printf("%8s %12s %12s %12s %10s\n", "workers", "QCT p50", "QCT p99", "QCT max", "timeouts")

	for _, workers := range []int{20, 80, 400, 1600} {
		res := incastlab.RunPartitionAggregate(workers, incastlab.PartitionAggregateConfig{
			ResponseBytes:    4_000_000 / int64(workers),
			ProcessingJitter: 100 * incastlab.Microsecond,
			Queries:          10,
			ThinkTime:        incastlab.Millisecond,
			Seed:             1,
		})
		s := res.QCT
		fmt.Printf("%8d %10.2fms %10.2fms %10.2fms %10d\n",
			workers, s.P50, s.P99, s.Max, res.Timeouts)
	}

	fmt.Println("\nthe bandwidth bound is ~3.2 ms for every row; everything beyond it is")
	fmt.Println("incast queueing, and the max column shows RTO-bound collapse at high fan-in.")
}
