// Package app models the application layer that *causes* incast: the
// partition/aggregate pattern of the paper's introduction, where "a
// coordinator server dispatches up to thousands of sub-tasks to worker
// servers and waits for their replies", and "the roughly synchronized
// responses from the many workers cause congestion in the coordinator's
// ToR switch".
//
// Unlike the workload package's open-loop burst driver, PartitionAggregate
// is a closed-loop application: request packets really travel from the
// coordinator to the workers, workers respond after a processing delay,
// and the query completes when every response has been fully delivered —
// so query completion time (QCT) is the service-level tail-latency metric
// the paper says incast damages.
package app

import (
	"incastlab/internal/cc"
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
	"incastlab/internal/stats"
	"incastlab/internal/tcp"
)

// requestFlowBase offsets request-flow IDs away from response flows.
const requestFlowBase netsim.FlowID = 1 << 20

// PartitionAggregateConfig describes a coordinator fan-out workload; the
// fan-in degree is the number of worker hosts it runs on.
type PartitionAggregateConfig struct {
	// ResponseBytes is each worker's reply size.
	ResponseBytes int64
	// ProcessingJitter delays each worker's reply uniformly in
	// [0, ProcessingJitter] after the request arrives — the paper's model
	// of variations in processing time.
	ProcessingJitter sim.Time
	// Queries is how many queries the coordinator issues.
	Queries int
	// ThinkTime separates a query's completion from the next dispatch
	// (closed loop).
	ThinkTime sim.Time
	// Seed drives the jitter RNG.
	Seed uint64
	// Sender and Receiver tune the transport.
	Sender   tcp.SenderConfig
	Receiver tcp.ReceiverConfig
}

// DefaultPartitionAggregateConfig returns a fan-out with 20 KB responses
// (a ~2 ms aggregate burst at 10 Gbps for 128 workers), 0-100 us
// processing jitter, and 1 ms think time.
func DefaultPartitionAggregateConfig() PartitionAggregateConfig {
	return PartitionAggregateConfig{
		ResponseBytes:    20_000,
		ProcessingJitter: 100 * sim.Microsecond,
		Queries:          10,
		ThinkTime:        sim.Millisecond,
		Seed:             1,
		Sender:           tcp.DefaultSenderConfig(),
		Receiver:         tcp.DefaultReceiverConfig(),
	}
}

// QueryRecord is one completed query.
type QueryRecord struct {
	// Index is the query number, from 0.
	Index int
	// Start is when the coordinator dispatched the requests.
	Start sim.Time
	// End is when the last response byte arrived in order.
	End sim.Time
	// QCT is End - Start.
	QCT sim.Time
}

// PartitionAggregate wires the closed-loop application over given hosts:
// the coordinator and one worker host per worker. Construct it, run the
// engine, then read Queries().
type PartitionAggregate struct {
	cfg     PartitionAggregateConfig
	eng     *sim.Engine
	coord   *netsim.Host
	workers []*netsim.Host
	rng     interface{ Int64N(int64) int64 }

	senders   []*tcp.Sender   // worker -> coordinator response streams
	receivers []*tcp.Receiver // coordinator-side response receivers

	// expected[w] is the response cursor worker w must reach for the
	// current query to count it delivered.
	expected []int64
	pending  int // responses outstanding in the current query

	current  int
	start    sim.Time
	records  []QueryRecord
	finished bool
}

// NewPartitionAggregate builds the application over eng, with coordinator
// fanning out to workers. algFactory supplies congestion control per
// worker flow.
func NewPartitionAggregate(eng *sim.Engine, coordinator *netsim.Host, workers []*netsim.Host,
	cfg PartitionAggregateConfig, algFactory func(worker int) cc.Algorithm) *PartitionAggregate {
	if len(workers) == 0 {
		panic("app: need at least one worker")
	}
	if cfg.ResponseBytes <= 0 {
		panic("app: response size must be positive")
	}
	if cfg.Queries <= 0 {
		panic("app: need at least one query")
	}

	pa := &PartitionAggregate{
		cfg:      cfg,
		eng:      eng,
		coord:    coordinator,
		workers:  workers,
		rng:      sim.NewRand(cfg.Seed),
		expected: make([]int64, len(workers)),
	}

	coordHub := tcp.NewHub(coordinator)
	pa.senders = make([]*tcp.Sender, len(workers))
	pa.receivers = make([]*tcp.Receiver, len(workers))
	for w, worker := range workers {
		respFlow := netsim.FlowID(w + 1)
		workerHub := tcp.NewHub(worker)
		pa.senders[w] = tcp.NewSender(eng, workerHub, respFlow,
			coordinator.ID(), algFactory(w), cfg.Sender)
		pa.receivers[w] = tcp.NewReceiver(eng, coordHub, respFlow, worker.ID(), cfg.Receiver)
		pa.receivers[w].SetOnProgress(func(rcvNxt int64) { pa.onProgress(w, rcvNxt) })

		// The worker's request handler: a request packet triggers the
		// response after processing jitter.
		workerHub.Register(requestFlowBase+netsim.FlowID(w), netsim.PacketHandlerFunc(
			func(p *netsim.Packet) {
				if p.IsAck {
					return
				}
				delay := sim.Time(0)
				if cfg.ProcessingJitter > 0 {
					delay = sim.Time(pa.rng.Int64N(int64(cfg.ProcessingJitter) + 1))
				}
				eng.ScheduleAfter(delay, func() { pa.senders[w].AddDemand(cfg.ResponseBytes) })
			}))
	}

	eng.Schedule(0, pa.dispatch)
	return pa
}

// dispatch issues the next query: one small request packet per worker.
func (pa *PartitionAggregate) dispatch() {
	pa.start = pa.eng.Now()
	pa.pending = len(pa.workers)
	for w, worker := range pa.workers {
		pa.expected[w] += pa.cfg.ResponseBytes
		p := pa.coord.AllocPacket()
		p.Flow = requestFlowBase + netsim.FlowID(w)
		p.Src = pa.coord.ID()
		p.Dst = worker.ID()
		p.Len = 64 // small RPC request
		p.SentAt = pa.eng.Now()
		pa.coord.Send(p)
	}
}

// onProgress checks whether worker w's response stream reached the cursor
// for the current query, and closes out the query when all have.
func (pa *PartitionAggregate) onProgress(w int, rcvNxt int64) {
	if pa.finished || rcvNxt != pa.expected[w] {
		return
	}
	pa.pending--
	if pa.pending > 0 {
		return
	}
	now := pa.eng.Now()
	pa.records = append(pa.records, QueryRecord{
		Index: pa.current,
		Start: pa.start,
		End:   now,
		QCT:   now - pa.start,
	})
	pa.current++
	if pa.current >= pa.cfg.Queries {
		pa.finished = true
		return
	}
	pa.eng.ScheduleAfter(pa.cfg.ThinkTime, pa.dispatch)
}

// Senders returns the worker response senders.
func (pa *PartitionAggregate) Senders() []*tcp.Sender { return pa.senders }

// Done reports whether all queries completed.
func (pa *PartitionAggregate) Done() bool { return pa.finished }

// Queries returns the completed query records.
func (pa *PartitionAggregate) Queries() []QueryRecord { return pa.records }

// QCTStats summarizes query completion times in milliseconds.
func (pa *PartitionAggregate) QCTStats() stats.Summary {
	vals := make([]float64, 0, len(pa.records))
	for _, r := range pa.records {
		vals = append(vals, r.QCT.Milliseconds())
	}
	return stats.Summarize(vals)
}
