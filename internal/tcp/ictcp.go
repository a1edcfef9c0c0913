package tcp

import (
	"incastlab/internal/netsim"
	"incastlab/internal/sim"
)

// ICTCPConfig tunes the receiver-side incast controller.
type ICTCPConfig struct {
	// LineRateBps is the receiving NIC's rate (the resource being shared).
	LineRateBps int64
	// BaseRTT sizes the control slot (2 x RTT per the ICTCP paper).
	BaseRTT sim.Time
	// MinWindow is the per-connection receive window floor (ICTCP uses
	// 2 MSS).
	MinWindow int64
	// InitialWindow is each managed connection's starting window.
	InitialWindow int64
	// Gamma1 and Gamma2 are the increase/decrease thresholds on the
	// fraction of expected throughput a connection fails to achieve
	// (ICTCP: 0.1 and 0.5).
	Gamma1, Gamma2 float64
	// Headroom is the fraction of line rate ICTCP is willing to allocate
	// before it stops granting increases (ICTCP: 0.9).
	Headroom float64
	// DecreaseAfter is how many consecutive over-provisioned slots trigger
	// a window decrease (ICTCP: 3).
	DecreaseAfter int
}

// DefaultICTCPConfig returns the ICTCP paper's parameters for a NIC.
func DefaultICTCPConfig(lineRateBps int64, baseRTT sim.Time) ICTCPConfig {
	return ICTCPConfig{
		LineRateBps:   lineRateBps,
		BaseRTT:       baseRTT,
		MinWindow:     2 * netsim.MSS,
		InitialWindow: 2 * netsim.MSS,
		Gamma1:        0.1,
		Gamma2:        0.5,
		Headroom:      0.9,
		DecreaseAfter: 3,
	}
}

// ICTCP is a receiver-side incast congestion controller in the spirit of
// Wu et al. (CoNEXT 2010): the receiving host steers each connection's
// advertised receive window so that the sum of expected throughputs stays
// within the NIC's capacity. The paper under reproduction cites ICTCP as
// one of the O(50)-flow designs: because the window cannot drop below
// 2 MSS, N connections pin at least 2N packets in flight, and the scheme
// stops helping once N x 2 MSS exceeds the pipe — the same degenerate
// arithmetic DCTCP hits one MSS later.
//
// Between bursts nothing arrives for most of each interval, and once every
// window sits at its floor such a slot changes nothing but each
// connection's over-provisioned count. The controller then counts the
// slot instead of walking its connections, and applies the count at the
// next slot that does work (or at the next Manage), exactly as the eager
// slots would have. The slot events keep firing either way, so the
// engine's event count and tie order do not depend on this shortcut.
type ICTCP struct {
	eng   *sim.Engine
	cfg   ICTCPConfig
	conns []*ictcpConn

	// slotFn is the control-slot callback, bound once at construction so
	// the periodic rescheduling allocates no closure per slot.
	slotFn func()

	// progressed is set by managed receivers whenever their in-order
	// cursor advances, and cleared by every slot that does work.
	progressed bool
	// floored reports that every window is at its floor (wnd-MSS <
	// MinWindow), so no decrease can fire.
	floored bool
	// idle counts the slots skipped since the last slot that did work.
	idle int
}

type ictcpConn struct {
	r        *Receiver
	wnd      int64
	lastRcv  int64
	overCnt  int
	measured float64 // bytes delivered in the last slot
}

// NewICTCP creates the controller and starts its control loop on eng.
func NewICTCP(eng *sim.Engine, cfg ICTCPConfig) *ICTCP {
	if cfg.LineRateBps <= 0 || cfg.BaseRTT <= 0 {
		panic("tcp: ictcp needs a line rate and base RTT")
	}
	if cfg.MinWindow < netsim.MSS {
		cfg.MinWindow = netsim.MSS
	}
	if cfg.InitialWindow < cfg.MinWindow {
		cfg.InitialWindow = cfg.MinWindow
	}
	if cfg.Gamma1 <= 0 || cfg.Gamma2 <= cfg.Gamma1 {
		panic("tcp: ictcp thresholds must satisfy 0 < gamma1 < gamma2")
	}
	if cfg.Headroom <= 0 || cfg.Headroom > 1 {
		panic("tcp: ictcp headroom must be in (0,1]")
	}
	if cfg.DecreaseAfter <= 0 {
		cfg.DecreaseAfter = 3
	}
	c := &ICTCP{eng: eng, cfg: cfg, floored: true}
	c.slotFn = func() {
		c.adjust()
		c.scheduleSlot()
	}
	c.scheduleSlot()
	return c
}

// Manage registers a connection's receiver under the controller and sets
// its initial advertised window. A receiver reports its progress to the
// last controller that managed it, so it must be managed by one only.
func (c *ICTCP) Manage(r *Receiver) {
	// The skipped slots belong to the connections managed before them.
	c.settleIdle()
	conn := &ictcpConn{r: r, wnd: c.cfg.InitialWindow, lastRcv: r.RcvNxt()}
	r.SetAdvertisedWindow(conn.wnd)
	r.ictcp = c
	c.conns = append(c.conns, conn)
	c.floored = c.floored && c.atFloor(conn)
}

// Window returns the current advertised window of managed connection i,
// for instrumentation.
func (c *ICTCP) Window(i int) int64 { return c.conns[i].wnd }

// slot length is 2 x RTT, the ICTCP control interval.
func (c *ICTCP) slot() sim.Time { return 2 * c.cfg.BaseRTT }

func (c *ICTCP) scheduleSlot() {
	c.eng.ScheduleAfter(c.slot(), c.slotFn)
}

// atFloor reports whether conn's window can shrink no further.
func (c *ICTCP) atFloor(conn *ictcpConn) bool { return conn.wnd-netsim.MSS < c.cfg.MinWindow }

// settleIdle applies the skipped slots to every connection. In each, the
// connection delivered nothing, so its shortfall was 1 >= Gamma2: its
// over-provisioned count rose by one and, on reaching DecreaseAfter,
// reset to zero without shrinking a window already at its floor.
func (c *ICTCP) settleIdle() {
	if c.idle == 0 {
		return
	}
	for _, conn := range c.conns {
		conn.overCnt = (conn.overCnt + c.idle) % c.cfg.DecreaseAfter
	}
	c.idle = 0
}

// adjust runs one control slot: measure per-connection goodput, compute
// available bandwidth, and steer windows. A slot in which nothing arrived
// and no window can shrink is only counted (see ICTCP).
func (c *ICTCP) adjust() {
	if !c.progressed && c.floored && c.cfg.Gamma2 <= 1 {
		c.idle++
		return
	}
	c.progressed = false
	c.settleIdle()
	slotSec := c.slot().Seconds()
	var totalBps float64
	for _, conn := range c.conns {
		delivered := conn.r.RcvNxt() - conn.lastRcv
		conn.lastRcv = conn.r.RcvNxt()
		conn.measured = float64(delivered)
		totalBps += float64(delivered) * 8 / slotSec
	}
	// Available bandwidth after headroom.
	availBps := c.cfg.Headroom*float64(c.cfg.LineRateBps) - totalBps
	rttSec := c.cfg.BaseRTT.Seconds()

	byteRate := float64(c.cfg.LineRateBps) / 8
	c.floored = true
	for _, conn := range c.conns {
		measuredBps := conn.measured * 8 / slotSec
		// Expected throughput of a window-limited connection over an
		// otherwise empty path: the window turns around once per RTT plus
		// its own serialization time at the line rate. It is positive, as
		// every window is at least MinWindow >= MSS.
		turnaround := rttSec + float64(conn.wnd)/byteRate
		expectedBps := float64(conn.wnd) * 8 / turnaround
		diff := (expectedBps - measuredBps) / expectedBps
		switch {
		case diff <= c.cfg.Gamma1:
			// The connection uses what it is given; grant more if the NIC
			// has spare capacity for the increment.
			incBps := float64(netsim.MSS) * 8 / rttSec
			if availBps >= incBps {
				conn.wnd += netsim.MSS
				conn.r.SetAdvertisedWindow(conn.wnd)
				availBps -= incBps
			}
			conn.overCnt = 0
		case diff >= c.cfg.Gamma2:
			// Persistently over-provisioned: shrink after DecreaseAfter
			// consecutive slots.
			conn.overCnt++
			if conn.overCnt >= c.cfg.DecreaseAfter {
				conn.overCnt = 0
				if !c.atFloor(conn) {
					conn.wnd -= netsim.MSS
					conn.r.SetAdvertisedWindow(conn.wnd)
				}
			}
		default:
			conn.overCnt = 0
		}
		c.floored = c.floored && c.atFloor(conn)
	}
}
