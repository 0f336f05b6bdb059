package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/oracle"
	"repro/internal/server"
	"repro/internal/server/client"
	v3 "repro/internal/server/protocol/v3"
	"repro/internal/workload"
)

// rtr_replay: an in-process jrouted with default options, two v3 client
// sessions over loopback TCP. Each session swaps between replaySets fixed
// fan-out working sets of BENCH_3's shape: route all of one set, unroute
// all, go on to the next. One set alone is too few nets for the figures
// to stop depending on the seed.
const (
	replayRows     = 32
	replayCols     = 48
	replaySessions = 2
	replaySets     = 8
	replayNets     = 24
	replayFan      = 3
	replayRadius   = 14

	// rttTolerance bounds the share of the client RTT that the encode,
	// turnaround and decode spans may leave uncovered (the median over
	// ops). What they leave out is the client's read of the response
	// payload after its header has arrived.
	rttTolerance = 0.05
)

// timedConn is the traced run's transport: it stamps the start of the
// first and last Write and the end of the first and last Read of each
// round trip, and counts the bytes both ways.
type timedConn struct {
	net.Conn
	sent                  int // Writes since the connection opened
	writes, reads         int // since reset
	firstWrite, lastWrite time.Time
	firstRead, lastRead   time.Time
	bytes                 int
}

func (c *timedConn) reset() { c.writes, c.reads, c.bytes = 0, 0, 0 }

func (c *timedConn) Write(p []byte) (int, error) {
	t := time.Now()
	if c.writes == 0 {
		c.firstWrite = t
	}
	c.lastWrite = t
	c.writes++
	c.sent++
	n, err := c.Conn.Write(p)
	c.bytes += n
	return n, err
}

func (c *timedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	t := time.Now()
	if c.reads == 0 {
		c.firstRead = t
	}
	c.lastRead = t
	c.reads++
	c.bytes += n
	return n, err
}

// replayNet is one working-set net with its wire endpoints.
type replayNet struct {
	net   workload.FanNet
	src   server.EndPointMsg
	sinks []server.EndPointMsg
}

// replaySession is one client goroutine's state.
type replaySession struct {
	s  *client.Session
	tc *timedConn // nil in the untraced run
	// helloWrites is tc.sent after the JSON hello; every later Write is
	// one v3 request frame.
	helloWrites int
	sets        [][]replayNet
	up          []bool // nets of the current set that routeAll routed

	lat                     []time.Duration
	encode, turnaround, dec []time.Duration
	residual                []float64 // uncovered share of each RTT
	bytes, attempts, failed int
	unroutes                int
}

func runReplay(cfg config) (*report, error) {
	ctx := context.Background()
	start := time.Now()
	rep := &report{Params: map[string]any{
		"rows": replayRows, "cols": replayCols, "sessions": replaySessions,
		"sets": replaySets, "nets": replayNets, "fan": replayFan, "radius": replayRadius,
		"protocol": "v3", "callers": replaySessions,
	}}
	layers := map[string]float64{}
	srv := server.NewServer()
	for i := 0; i < replaySessions; i++ {
		t0 := time.Now()
		if err := srv.AddDevice(fmt.Sprintf("dev%d", i), "virtex", replayRows, replayCols); err != nil {
			return nil, err
		}
		if i == 0 {
			layers["device.new_ms"] = ms(time.Since(t0))
		}
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx) // the run's verdict is already decided
	}()
	sess := make([]*replaySession, replaySessions)
	for i := range sess {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		rs := &replaySession{}
		var c *client.Client
		if cfg.traced {
			rs.tc = &timedConn{Conn: conn}
			c = client.NewClient(rs.tc)
		} else {
			c = client.NewClient(conn)
		}
		defer c.Close()
		if err := c.Hello(ctx); err != nil {
			return nil, err
		}
		if !c.Binary() {
			return nil, fmt.Errorf("rtr_replay: connection did not negotiate v3")
		}
		if rs.tc != nil {
			rs.helloWrites = rs.tc.sent
		}
		if rs.s, err = c.Session(ctx, fmt.Sprintf("dev%d", i)); err != nil {
			return nil, err
		}
		g := workload.New(cfg.seed*int64(replaySessions)+int64(i), replayRows, replayCols)
		for k := 0; k < replaySets; k++ {
			nets, err := g.FanNets(replayNets, replayFan, replayRadius)
			if err != nil {
				return nil, err
			}
			set := make([]replayNet, len(nets))
			for j, n := range nets {
				set[j] = replayNet{net: n, src: client.Pin(n.Src)}
				for _, p := range n.Sinks {
					set[j].sinks = append(set[j].sinks, client.Pin(p))
				}
			}
			rs.sets = append(rs.sets, set)
		}
		rs.up = make([]bool, replayNets)
		sess[i] = rs
	}
	// Warm-up: the cold round searches every net of every set. The
	// boards with set 0 routed are the reference state.
	for k := 0; k < replaySets; k++ {
		for _, rs := range sess {
			rs.routeAll(ctx, k)
			if rs.failed > 0 {
				return nil, fmt.Errorf("rtr_replay warm-up: %d routes failed", rs.failed)
			}
		}
		if k == 0 {
			if rep.RefHash, err = boardHash(ctx, sess, k); err != nil {
				return nil, err
			}
		}
		for _, rs := range sess {
			if err := rs.unrouteAll(ctx, k); err != nil {
				return nil, err
			}
		}
	}
	rep.SetupS = time.Since(start).Seconds()
	if cfg.setupOnly {
		return rep, nil
	}

	for _, rs := range sess {
		rs.lat = make([]time.Duration, 0, 1<<18)
		rs.attempts, rs.failed, rs.unroutes = 0, 0, 0
	}
	collect()
	st0, err := snapshot(srv, sess)
	if err != nil {
		return nil, err
	}
	rt0 := markRuntime()
	winStart := time.Now()
	deadline := winStart.Add(cfg.window)
	errs := make([]error, len(sess))
	var wg sync.WaitGroup
	for i, rs := range sess {
		wg.Add(1)
		go func(i int, rs *replaySession) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k = (k + 1) % replaySets {
				rs.routeAll(ctx, k)
				if errs[i] = rs.unrouteAll(ctx, k); errs[i] != nil {
					return
				}
			}
		}(i, rs)
	}
	wg.Wait()
	wall := time.Since(winStart)
	rt1 := markRuntime()
	st1, err := snapshot(srv, sess)
	if err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var lat []time.Duration
	var enc, turn, dec []time.Duration
	var resid []float64
	unroutes, wireBytes := 0, 0
	for _, rs := range sess {
		lat = append(lat, rs.lat...)
		enc = append(enc, rs.encode...)
		turn = append(turn, rs.turnaround...)
		dec = append(dec, rs.dec...)
		resid = append(resid, rs.residual...)
		rep.Attempted += rs.attempts
		rep.Failed += rs.failed
		unroutes += rs.unroutes
		wireBytes += rs.bytes
		rs.lat = nil // the gate's round trips are not window ops
	}

	// Correctness gate, outside the window: route every working set once
	// more. Each board must pass the oracle against its set and equal the
	// client mirror built from pushed frames alone; set 0 must match the
	// warm-up bitstreams byte for byte.
	for k := 0; k < replaySets; k++ {
		for _, rs := range sess {
			before := rs.failed
			rs.routeAll(ctx, k)
			if rs.failed > before {
				return nil, fmt.Errorf("rtr_replay gate: %d routes failed", rs.failed-before)
			}
		}
		h, err := boardHash(ctx, sess, k)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			rep.FinalHash = h
		}
		for _, rs := range sess {
			if err := rs.s.VerifyMirror(); err != nil {
				return nil, err
			}
			if err := rs.unrouteAll(ctx, k); err != nil {
				return nil, err
			}
		}
	}

	ops := len(lat)
	w := st1.sub(st0)
	rep.PIPsNet = ratio(w.ripUps, unroutes)
	rep.finish(lat, ops, wall, 0.99)
	if cfg.traced {
		// Fidelity: the wrapper's byte count must equal what the server's
		// wire counters saw (request payloads exclude their v3 header).
		if statsBytes := w.bytesIn + v3.HeaderSize*w.framesIn + w.bytesOut; statsBytes != wireBytes {
			return nil, fmt.Errorf("rtr_replay: trace fidelity: conn wrapper moved %d bytes, statsz wire %d", wireBytes, statsBytes)
		}
		if r := median(resid); r > rttTolerance {
			return nil, fmt.Errorf("rtr_replay: trace fidelity: encode+turnaround+decode leave %.1f%% of the median RTT uncovered (tolerance %.0f%%)",
				100*r, 100*rttTolerance)
		}
		layers["trace.rtt_uncovered_ratio"] = median(resid)
		layers["client.encode_us"] = us(p50(enc))
		layers["client.decode_us"] = us(p50(dec))
		layers["server.turnaround_p50_us"] = us(p50(turn))
		layers["server.turnaround_p99_us"] = us(quantile(turn, 0.99))
		layers["v3.bytes_per_op"] = ratio(wireBytes, ops)
		layers["server.handle_p50_us"] = st1.handleP50
		layers["server.frames_per_op"] = ratio(w.frames, ops)
		layers["server.bytes_shipped_per_op"] = ratio(w.shipped, ops)
		layers["bitstream.dirty_frames_per_op"] = ratio(w.frames, ops)
		lookups := w.hits + w.misses + w.replayFails
		layers["core.cache_hit_ratio"] = ratio(w.hits, lookups)
		layers["core.replay_fail_ratio"] = ratio(w.replayFails, lookups)
		layers["device.pips_cleared_per_op"] = ratio(w.ripUps, ops)
		addRuntime(layers, rt0, rt1, ops)
		rep.Layers = layers
	}
	return rep, nil
}

// routeAll routes working set k; a failed route is counted.
func (rs *replaySession) routeAll(ctx context.Context, k int) {
	for j := range rs.sets[k] {
		rs.up[j] = rs.call(ctx, &rs.sets[k][j], true) == nil
		if !rs.up[j] {
			rs.failed++
		}
	}
}

// unrouteAll unroutes the nets of set k that routeAll routed; each
// unroute must succeed.
func (rs *replaySession) unrouteAll(ctx context.Context, k int) error {
	for j := range rs.sets[k] {
		if !rs.up[j] {
			continue
		}
		n := &rs.sets[k][j]
		if err := rs.call(ctx, n, false); err != nil {
			return fmt.Errorf("rtr_replay: unroute %v: %w", n.net.Src, err)
		}
		rs.unroutes++
	}
	return nil
}

// call times one route or unroute round trip and, in the traced run,
// splits it with the transport's stamps.
func (rs *replaySession) call(ctx context.Context, n *replayNet, route bool) error {
	rs.attempts++
	if rs.tc != nil {
		rs.tc.reset()
	}
	t0 := time.Now()
	var err error
	if route {
		err = rs.s.Route(ctx, n.src, n.sinks...)
	} else {
		err = rs.s.Unroute(ctx, n.src)
	}
	t1 := time.Now()
	rtt := t1.Sub(t0)
	if rs.lat == nil {
		return err
	}
	rs.lat = append(rs.lat, rtt)
	if tc := rs.tc; tc != nil && tc.writes > 0 && tc.reads > 0 {
		enc := tc.firstWrite.Sub(t0)
		turn := tc.firstRead.Sub(tc.lastWrite)
		dec := t1.Sub(tc.lastRead)
		rs.encode = append(rs.encode, enc)
		rs.turnaround = append(rs.turnaround, turn)
		rs.dec = append(rs.dec, dec)
		rs.residual = append(rs.residual, float64(rtt-enc-turn-dec)/float64(rtt))
		rs.bytes += tc.bytes
	}
	return err
}

// boardHash reads every session's board back over the wire, audits it
// against working set k, checks the client mirror holds the same bits,
// and hashes the boards in session order.
func boardHash(ctx context.Context, sess []*replaySession, k int) (string, error) {
	var streams [][]byte
	for _, rs := range sess {
		board, err := rs.s.Readback(ctx)
		if err != nil {
			return "", err
		}
		claims := make([]oracle.Claim, len(rs.sets[k]))
		for i, n := range rs.sets[k] {
			claims[i] = claim(n.net.Src, n.net.Sinks...)
		}
		if err := audit(rs.s.Mirror.A, board, claims); err != nil {
			return "", fmt.Errorf("%s: %w", rs.s.Device(), err)
		}
		mirror, err := rs.s.Mirror.FullConfig()
		if err != nil {
			return "", err
		}
		if !bytes.Equal(mirror, board) {
			return "", fmt.Errorf("%s: client mirror differs from the board readback", rs.s.Device())
		}
		streams = append(streams, board)
	}
	return fnvHex(streams...), nil
}

// serverStats is the daemon's statsz counters summed across sessions.
type serverStats struct {
	ripUps, frames, shipped     int
	hits, misses, replayFails   int
	bytesIn, bytesOut, framesIn int
	handleP50                   float64 // route op, log2-bucketed
}

// snapshot reads statsz. In the traced run it first waits until the daemon
// has counted every v3 request the clients sent: the daemon counts a
// frame's bytes after writing the response, which can be after the client
// has read it.
func snapshot(srv *server.Server, sess []*replaySession) (serverStats, error) {
	want := 0
	for _, rs := range sess {
		if rs.tc == nil {
			return sumStats(srv.Stats()), nil
		}
		want += rs.tc.sent - rs.helloWrites
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := sumStats(srv.Stats())
		if st.framesIn == want {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("rtr_replay: statsz counts %d v3 requests, clients sent %d", st.framesIn, want)
		}
		runtime.Gosched()
	}
}

func sumStats(m *server.StatsMsg) serverStats {
	var s serverStats
	for _, ss := range m.Sessions {
		s.ripUps += ss.RipUps
		s.frames += ss.FramesShipped
		s.shipped += ss.BytesShipped
		s.hits += ss.CacheHits
		s.misses += ss.CacheMisses
		s.replayFails += ss.ReplayFails
		s.handleP50 = max(s.handleP50, ss.Ops["route"].P50us)
	}
	if m.Wire != nil {
		s.bytesIn, s.bytesOut, s.framesIn = m.Wire.BytesV3In, m.Wire.BytesV3Out, m.Wire.FramesV3In
	}
	return s
}

func (b serverStats) sub(a serverStats) serverStats {
	return serverStats{
		ripUps: b.ripUps - a.ripUps, frames: b.frames - a.frames, shipped: b.shipped - a.shipped,
		hits: b.hits - a.hits, misses: b.misses - a.misses, replayFails: b.replayFails - a.replayFails,
		bytesIn: b.bytesIn - a.bytesIn, bytesOut: b.bytesOut - a.bytesOut, framesIn: b.framesIn - a.framesIn,
		handleP50: b.handleP50,
	}
}
