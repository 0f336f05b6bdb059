package main

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// rtr_search: the in-process API on a 32x48 array. One caller replays
// workload.Churn fresh pairs; every op is followed by the partial
// bitstream the host would ship. The churn runs in epochs that end by
// unrouting every net still live, so the board never fills up.
//
// Set-up derives the device's whole PIP adjacency, which searches
// otherwise fill in lazily for minutes, so the window measures the steady
// state rather than the fill. On 64x96 the filled adjacency alone holds
// about 2 GB and the window's throughput wanders with memory contention,
// hence the smaller array; epochs are sized to keep a similar density of
// live nets.
const (
	searchRows     = 32
	searchCols     = 48
	searchDist     = 24  // Manhattan distance of every churn pair
	searchPUnroute = 0.4 // per-step unroute probability
	searchEpoch    = 200 // churn steps per epoch
)

type searchNet struct {
	src, sink core.Pin
}

// searchRun is one rtr_search process: the router, the churn generator and
// the workload's own record of which nets are live.
type searchRun struct {
	dev   *device.Device
	r     *core.Router
	gen   *workload.Gen
	live  map[core.Pin]searchNet
	order []core.Pin // live sources in routing order
	buf   []byte     // reused partial-config buffer

	shipped hash.Hash64 // hashes every shipped partial bitstream while set

	traced   bool
	lat      []time.Duration
	routeD   []time.Duration
	unrouteD []time.Duration
	partialD []time.Duration
	dirty    int
	attempts int
	failed   int
}

func runSearch(cfg config) (*report, error) {
	start := time.Now()
	rep := &report{Params: map[string]any{
		"rows": searchRows, "cols": searchCols, "dist": searchDist,
		"p_unroute": searchPUnroute, "epoch_steps": searchEpoch, "callers": 1,
	}}
	layers := map[string]float64{}
	t0 := time.Now()
	dev, err := device.New(arch.NewVirtex(), searchRows, searchCols)
	if err != nil {
		return nil, err
	}
	layers["device.new_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	fillAdjacency(dev)
	layers["device.adjacency_ms"] = ms(time.Since(t0))
	s := &searchRun{
		dev:    dev,
		r:      core.New(dev),
		gen:    workload.New(cfg.seed, searchRows, searchCols),
		live:   map[core.Pin]searchNet{},
		traced: cfg.traced,
	}
	// Warm-up: one epoch. Its reference is the hash of every partial
	// bitstream it shipped, which every process of this seed must
	// reproduce.
	ops, err := s.gen.Churn(searchEpoch, searchDist, searchPUnroute)
	if err != nil {
		return nil, err
	}
	s.shipped = fnv.New64a()
	if err := s.churn(ops); err != nil {
		return nil, err
	}
	if err := s.drain(); err != nil {
		return nil, err
	}
	rep.RefHash = fmt.Sprintf("%016x", s.shipped.Sum64())
	s.shipped = nil
	if s.failed > 0 {
		return nil, fmt.Errorf("rtr_search warm-up: %d of %d ops failed", s.failed, s.attempts)
	}
	rep.SetupS = time.Since(start).Seconds()
	if cfg.setupOnly {
		return rep, nil
	}

	s.lat = make([]time.Duration, 0, 1<<17)
	s.attempts, s.failed, s.dirty = 0, 0, 0
	s.routeD, s.unrouteD, s.partialD = nil, nil, nil
	collect()
	before := s.r.Stats()
	rt0 := markRuntime()
	winStart := time.Now()
	deadline := winStart.Add(cfg.window)
	for time.Now().Before(deadline) {
		// Generating the next epoch's endpoints is the benchmark's work,
		// not the router's, so it is taken out of the window.
		g0 := time.Now()
		ops, err := s.gen.Churn(searchEpoch, searchDist, searchPUnroute)
		if err != nil {
			return nil, err
		}
		gen := time.Since(g0)
		winStart = winStart.Add(gen)
		deadline = deadline.Add(gen)
		if err := s.churnUntil(ops, deadline); err != nil {
			return nil, err
		}
		if time.Now().Before(deadline) {
			if err := s.drain(); err != nil {
				return nil, err
			}
		}
	}
	wall := time.Since(winStart)
	rt1 := markRuntime()
	d := s.r.Stats().Sub(before)

	n := len(s.lat)
	rep.Attempted, rep.Failed = s.attempts, s.failed
	rep.PIPsNet = ratio(d.PIPsSet, d.Routes)
	rep.finish(s.lat, n, wall, 0.99)

	// Correctness gate, outside the window: the board holds exactly the
	// nets the workload believes are live, and unrouting them restores
	// the blank bitstream bit for bit.
	final, err := dev.FullConfig()
	if err != nil {
		return nil, err
	}
	claims := make([]oracle.Claim, 0, len(s.order))
	for _, src := range s.order {
		net := s.live[src]
		claims = append(claims, claim(net.src, net.sink))
	}
	if err := audit(dev.A, final, claims); err != nil {
		return nil, err
	}
	if err := s.drain(); err != nil {
		return nil, err
	}
	empty, err := dev.FullConfig()
	if err != nil {
		return nil, err
	}
	fresh, err := device.New(arch.NewVirtex(), searchRows, searchCols)
	if err != nil {
		return nil, err
	}
	blank, err := fresh.FullConfig()
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(empty, blank) {
		return nil, fmt.Errorf("rtr_search: board after unrouting every live net differs from a blank board")
	}
	if cfg.traced {
		layers["core.route_p50_us"] = us(p50(s.routeD))
		layers["core.route_p99_us"] = us(quantile(s.routeD, 0.99))
		layers["core.unroute_p50_us"] = us(p50(s.unrouteD))
		layers["bitstream.partial_us"] = us(p50(s.partialD))
		layers["bitstream.dirty_frames_per_op"] = ratio(s.dirty, n)
		addCoreLayers(layers, d, n)
		addRuntime(layers, rt0, rt1, n)
		rep.Layers = layers
	}
	return rep, nil
}

// fillAdjacency derives the PIP choices of every track on the device.
func fillAdjacency(dev *device.Device) {
	for r := 0; r < dev.Rows; r++ {
		for c := 0; c < dev.Cols; c++ {
			for w := 0; w < dev.A.WireCount(); w++ {
				if t, ok := dev.CanonOK(r, c, arch.Wire(w)); ok {
					dev.PIPChoices(t)
				}
			}
		}
	}
}

// addCoreLayers records the router counters of a window.
func addCoreLayers(layers map[string]float64, d core.Stats, ops int) {
	lookups := d.CacheHits + d.CacheMisses + d.ReplayFails
	layers["core.cache_hit_ratio"] = ratio(d.CacheHits, lookups)
	layers["core.replay_fail_ratio"] = ratio(d.ReplayFails, lookups)
	layers["core.template_hit_ratio"] = ratio(d.TemplateHits, d.Routes)
	layers["core.maze_fallback_ratio"] = ratio(d.MazeFallbacks, d.Routes)
	layers["maze.nodes_per_search"] = ratio(d.NodesExplored, d.MazeFallbacks)
	layers["device.pips_set_per_op"] = ratio(d.PIPsSet, ops)
	layers["device.pips_cleared_per_op"] = ratio(d.PIPsCleared, ops)
}

func (s *searchRun) churn(ops []workload.ChurnOp) error {
	return s.churnUntil(ops, time.Time{})
}

// churnUntil applies churn ops until they run out or the deadline (when
// set) passes.
func (s *searchRun) churnUntil(ops []workload.ChurnOp, deadline time.Time) error {
	for i, op := range ops {
		if !deadline.IsZero() && i%16 == 0 && !time.Now().Before(deadline) {
			return nil
		}
		if op.Route {
			if err := s.op(op.Src, op.Sink, true); err != nil {
				return err
			}
			continue
		}
		if _, ok := s.live[op.Src]; !ok {
			continue // its route failed, so there is nothing to unroute
		}
		if err := s.op(op.Src, core.Pin{}, false); err != nil {
			return err
		}
	}
	return nil
}

// drain unroutes every live net, oldest first.
func (s *searchRun) drain() error {
	for len(s.order) > 0 {
		if err := s.op(s.order[0], core.Pin{}, false); err != nil {
			return err
		}
	}
	return nil
}

// op routes or unroutes one net and ships the partial bitstream. A failed
// route is counted; a failed unroute of a live net is a defect and stops
// the run.
func (s *searchRun) op(src, sink core.Pin, route bool) error {
	s.attempts++
	t0 := time.Now()
	var err error
	if route {
		err = s.r.RouteNet(src, sink)
	} else {
		err = s.r.Unroute(src)
	}
	t1 := time.Now()
	if s.traced {
		s.dirty += s.dev.DirtyFrameCount()
	}
	t2 := time.Now()
	var perr error
	s.buf, perr = s.dev.AppendPartialConfig(s.buf[:0])
	s.dev.ClearDirty()
	t3 := time.Now()
	if perr != nil {
		return perr
	}
	if s.shipped != nil {
		s.shipped.Write(s.buf)
	}
	if s.lat != nil {
		s.lat = append(s.lat, t1.Sub(t0)+t3.Sub(t2))
		if s.traced {
			if route {
				s.routeD = append(s.routeD, t1.Sub(t0))
			} else {
				s.unrouteD = append(s.unrouteD, t1.Sub(t0))
			}
			s.partialD = append(s.partialD, t3.Sub(t2))
		}
	}
	switch {
	case err != nil && route:
		s.failed++
	case err != nil:
		return fmt.Errorf("rtr_search: unroute %v: %w", src, err)
	case route:
		s.live[src] = searchNet{src: src, sink: sink}
		s.order = append(s.order, src)
	default:
		delete(s.live, src)
		for i, o := range s.order {
			if o == src {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	return nil
}
