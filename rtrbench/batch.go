package main

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/maze"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// batch_clustered: negotiated, partition-parallel batch routing of
// BENCH_7's clustered knots on the largest geometry, route-all then
// unroute-all, repeated.
const (
	batchRows     = 256
	batchCols     = 384
	batchClusters = 96
	batchPer      = 32
	batchSpread   = 5
)

func runBatch(cfg config) (*report, error) {
	start := time.Now()
	rep := &report{Params: map[string]any{
		"rows": batchRows, "cols": batchCols, "clusters": batchClusters,
		"nets_per_cluster": batchPer, "spread": batchSpread, "callers": 1,
	}}
	layers := map[string]float64{}
	t0 := time.Now()
	dev, err := device.New(arch.NewVirtex(), batchRows, batchCols)
	if err != nil {
		return nil, err
	}
	layers["device.new_ms"] = ms(time.Since(t0))
	srcPins, dstPins, err := workload.New(cfg.seed, batchRows, batchCols).ClusteredPins(batchClusters, batchPer, batchSpread)
	if err != nil {
		return nil, err
	}
	srcs := make([]core.EndPoint, len(srcPins))
	dsts := make([]core.EndPoint, len(dstPins))
	claims := make([]oracle.Claim, len(srcPins))
	for i := range srcPins {
		srcs[i], dsts[i] = srcPins[i], dstPins[i]
		claims[i] = claim(srcPins[i], dstPins[i])
	}
	nets := len(srcs)
	r := core.New(dev)

	// Warm-up: one cycle. The reference is the partial bitstream a
	// batch from the blank board dirties; the full 256x384 configuration
	// takes seconds to serialize, so it is built only in the gate.
	ref, err := shipBatch(r, srcs, dsts)
	if err != nil {
		return nil, fmt.Errorf("batch_clustered warm-up: %w", err)
	}
	rep.RefHash = ref
	if err := r.UnrouteAll(); err != nil {
		return nil, err
	}
	rep.SetupS = time.Since(start).Seconds()
	if cfg.setupOnly {
		return rep, nil
	}

	// The traced run negotiates each batch once more directly through
	// maze, on the same empty board and with core's default options, to
	// split the batch span into negotiation and commit.
	var specs []maze.NetSpec
	if cfg.traced {
		if specs, err = netSpecs(dev, srcPins, dstPins); err != nil {
			return nil, err
		}
	}
	var lat, negD, commitD, unrouteD []time.Duration
	var probe time.Duration // time spent in the direct negotiation probe
	var probeRT runtimeMark // runtime work of the probe, kept out of the window
	attempted, failed, routed := 0, 0, 0
	collect()
	before := r.Stats()
	rt0 := markRuntime()
	winStart := time.Now()
	deadline := winStart.Add(cfg.window)
	for time.Now().Before(deadline) {
		var res *maze.BatchResult
		var neg time.Duration
		if cfg.traced {
			m0 := markRuntime()
			n0 := time.Now()
			res, err = maze.NegotiatedRoute(dev, specs, maze.NegotiationOptions{Partition: true})
			neg = time.Since(n0)
			probe += neg
			probeRT = probeRT.add(markRuntime().sub(m0))
			if err != nil {
				return nil, fmt.Errorf("batch_clustered: direct negotiation: %w", err)
			}
		}
		s0 := r.Stats()
		b0 := time.Now()
		err := r.RouteBusBatch(srcs, dsts)
		bd := time.Since(b0)
		attempted += nets
		lat = append(lat, bd)
		if err != nil {
			failed += nets
		} else {
			routed += nets
		}
		if cfg.traced {
			d := r.Stats().Sub(s0)
			if d.NodesExplored != res.Explored || d.BatchIterations != res.Iterations {
				return nil, fmt.Errorf("batch_clustered: trace fidelity: direct negotiation explored %d nodes in %d iterations, RouteBusBatch %d in %d",
					res.Explored, res.Iterations, d.NodesExplored, d.BatchIterations)
			}
			negD = append(negD, neg)
			commitD = append(commitD, bd-neg)
		}
		u0 := time.Now()
		if err := r.UnrouteAll(); err != nil {
			return nil, err
		}
		unrouteD = append(unrouteD, time.Since(u0))
	}
	// Routing a net includes tearing it down again, so UnrouteAll stays
	// in the window; the traced run's direct negotiation does not.
	wall := time.Since(winStart) - probe
	rt1 := markRuntime()
	d := r.Stats().Sub(before)

	cycles := len(lat)
	rep.Attempted, rep.Failed = attempted, failed
	rep.PIPsNet = ratio(d.PIPsSet, routed)
	rep.finish(lat, routed, wall, 0.90)

	// Correctness gate, outside the window: one more batch must reproduce
	// the warm-up bitstream byte for byte and pass the oracle.
	if rep.FinalHash, err = shipBatch(r, srcs, dsts); err != nil {
		return nil, fmt.Errorf("batch_clustered gate batch: %w", err)
	}
	final, err := dev.FullConfig()
	if err != nil {
		return nil, err
	}
	if err := audit(dev.A, final, claims); err != nil {
		return nil, err
	}
	if cfg.traced {
		layers["maze.negotiate_ms"] = ms(p50(negD))
		layers["core.commit_ms"] = ms(p50(commitD))
		layers["core.unroute_all_ms"] = ms(p50(unrouteD))
		layers["maze.iterations"] = ratio(d.BatchIterations, cycles)
		layers["maze.nodes_per_batch"] = ratio(d.NodesExplored, cycles)
		layers["maze.regions"] = ratio(d.PartitionRegions, cycles)
		layers["maze.crossing_nets"] = ratio(d.PartitionCrossing, cycles)
		addCoreLayers(layers, d, routed)
		addRuntime(layers, rt0, rt1.sub(probeRT), routed)
		rep.Layers = layers
	}
	return rep, nil
}

// shipBatch routes the bus on a board whose dirty frames are clear (blank
// after UnrouteAll) and hashes the partial bitstream the batch dirtied.
func shipBatch(r *core.Router, srcs, dsts []core.EndPoint) (string, error) {
	r.Dev.ClearDirty()
	if err := r.RouteBusBatch(srcs, dsts); err != nil {
		return "", err
	}
	partial, err := r.Dev.PartialConfig()
	if err != nil {
		return "", err
	}
	r.Dev.ClearDirty()
	return fnvHex(partial), nil
}

// netSpecs canonicalises the bus the way core.RouteBusBatch does: one
// single-sink net per bit.
func netSpecs(dev *device.Device, srcs, dsts []core.Pin) ([]maze.NetSpec, error) {
	specs := make([]maze.NetSpec, len(srcs))
	for i := range srcs {
		s, err := dev.Canon(srcs[i].Row, srcs[i].Col, srcs[i].W)
		if err != nil {
			return nil, err
		}
		t, err := dev.Canon(dsts[i].Row, dsts[i].Col, dsts[i].W)
		if err != nil {
			return nil, err
		}
		specs[i] = maze.NetSpec{Source: s, Sinks: []device.Track{t}}
	}
	return specs, nil
}
