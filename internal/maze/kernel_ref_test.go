package maze

// The array-of-fields kernels that preceded the cell layout, kept
// verbatim as the differential reference for the kernels in astar.go and
// negotiate.go: a 48-byte heap item that carries its Track, an arena of
// four parallel arrays, and a penalty that reads present and history
// separately. Only names changed (ref prefix), the pooled arenas became
// one shared arena, and the negotiation search takes its arena as a
// parameter.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/device"
)

type refHeapItem struct {
	track device.Track
	ti    int32
	g, f  float64
}

type refArena struct {
	n     int
	epoch uint32
	stamp []uint32      // epoch mark per track index
	g     []float64     // best path cost found so far
	via   []device.PIP  // PIP that reached the track
	prev  []int32       // predecessor track index; -1 for search sources
	heap  []refHeapItem // frontier backing storage, reused across searches
}

// ensure sizes the tables for n tracks. Growing reallocates (zeroed stamps
// restart the epoch); shrinking never happens — a large-device arena serves
// small devices fine.
func (ar *refArena) ensure(n int) {
	if ar.n >= n {
		return
	}
	ar.stamp = make([]uint32, n)
	ar.g = make([]float64, n)
	ar.via = make([]device.PIP, n)
	ar.prev = make([]int32, n)
	ar.epoch = 0
	ar.n = n
}

// begin opens a new search generation: every previous mark becomes stale.
func (ar *refArena) begin() {
	ar.epoch++
	if ar.epoch == 0 { // wrapped: pay one O(n) clear every 2^32 searches
		for i := range ar.stamp {
			ar.stamp[i] = 0
		}
		ar.epoch = 1
	}
	ar.heap = ar.heap[:0]
}

// seen reports whether track i was reached in this generation.
func (ar *refArena) seen(i int32) bool { return ar.stamp[i] == ar.epoch }

// visit records the best-known path to track i.
func (ar *refArena) visit(i int32, g float64, via device.PIP, prev int32) {
	ar.stamp[i] = ar.epoch
	ar.g[i] = g
	ar.via[i] = via
	ar.prev[i] = prev
}

// reconstruct walks prev links from the sink back to a source and returns
// the PIPs in source-to-sink order. Only the result slice is allocated —
// it outlives the arena.
func (ar *refArena) reconstruct(sink int32) []device.PIP {
	n := 0
	for k := sink; ar.prev[k] >= 0; k = ar.prev[k] {
		n++
	}
	pips := make([]device.PIP, n)
	for k := sink; ar.prev[k] >= 0; k = ar.prev[k] {
		n--
		pips[n] = ar.via[k]
	}
	return pips
}

// push and pop implement a binary min-heap on f with exactly the element
// movement of container/heap, so search behaviour (tie-breaking included)
// matches the seed implementation without its per-node allocations.
func (ar *refArena) push(it refHeapItem) {
	ar.heap = append(ar.heap, it)
	ar.siftUp(len(ar.heap) - 1)
}

func (ar *refArena) pop() refHeapItem {
	h := ar.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	ar.siftDown(0, n)
	it := h[n]
	ar.heap = h[:n]
	return it
}

func (ar *refArena) siftUp(j int) {
	h := ar.heap
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].f < h[i].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (ar *refArena) siftDown(i0, n int) {
	h := ar.heap
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].f < h[j1].f {
			j = j2
		}
		if !(h[j].f < h[i].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// refArenaShared stands in for the pooled arenas: one arena reused
// by every reference search (the differential tests run sequentially).
var refArenaShared = new(refArena)

func newRefArena(n int) *refArena {
	ar := refArenaShared
	ar.ensure(n)
	ar.begin()
	return ar
}

// historyAt is the reference kernel's separate history read, for refPenalty.
func (c *congestion) historyAt(i int32) float64 {
	return c.at(i).history
}

func refSearch(dev *device.Device, sources []device.Track, sink device.Track, opt Options, astar bool) (*Route, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("maze: no sources: %w", ErrUnroutable)
	}
	sinkKey := sink.Key()
	sinkTile := device.Coord{Row: sink.Row, Col: sink.Col}
	sinkIdx := dev.TrackIndex(sink)
	if dev.DrivenIdx(sinkIdx) {
		return nil, fmt.Errorf("maze: sink %s at (%d,%d) already in use: %w",
			dev.A.WireName(sink.W), sink.Row, sink.Col, ErrUnroutable)
	}

	// h lower-bounds the remaining cost: covering distance d with hexes
	// (the cheapest per-tile resource) plus a short single tail; with
	// long lines enabled any remaining distance could in principle be a
	// long hop plus a hex. The search is weighted (f = g + 2h), trading
	// optimality for focus — the paper's routers are explicitly greedy.
	hexC := opt.kindCost(arch.KindHex)
	singleC := opt.kindCost(arch.KindSingle)
	longC := opt.kindCost(arch.KindLongH)
	h := func(t device.Track) float64 {
		if !astar {
			return 0
		}
		d := dev.MinTapDistance(t, sinkTile)
		hexes := d / dev.A.HexLen
		tail := d % dev.A.HexLen
		if tail*singleC > 2*hexC {
			tail = 2 * hexC / singleC
		}
		est := hexes*hexC + tail*singleC
		if opt.UseLongLines && est > longC+hexC {
			est = longC + hexC
		}
		return float64(2 * est)
	}
	cost := func(k arch.Kind) int {
		if !astar {
			return 1
		}
		return opt.kindCost(k)
	}

	ar := newRefArena(dev.NumTracks())

	for _, s := range sources {
		if s.Key() == sinkKey {
			return &Route{}, nil // already connected
		}
		si := dev.TrackIndex(s)
		if ar.seen(si) {
			continue
		}
		ar.visit(si, 0, device.PIP{}, -1)
		ar.push(refHeapItem{track: s, ti: si, g: 0, f: h(s)})
	}

	explored := 0
	maxNodes := opt.maxNodes()
	for len(ar.heap) > 0 {
		it := ar.pop()
		if it.g > ar.g[it.ti] {
			continue // stale entry
		}
		explored++
		if explored > maxNodes {
			return nil, fmt.Errorf("maze: search exceeded %d states: %w", maxNodes, ErrUnroutable)
		}
		goal := false
		for _, c := range dev.PIPChoices(it.track) {
			if c.TIdx != sinkIdx {
				if !opt.allowKind(c.Kind) {
					continue
				}
				// Do not route through CLB pins: they are net
				// endpoints, not thoroughfares.
				if isNetEndpointKind(c.Kind) {
					continue
				}
			}
			if opt.avoids(dev, c.P.Row, c.P.Col, c.Target) {
				continue
			}
			if dev.DrivenIdx(c.TIdx) {
				continue
			}
			ng := it.g + float64(cost(c.Kind))
			if ar.seen(c.TIdx) && ar.g[c.TIdx] <= ng {
				continue
			}
			ar.visit(c.TIdx, ng, c.P, it.ti)
			if c.TIdx == sinkIdx {
				// Goal: stop (greedy routing: first arrival wins).
				goal = true
				break
			}
			ar.push(refHeapItem{track: c.Target, ti: c.TIdx, g: ng, f: ng + h(c.Target)})
		}
		if goal {
			return &Route{PIPs: ar.reconstruct(sinkIdx), Cost: int(ar.g[sinkIdx]), Explored: explored}, nil
		}
	}
	return nil, fmt.Errorf("maze: no path to %s at (%d,%d): %w",
		dev.A.WireName(sink.W), sink.Row, sink.Col, ErrUnroutable)
}

// refPenalty is the reference form of negWorker.penalty: present and
// history read separately.
func refPenalty(w *negWorker, i int32) float64 {
	st := w.st
	users := st.cong.presentAt(i)
	if w.self.has(i) {
		users-- // our own previous usage does not penalize us
	}
	p := st.cong.historyAt(i) * st.histFac
	if users > 0 {
		p += float64(users) * st.presFac
	}
	return p
}

func refNegSearch(w *negWorker, ar *refArena, sources []device.Track, sink device.Track, box rect) ([]device.PIP, int, error) {
	st := w.st
	dev := st.dev
	sc := st.sc
	sinkKey := sink.Key()
	sinkTile := device.Coord{Row: sink.Row, Col: sink.Col}
	if dev.DrivenIdx(dev.TrackIndex(sink)) {
		return nil, 0, fmt.Errorf("maze: sink %s at (%d,%d) already in use on device: %w",
			dev.A.WireName(sink.W), sink.Row, sink.Col, ErrUnroutable)
	}
	h := func(t device.Track) float64 {
		d := dev.MinTapDistance(t, sinkTile)
		hexes := d / dev.A.HexLen
		tail := d % dev.A.HexLen
		if tail > 2 {
			tail = 2
		}
		return 2 * float64(2*hexes+tail)
	}
	ar.begin()
	sinkIdx := sc.idx(sink)
	for _, s := range sources {
		if s.Key() == sinkKey {
			return nil, 0, nil
		}
		si := sc.idx(s)
		if ar.seen(si) {
			continue
		}
		ar.visit(si, 0, device.PIP{}, -1)
		ar.push(refHeapItem{track: s, ti: si, g: 0, f: h(s)})
	}
	explored := 0
	maxNodes := st.opt.maxNodes()
	for len(ar.heap) > 0 {
		it := ar.pop()
		if it.g > ar.g[it.ti] {
			continue
		}
		explored++
		if explored > maxNodes {
			return nil, explored, fmt.Errorf("maze: negotiation search exceeded %d states: %w", maxNodes, ErrUnroutable)
		}
		goal := false
		for _, c := range dev.PIPChoices(it.track) {
			if !box.contains(c.Target.Row, c.Target.Col) {
				continue
			}
			ti := sc.idx(c.Target)
			if ti != sinkIdx {
				if !st.opt.allowKind(c.Kind) {
					continue
				}
				if isNetEndpointKind(c.Kind) {
					continue
				}
			}
			if st.opt.avoids(dev, c.P.Row, c.P.Col, c.Target) {
				continue
			}
			if dev.DrivenIdx(c.TIdx) {
				continue
			}
			ng := it.g + float64(hopCost(c.Kind)) + refPenalty(w, ti)
			if ar.seen(ti) && ar.g[ti] <= ng {
				continue
			}
			ar.visit(ti, ng, c.P, it.ti)
			if ti == sinkIdx {
				goal = true
				break
			}
			ar.push(refHeapItem{track: c.Target, ti: ti, g: ng, f: ng + h(c.Target)})
		}
		if goal {
			return ar.reconstruct(sinkIdx), explored, nil
		}
	}
	return nil, explored, fmt.Errorf("maze: no path to %s at (%d,%d): %w",
		dev.A.WireName(sink.W), sink.Row, sink.Col, ErrUnroutable)
}

// --- differential tests: the cell-layout kernels against the references ---

// kernelFixture is a device with a dozen short nets routed on it, so the
// random searches meet driven tracks and driven sinks. It returns the
// routed sinks too.
func kernelFixture(t *testing.T, a *arch.Arch, rows, cols int, rng *rand.Rand) (*device.Device, []device.Track) {
	t.Helper()
	d, err := device.New(a, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	var sinks []device.Track
	for len(sinks) < 12 {
		src, sink := randPair(d, rng, 6)
		r, err := AStar(d, []device.Track{src}, sink, Options{})
		if err != nil {
			continue
		}
		apply(t, d, r)
		sinks = append(sinks, sink)
	}
	return d, sinks
}

// randPair picks a CLB output and a LUT input at most span tiles apart.
func randPair(d *device.Device, rng *rand.Rand, span int) (src, sink device.Track) {
	r, c := rng.Intn(d.Rows), rng.Intn(d.Cols)
	src, _ = d.Canon(r, c, arch.OutPin(rng.Intn(arch.NumOutPins)))
	r2 := clampInt(r+rng.Intn(2*span+1)-span, 0, d.Rows-1)
	c2 := clampInt(c+rng.Intn(2*span+1)-span, 0, d.Cols-1)
	sink, _ = d.Canon(r2, c2, arch.Input(rng.Intn(arch.NumInputs)))
	return src, sink
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// extraSources adds up to four expansion targets of src that are not net
// endpoints and pass keep — the shape of a net's reusable tracks.
func extraSources(d *device.Device, rng *rand.Rand, src device.Track, keep func(device.Track) bool) []device.Track {
	out := []device.Track{src}
	choices := d.PIPChoices(src)
	for n := rng.Intn(5); n > 0 && len(choices) > 0; n-- {
		c := choices[rng.Intn(len(choices))]
		if !isNetEndpointKind(c.Kind) && keep(c.Target) {
			out = append(out, c.Target)
		}
	}
	return out
}

// randOptions draws search options: long lines, timing costs, up to two
// avoided rectangles, and an expansion cap — sometimes tiny, otherwise
// 2000, which bounds the cost of a case whose sink is walled off.
func randOptions(d *device.Device, rng *rand.Rand) Options {
	o := Options{UseLongLines: rng.Intn(2) == 0, TimingDriven: rng.Intn(2) == 0, MaxNodes: 2000}
	for n := rng.Intn(3); n > 0; n-- {
		o.Avoid = append(o.Avoid, Rect{Row: rng.Intn(d.Rows), Col: rng.Intn(d.Cols),
			Height: 1 + rng.Intn(4), Width: 1 + rng.Intn(4)})
	}
	if rng.Intn(4) == 0 {
		o.MaxNodes = 1 + rng.Intn(80)
	}
	return o
}

// errClass renders an error for comparison: its full message, which names
// the failure class (sink in use, no path, state budget) and its subject.
func errClass(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// outcome buckets a search result for the coverage log.
func outcome(err error) string {
	switch {
	case err == nil:
		return "routed"
	case strings.Contains(err.Error(), "exceeded"):
		return "budget"
	case strings.Contains(err.Error(), "in use"):
		return "sink-in-use"
	default:
		return "no-path"
	}
}

func samePIPs(a, b []device.PIP) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSearchMatchesReference diffs AStar and Lee against the reference
// kernel over random point-to-point and multi-source cases on Virtex and
// Kestrel: PIPs, Cost, Explored and the error must all be identical.
func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases, outcomes := 0, map[string]int{}
	for _, a := range []*arch.Arch{arch.NewVirtex(), arch.NewKestrel()} {
		d, routed := kernelFixture(t, a, 24, 36, rng)
		for i := 0; i < 600; i++ {
			astar := rng.Intn(3) != 0
			span := 8
			if !astar {
				span = 4 // Lee expands every state within the cost radius
			}
			src, sink := randPair(d, rng, span)
			sources := extraSources(d, rng, src, func(device.Track) bool { return true })
			switch rng.Intn(20) {
			case 0:
				sink = routed[rng.Intn(len(routed))] // already driven
			case 1:
				sink = sources[len(sources)-1] // already connected
			}
			opt := randOptions(d, rng)
			got, gotErr := search(d, sources, sink, opt, astar)
			want, wantErr := refSearch(d, sources, sink, opt, astar)
			cases++
			outcomes[outcome(gotErr)]++
			if errClass(gotErr) != errClass(wantErr) {
				t.Fatalf("%s case %d: error %q, reference %q", a.Name, i, errClass(gotErr), errClass(wantErr))
			}
			if gotErr != nil {
				continue
			}
			if !samePIPs(got.PIPs, want.PIPs) || got.Cost != want.Cost || got.Explored != want.Explored {
				t.Fatalf("%s case %d (astar=%v %+v): got %v cost %d explored %d, reference %v cost %d explored %d",
					a.Name, i, astar, opt, got.PIPs, got.Cost, got.Explored, want.PIPs, want.Cost, want.Explored)
			}
		}
	}
	t.Logf("%d search cases identical: %v", cases, outcomes)
}

// TestNegotiationSearchMatchesReference diffs negWorker.search against the
// reference kernel inside random scopes, with random congestion (present
// users and history), random own-usage sets, sharing factors, boxes,
// avoided rectangles and expansion caps.
func TestNegotiationSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases, outcomes := 0, map[string]int{}
	for _, a := range []*arch.Arch{arch.NewVirtex(), arch.NewKestrel()} {
		d, routed := kernelFixture(t, a, 24, 36, rng)
		wc := d.NumTracks() / (d.Rows * d.Cols)
		for i := 0; i < 600; i++ {
			src, sink := randPair(d, rng, 6)
			if rng.Intn(20) == 0 {
				sink = routed[rng.Intn(len(routed))]
			}
			box := rect{r0: src.Row, c0: src.Col, r1: src.Row, c1: src.Col}.
				union(rect{r0: sink.Row, c0: sink.Col, r1: sink.Row, c1: sink.Col})
			m := rng.Intn(2 * a.HexLen)
			box = rect{r0: clampInt(box.r0-m, 0, d.Rows-1), c0: clampInt(box.c0-m, 0, d.Cols-1),
				r1: clampInt(box.r1+m, 0, d.Rows-1), c1: clampInt(box.c1+m, 0, d.Cols-1)}
			sc := &scope{rc: box, wc: wc, par: 1}
			if rng.Intn(2) == 0 {
				sc.rc = rect{0, 0, d.Rows - 1, d.Cols - 1}
			}
			sources := extraSources(d, rng, src, func(t device.Track) bool { return box.contains(t.Row, t.Col) })
			if rng.Intn(20) == 0 {
				sink = sources[len(sources)-1]
			}
			opt := NegotiationOptions{Options: randOptions(d, rng)}
			st := &negState{dev: d, opt: opt, sc: sc, cong: getCongestion(sc.tracks()),
				presFac: float64(rng.Intn(3)) * 2, histFac: 1}
			n := int32(sc.tracks())
			for k := rng.Intn(400); k > 0; k-- {
				ti := rng.Int31n(n)
				st.cong.addPresent(ti, int32(1+rng.Intn(3)))
				if rng.Intn(2) == 0 {
					st.cong.addHistory(ti, float64(rng.Intn(4)))
				}
			}
			w := st.newWorker()
			w.self.reset()
			for k := rng.Intn(40); k > 0; k-- {
				w.self.add(rng.Int31n(n))
			}
			got, gotExp, gotErr := w.search(sources, sink, box)
			ref := newRefArena(int(n))
			want, wantExp, wantErr := refNegSearch(w, ref, sources, sink, box)
			w.release()
			putCongestion(st.cong)
			cases++
			outcomes[outcome(gotErr)]++
			if errClass(gotErr) != errClass(wantErr) {
				t.Fatalf("%s case %d: error %q, reference %q", a.Name, i, errClass(gotErr), errClass(wantErr))
			}
			if !samePIPs(got, want) || gotExp != wantExp {
				t.Fatalf("%s case %d: got %v explored %d, reference %v explored %d",
					a.Name, i, got, gotExp, want, wantExp)
			}
		}
	}
	t.Logf("%d negotiation search cases identical: %v", cases, outcomes)
}
