package maze

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/device"
)

func bigDev(t testing.TB, rows, cols int) *device.Device {
	d, err := device.New(arch.NewVirtex(), rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// clusteredNets builds one small net per cluster cell of a grid laid over
// the device: source and sink a few tiles apart, far from every other
// cluster, so the inflated boxes partition cleanly.
func clusteredNets(t testing.TB, d *device.Device, gr, gc, per int) []NetSpec {
	t.Helper()
	cellH, cellW := d.Rows/gr, d.Cols/gc
	var nets []NetSpec
	for r := 0; r < gr; r++ {
		for c := 0; c < gc; c++ {
			cr, cc := r*cellH+cellH/2, c*cellW+cellW/2
			for k := 0; k < per; k++ {
				nets = append(nets, netSpec(t, d, cr, cc+k%2, arch.OutPin(k%8),
					[3]int{cr + 2, cc + 1, k % arch.NumInputs}))
			}
		}
	}
	return nets
}

// assertSameBatch fails unless the two results route every net through
// the identical PIP sequence with identical work counters.
func assertSameBatch(t *testing.T, label string, a, b *BatchResult) {
	t.Helper()
	if len(a.Nets) != len(b.Nets) {
		t.Fatalf("%s: %d nets vs %d", label, len(a.Nets), len(b.Nets))
	}
	for i := range a.Nets {
		if len(a.Nets[i]) != len(b.Nets[i]) {
			t.Fatalf("%s: net %d has %d PIPs vs %d", label, i, len(a.Nets[i]), len(b.Nets[i]))
		}
		for j := range a.Nets[i] {
			if a.Nets[i][j] != b.Nets[i][j] {
				t.Fatalf("%s: net %d PIP %d: %v vs %v", label, i, j, a.Nets[i][j], b.Nets[i][j])
			}
		}
	}
	if a.Iterations != b.Iterations {
		t.Errorf("%s: iterations %d vs %d", label, a.Iterations, b.Iterations)
	}
	if a.Explored != b.Explored {
		t.Errorf("%s: explored %d vs %d", label, a.Explored, b.Explored)
	}
}

// TestPartitionEqualsGlobal: the headline exactness guarantee — scope
// decomposition computes exactly what the global loop computes, for any
// worker count, on a workload that actually splits into many scopes.
func TestPartitionEqualsGlobal(t *testing.T) {
	build := func() (*device.Device, []NetSpec) {
		d := bigDev(t, 64, 96)
		return d, clusteredNets(t, d, 2, 3, 4)
	}
	d, nets := build()
	global, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if global.Regions != 0 || global.Scopes != 0 || global.CrossingNets != 0 {
		t.Errorf("global run reports partition stats: %+v", global)
	}
	if global.GlobalIterations != global.Iterations {
		t.Errorf("global run: GlobalIterations %d != Iterations %d", global.GlobalIterations, global.Iterations)
	}
	for _, par := range []int{1, 2, 8} {
		d, nets := build()
		part, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: par, Partition: true})
		if err != nil {
			t.Fatalf("partitioned par %d: %v", par, err)
		}
		assertSameBatch(t, fmt.Sprintf("par %d", par), part, global)
		if part.Scopes < 2 {
			t.Errorf("par %d: expected multiple scopes, got %d (regions %d)", par, part.Scopes, part.Regions)
		}
		if part.CrossingNets != 0 {
			t.Errorf("par %d: clustered nets should not cross cuts, got %d", par, part.CrossingNets)
		}
		if part.RegionIterations == 0 {
			t.Errorf("par %d: no region iterations recorded", par)
		}
	}
}

// TestPartitionConflictEquality: scopes that still contain real track
// conflicts must converge through the identical keeper/rip-up trajectory
// as the global loop — multiple iterations, same bytes.
func TestPartitionConflictEquality(t *testing.T) {
	build := func() (*device.Device, []NetSpec) {
		d := bigDev(t, 64, 96)
		var nets []NetSpec
		// Two contended fanout knots in two distant corners: eight nets
		// each leaving one tile for the same far tile share the cheapest
		// corridor on iteration 1 (presFac=0), forcing real rip-up
		// rounds inside each scope — and none between them.
		for _, base := range [][2]int{{10, 10}, {50, 80}} {
			for i := 0; i < 8; i++ {
				nets = append(nets, netSpec(t, d, base[0], base[1], arch.OutPin(i),
					[3]int{base[0], base[1] + 7, i}))
			}
		}
		return d, nets
	}
	d, nets := build()
	global, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if global.Iterations < 2 {
		t.Skipf("workload did not contend (iterations=%d); conflict equality untested", global.Iterations)
	}
	for _, par := range []int{1, 8} {
		d, nets := build()
		part, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: par, Partition: true})
		if err != nil {
			t.Fatalf("partitioned par %d: %v", par, err)
		}
		assertSameBatch(t, fmt.Sprintf("contended par %d", par), part, global)
		if part.Scopes < 2 {
			t.Errorf("par %d: corners should split, got %d scopes", par, part.Scopes)
		}
	}
}

// TestPartitionThinDevice: on a minimum-height device every net box spans
// all rows, so only column cuts are productive — the degenerate "1×N"
// geometry must still split and still match the global result.
func TestPartitionThinDevice(t *testing.T) {
	build := func() (*device.Device, []NetSpec) {
		d := bigDev(t, 12, 96)
		return d, clusteredNets(t, d, 1, 3, 3)
	}
	d, nets := build()
	global, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, nets = build()
	part, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: 4, Partition: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameBatch(t, "thin device", part, global)
	if part.Scopes < 2 {
		t.Errorf("thin device did not split: %d scopes, %d regions", part.Scopes, part.Regions)
	}
}

// TestPartitionAllCrossing: when every net's box overlaps the only
// productive cut, the conservative merge must collapse the batch into a
// single scope — the exact pre-partitioning global pass — rather than
// split interacting nets.
func TestPartitionAllCrossing(t *testing.T) {
	build := func() (*device.Device, []NetSpec) {
		d := bigDev(t, 64, 96)
		var nets []NetSpec
		// Every net spans the middle columns, so any vertical cut
		// crosses all of them, and they blanket the rows so horizontal
		// cuts fare no better.
		for i := 0; i < 6; i++ {
			nets = append(nets, netSpec(t, d, 4+i*10, 20, arch.OutPin(i%8),
				[3]int{4 + i*10, 76, i % arch.NumInputs}))
		}
		return d, nets
	}
	d, nets := build()
	global, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, nets = build()
	part, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: 8, Partition: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameBatch(t, "all-crossing", part, global)
	// Row boxes are ±margin around each net's row, so horizontal cuts do
	// split these nets — but every vertical span overlaps the column cut.
	// Whatever the tree does, correctness demands nets sharing columns
	// 20..76 that overlap in rows end up merged; with 10-row spacing and
	// a 12-tile margin, adjacent nets chain into one scope.
	if part.Scopes != 1 {
		t.Errorf("chained crossing nets should merge into one scope, got %d", part.Scopes)
	}
}

// TestPartitionSingleNetRegion: isolated nets negotiate alone — one net
// per scope, converging in one iteration each.
func TestPartitionSingleNetRegion(t *testing.T) {
	d := bigDev(t, 64, 96)
	nets := []NetSpec{
		netSpec(t, d, 5, 5, arch.S0X, [3]int{7, 7, 0}),
		netSpec(t, d, 55, 85, arch.S0X, [3]int{57, 87, 0}),
	}
	res, err := NegotiatedRoute(d, nets, NegotiationOptions{Partition: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scopes != 2 || res.Regions < 2 {
		t.Errorf("scopes %d regions %d, want 2 isolated regions", res.Scopes, res.Regions)
	}
	if res.Iterations != 1 {
		t.Errorf("isolated nets took %d iterations", res.Iterations)
	}
	if res.RegionIterations != 2 || res.GlobalIterations != 0 {
		t.Errorf("iteration split %d/%d, want 2 region / 0 global",
			res.RegionIterations, res.GlobalIterations)
	}
}

// TestPartitionDepthCap: PartitionDepth bounds the bisection tree, and
// the auto depth grows with Parallelism — but neither changes the routed
// result.
func TestPartitionDepthCap(t *testing.T) {
	build := func() (*device.Device, []NetSpec) {
		d := bigDev(t, 64, 96)
		return d, clusteredNets(t, d, 2, 3, 2)
	}
	d, nets := build()
	ref, err := NegotiatedRoute(d, nets, NegotiationOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, nets = build()
	depth1, err := NegotiatedRoute(d, nets, NegotiationOptions{Partition: true, PartitionDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if depth1.Regions > 2 {
		t.Errorf("depth 1 produced %d regions", depth1.Regions)
	}
	assertSameBatch(t, "depth 1", depth1, ref)
	// Auto depth: higher Parallelism may only refine the tree, never the
	// result.
	for _, par := range []int{1, 8} {
		d, nets = build()
		res, err := NegotiatedRoute(d, nets, NegotiationOptions{Partition: true, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		assertSameBatch(t, fmt.Sprintf("auto depth par %d", par), res, ref)
	}
	if (NegotiationOptions{Parallelism: 1}).partitionDepth() >= (NegotiationOptions{Parallelism: 8}).partitionDepth() {
		t.Error("auto partition depth does not grow with Parallelism")
	}
}

// TestPartitionValidationAndErrors: input validation and failure
// reporting are unchanged by partitioning.
func TestPartitionValidationAndErrors(t *testing.T) {
	d := bigDev(t, 64, 96)
	if _, err := NegotiatedRoute(d, nil, NegotiationOptions{Partition: true}); !errors.Is(err, ErrUnroutable) {
		t.Errorf("empty batch: %v", err)
	}
	// A sink already driven on the device fails identically in both
	// modes, naming the same net.
	if err := d.SetPIP(6, 9, arch.S0X, arch.S0F1); err != nil {
		t.Fatal(err)
	}
	nets := []NetSpec{
		netSpec(t, d, 40, 70, arch.S0X, [3]int{42, 72, 0}),
		netSpec(t, d, 2, 2, arch.S0X, [3]int{6, 9, 0}),
	}
	gerr := func() error {
		_, err := NegotiatedRoute(d, nets, NegotiationOptions{})
		return err
	}()
	perr := func() error {
		_, err := NegotiatedRoute(d, nets, NegotiationOptions{Partition: true, Parallelism: 8})
		return err
	}()
	if gerr == nil || perr == nil {
		t.Fatalf("driven sink not rejected: global=%v partitioned=%v", gerr, perr)
	}
	if gerr.Error() != perr.Error() {
		t.Errorf("error text diverges:\n  global: %v\n  partitioned: %v", gerr, perr)
	}
}

// TestBestCutDeterminism: the cut chooser is a pure deterministic
// function of the boxes.
func TestBestCutDeterminism(t *testing.T) {
	boxes := []rect{{0, 0, 10, 10}, {20, 0, 30, 10}, {0, 40, 10, 50}, {20, 40, 30, 50}}
	nets := []int{0, 1, 2, 3}
	first := bestCut(rect{0, 0, 63, 95}, boxes, nets)
	if !first.ok || first.crossing != 0 {
		t.Fatalf("clean cut not found: %+v", first)
	}
	for i := 0; i < 10; i++ {
		if got := bestCut(rect{0, 0, 63, 95}, boxes, nets); got != first {
			t.Fatalf("cut changed between calls: %+v vs %+v", got, first)
		}
	}
}

// bruteBestCutOnAxis is the reference cut scan: every position, every
// box, O(span × nets). bestCutOnAxis must agree with it exactly.
func bruteBestCutOnAxis(rc rect, boxes []rect, nets []int, axis int) cutStats {
	lo, hi := rc.r0, rc.r1
	if axis == 1 {
		lo, hi = rc.c0, rc.c1
	}
	best := cutStats{axis: axis}
	for p := lo + 1; p <= hi; p++ {
		crossing, left, right := 0, 0, 0
		for _, i := range nets {
			b := boxes[i]
			b0, b1 := b.r0, b.r1
			if axis == 1 {
				b0, b1 = b.c0, b.c1
			}
			switch {
			case b1 < p:
				left++
			case b0 >= p:
				right++
			default:
				crossing++
			}
		}
		bal := left - right
		if bal < 0 {
			bal = -bal
		}
		cand := cutStats{axis: axis, pos: p, crossing: crossing, balance: bal, ok: true}
		if !best.ok || cand.crossing < best.crossing ||
			(cand.crossing == best.crossing && cand.balance < best.balance) {
			best = cand
		}
	}
	return best
}

// TestBestCutSweepMatchesBruteForce diffs the prefix-count sweep against
// the brute-force scan over random box sets: thin (single-row or
// single-column) node rectangles, boxes bunched on one side so the best
// cut leaves the other side empty, and boxes reaching past the node.
func TestBestCutSweepMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	randBox := func(rc rect, slack int) rect {
		span := func(lo, hi int) (int, int) {
			a := lo - slack + rng.Intn(hi-lo+1+2*slack)
			b := lo - slack + rng.Intn(hi-lo+1+2*slack)
			if a > b {
				a, b = b, a
			}
			return a, b
		}
		r0, r1 := span(rc.r0, rc.r1)
		c0, c1 := span(rc.c0, rc.c1)
		return rect{r0, c0, r1, c1}
	}
	for trial := 0; trial < 2000; trial++ {
		rc := rect{r0: rng.Intn(20), c0: rng.Intn(20)}
		rc.r1 = rc.r0 + rng.Intn(40)
		rc.c1 = rc.c0 + rng.Intn(40)
		switch trial % 5 {
		case 0:
			rc.r1 = rc.r0 // single row
		case 1:
			rc.c1 = rc.c0 // single column
		}
		n := rng.Intn(30)
		boxes := make([]rect, n)
		nets := make([]int, 0, n)
		for i := range boxes {
			inner := rc
			if trial%5 == 2 {
				// Bunch everything in the first rows/cols: the
				// cheapest cuts leave the far side empty.
				inner.r1 = inner.r0 + (inner.r1-inner.r0)/3
				inner.c1 = inner.c0 + (inner.c1-inner.c0)/3
			}
			slack := 0
			if trial%5 == 3 {
				slack = 3
			}
			boxes[i] = randBox(inner, slack)
			if rng.Intn(4) != 0 { // a sparse subset, like a bisection node
				nets = append(nets, i)
			}
		}
		for axis := 0; axis < 2; axis++ {
			want := bruteBestCutOnAxis(rc, boxes, nets, axis)
			if got := bestCutOnAxis(rc, boxes, nets, axis); got != want {
				t.Fatalf("trial %d axis %d rc %+v boxes %v nets %v:\n  sweep %+v\n  brute %+v",
					trial, axis, rc, boxes, nets, got, want)
			}
		}
	}
}

// BenchmarkNegotiatedClustered negotiates a small clustered batch with
// partitioning on — the maze-level slice of the clustered batch workload.
func BenchmarkNegotiatedClustered(b *testing.B) {
	d := bigDev(b, 64, 96)
	nets := clusteredNets(b, d, 4, 4, 6)
	opt := NegotiationOptions{Partition: true, Parallelism: 1}
	if _, err := NegotiatedRoute(d, nets, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NegotiatedRoute(d, nets, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// warmNegotiationBytes returns the fewest heap bytes one warm
// NegotiatedRoute allocated over several runs. The minimum discounts
// runs where a GC emptied the scratch pools mid-measurement.
func warmNegotiationBytes(t *testing.T, d *device.Device, nets []NetSpec, opt NegotiationOptions) uint64 {
	t.Helper()
	if _, err := NegotiatedRoute(d, nets, opt); err != nil {
		t.Fatal(err)
	}
	best := ^uint64(0)
	var before, after runtime.MemStats
	for run := 0; run < 8; run++ {
		runtime.ReadMemStats(&before)
		if _, err := NegotiatedRoute(d, nets, opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got < best {
			best = got
		}
	}
	return best
}

// TestNegotiationBytesIndependentOfScopeSize routes the same nets, in the
// same corner, on a device with 4x the tracks. With partitioning off the
// single scope spans the whole device, so any per-scope table allocated
// or cleared per batch would scale the warm allocation volume with the
// device; pooled, epoch-stamped scratch keeps it flat.
func TestNegotiationBytesIndependentOfScopeSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	opt := NegotiationOptions{Parallelism: 1}
	measure := func(rows, cols int) (uint64, int) {
		d := bigDev(t, rows, cols)
		nets := []NetSpec{
			netSpec(t, d, 3, 3, arch.OutPin(0), [3]int{6, 5, 0}),
			netSpec(t, d, 4, 3, arch.OutPin(1), [3]int{6, 5, 1}),
			netSpec(t, d, 3, 4, arch.OutPin(2), [3]int{7, 6, 2}),
		}
		return warmNegotiationBytes(t, d, nets, opt), d.NumTracks()
	}
	small, smallTracks := measure(24, 36)
	big, bigTracks := measure(48, 72)
	t.Logf("warm bytes/op: %d at %d tracks, %d at %d tracks", small, smallTracks, big, bigTracks)
	// A per-batch int32 table over the big device alone would be
	// 4*bigTracks bytes; allow a small fraction of that.
	if big > small+uint64(bigTracks)/4 {
		t.Errorf("warm negotiation allocates %d B at %d tracks vs %d B at %d tracks: grows with scope size",
			big, bigTracks, small, smallTracks)
	}
}

// TestScopeTrackInvertsIdx: scope.track is the inverse of scope.idx over
// the whole scope-local index space of offset rectangles, which is what
// lets the negotiation heap carry an index alone.
func TestScopeTrackInvertsIdx(t *testing.T) {
	d := bigDev(t, 24, 36)
	wc := d.NumTracks() / (d.Rows * d.Cols)
	for _, rc := range []rect{{0, 0, 23, 35}, {3, 5, 9, 20}, {7, 7, 7, 7}, {0, 30, 23, 35}} {
		sc := &scope{rc: rc, wc: wc}
		for i := int32(0); i < int32(sc.tracks()); i++ {
			tr := sc.track(i)
			if !rc.contains(tr.Row, tr.Col) {
				t.Fatalf("rect %+v: track(%d) = %v outside the scope", rc, i, tr)
			}
			if back := sc.idx(tr); back != i {
				t.Fatalf("rect %+v: idx(track(%d)) = %d", rc, i, back)
			}
		}
	}
}
