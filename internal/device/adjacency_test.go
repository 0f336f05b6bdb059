package device

import (
	"testing"

	"repro/internal/arch"
)

// TestTrackIndexBoundsAndUniqueness: every canonical track maps into
// [0, NumTracks) and no two canonical tracks collide — the property the
// maze arena's dense scratch tables depend on.
func TestTrackIndexBoundsAndUniqueness(t *testing.T) {
	d, err := New(arch.NewVirtex(), 12, 16)
	if err != nil {
		t.Fatal(err)
	}
	n := d.NumTracks()
	if n != 12*16*d.A.WireCount() {
		t.Fatalf("NumTracks = %d, want %d", n, 12*16*d.A.WireCount())
	}
	seen := make(map[int32]Track)
	for row := 0; row < d.Rows; row++ {
		for col := 0; col < d.Cols; col++ {
			for w := 0; w < d.A.WireCount(); w++ {
				tr, ok := d.CanonOK(row, col, arch.Wire(w))
				if !ok {
					continue
				}
				// Count each physical track once, at its canonical name.
				if tr != (Track{Row: row, Col: col, W: arch.Wire(w)}) {
					continue
				}
				idx := d.TrackIndex(tr)
				if idx < 0 || int(idx) >= n {
					t.Fatalf("TrackIndex(%v) = %d out of [0,%d)", tr, idx, n)
				}
				if prev, dup := seen[idx]; dup {
					t.Fatalf("tracks %v and %v share index %d", prev, tr, idx)
				}
				seen[idx] = tr
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no canonical tracks enumerated")
	}
}

// TestTrackOfInvertsTrackIndex: TrackOf maps every index of several
// geometries of both architectures to an on-device track whose
// TrackIndex is that index again, and PIPChoicesAt(i) is the cached
// PIPChoices(TrackOf(i)).
func TestTrackOfInvertsTrackIndex(t *testing.T) {
	for _, g := range []struct {
		a          *arch.Arch
		rows, cols int
	}{
		{arch.NewVirtex(), 12, 12}, {arch.NewVirtex(), 12, 16}, {arch.NewVirtex(), 17, 13},
		{arch.NewKestrel(), 8, 8}, {arch.NewKestrel(), 9, 21},
	} {
		d, err := New(g.a, g.rows, g.cols)
		if err != nil {
			t.Fatal(err)
		}
		for i := int32(0); i < int32(d.NumTracks()); i++ {
			tr := d.TrackOf(i)
			if tr.Row < 0 || tr.Row >= d.Rows || tr.Col < 0 || tr.Col >= d.Cols ||
				tr.W < 0 || int(tr.W) >= d.A.WireCount() {
				t.Fatalf("%s %dx%d: TrackOf(%d) = %v outside the device", g.a.Name, g.rows, g.cols, i, tr)
			}
			if back := d.TrackIndex(tr); back != i {
				t.Fatalf("%s %dx%d: TrackIndex(TrackOf(%d)) = %d", g.a.Name, g.rows, g.cols, i, back)
			}
			if i%97 == 0 {
				at, direct := d.PIPChoicesAt(i), d.PIPChoices(tr)
				if len(at) != len(direct) || (len(at) > 0 && &at[0] != &direct[0]) {
					t.Fatalf("%s: PIPChoicesAt(%d) is not the cached PIPChoices(%v)", g.a.Name, i, tr)
				}
			}
		}
		if d.PIPChoicesAt(-1) != nil || d.PIPChoicesAt(int32(d.NumTracks())) != nil {
			t.Errorf("%s: PIPChoicesAt out of range returned choices", g.a.Name)
		}
	}
}

// TestDevicesShareBitLayout: devices of equal architecture parameters,
// whatever their size and however the Arch was obtained, share one
// immutable bit layout; a different architecture gets its own.
func TestDevicesShareBitLayout(t *testing.T) {
	a, err := New(arch.NewVirtex(), 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(arch.NewVirtex(), 32, 48)
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(arch.NewKestrel(), 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	if a.layout != b.layout {
		t.Error("two Virtex devices built separate bit layouts")
	}
	if a.layout == k.layout {
		t.Error("Virtex and Kestrel share a bit layout")
	}
	// The dense pair table agrees with the pair list it indexes.
	l := a.layout
	for i, p := range l.pairs {
		if got, ok := l.pipIdx(p[0], p[1]); !ok || got != i {
			t.Fatalf("pipIdx(%v) = %d, %v; want %d", p, got, ok, i)
		}
	}
	if _, ok := l.pipIdx(arch.Invalid, 0); ok {
		t.Error("pipIdx accepted an invalid wire")
	}
	if _, ok := l.pipIdx(0, arch.Wire(a.A.WireCount())); ok {
		t.Error("pipIdx accepted a wire past the end")
	}
}

// TestPIPChoicesMatchDirectDerivation: the cached adjacency must be exactly
// what walking Taps/LocalName/LocalFanout/DriveAllowedAt produces, with
// correct cached TIdx and Kind, and repeated calls must return the shared
// slice.
func TestPIPChoicesMatchDirectDerivation(t *testing.T) {
	d, err := New(arch.NewVirtex(), 12, 16)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for row := 0; row < d.Rows; row += 3 {
		for col := 0; col < d.Cols; col += 3 {
			for w := 0; w < d.A.WireCount(); w++ {
				tr, ok := d.CanonOK(row, col, arch.Wire(w))
				if !ok || tr != (Track{Row: row, Col: col, W: arch.Wire(w)}) {
					continue
				}
				got := d.PIPChoices(tr)
				want := d.derivePIPChoices(tr)
				if len(got) != len(want) {
					t.Fatalf("%v: %d cached choices, %d derived", tr, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v choice %d: cached %+v, derived %+v", tr, i, got[i], want[i])
					}
					if got[i].TIdx != d.TrackIndex(got[i].Target) {
						t.Fatalf("%v choice %d: TIdx %d != TrackIndex %d", tr, i, got[i].TIdx, d.TrackIndex(got[i].Target))
					}
					if got[i].Kind != d.A.ClassOf(got[i].Target.W).Kind {
						t.Fatalf("%v choice %d: stale Kind", tr, i)
					}
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no tracks checked")
	}
}

// TestPIPChoicesSharedAcrossDevices: two devices of the same architecture
// parameters and array size share one adjacency cache; a different size gets
// its own.
func TestPIPChoicesSharedAcrossDevices(t *testing.T) {
	d1, err := New(arch.NewVirtex(), 12, 16)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := New(arch.NewVirtex(), 12, 16)
	if err != nil {
		t.Fatal(err)
	}
	if d1.adjc != d2.adjc {
		t.Error("same geometry does not share the adjacency cache")
	}
	d3, err := New(arch.NewVirtex(), 12, 20)
	if err != nil {
		t.Fatal(err)
	}
	if d1.adjc == d3.adjc {
		t.Error("different geometry shares the adjacency cache")
	}
	// Cached choices are independent of device routing state: turning a PIP
	// on must not change the architecture-legal adjacency.
	tr, err := d1.Canon(4, 4, arch.S0X)
	if err != nil {
		t.Fatal(err)
	}
	before := len(d1.PIPChoices(tr))
	ch := d1.PIPChoices(tr)[0]
	if err := d1.SetPIP(ch.P.Row, ch.P.Col, ch.P.From, ch.P.To); err != nil {
		t.Fatal(err)
	}
	if after := len(d1.PIPChoices(tr)); after != before {
		t.Errorf("routing state changed adjacency: %d -> %d", before, after)
	}
}

// TestAppendVariantsMatchCopying: the append-into-buffer accessors must
// agree with their allocating counterparts.
func TestAppendVariantsMatchCopying(t *testing.T) {
	d, err := New(arch.NewVirtex(), 12, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Drive two hops from a CLB output along architecture-legal PIPs.
	src, err := d.Canon(2, 2, arch.S0X)
	if err != nil {
		t.Fatal(err)
	}
	hop1 := d.PIPChoices(src)[0]
	if err := d.SetPIP(hop1.P.Row, hop1.P.Col, hop1.P.From, hop1.P.To); err != nil {
		t.Fatal(err)
	}
	hop2 := d.PIPChoices(hop1.Target)[0]
	if err := d.SetPIP(hop2.P.Row, hop2.P.Col, hop2.P.From, hop2.P.To); err != nil {
		t.Fatal(err)
	}
	if got, want := d.AppendFanoutOf(nil, src), d.FanoutOf(src); len(got) != len(want) {
		t.Errorf("AppendFanoutOf %d PIPs, FanoutOf %d", len(got), len(want))
	}
	if d.FanoutCount(src) != len(d.FanoutOf(src)) {
		t.Errorf("FanoutCount %d != len(FanoutOf) %d", d.FanoutCount(src), len(d.FanoutOf(src)))
	}
	all := d.AllOnPIPs()
	appended := d.AppendAllOnPIPs(nil)
	if len(all) != len(appended) {
		t.Errorf("AppendAllOnPIPs %d PIPs, AllOnPIPs %d", len(appended), len(all))
	}
	// Appending after existing elements preserves the prefix.
	pre := []PIP{{Row: 9, Col: 9}}
	out := d.AppendAllOnPIPs(pre)
	if len(out) != 1+len(all) || out[0] != (PIP{Row: 9, Col: 9}) {
		t.Error("AppendAllOnPIPs clobbered the caller prefix")
	}
}
