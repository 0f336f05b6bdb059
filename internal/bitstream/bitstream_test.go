package bitstream

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, rows, cols, bpt int) *Bitstream {
	t.Helper()
	b, err := New(Layout{Rows: rows, Cols: cols, BytesPerTile: bpt})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLayoutValidation(t *testing.T) {
	for _, l := range []Layout{{0, 4, 4}, {4, 0, 4}, {4, 4, 0}, {-1, 4, 4}} {
		if _, err := New(l); err == nil {
			t.Errorf("layout %+v accepted", l)
		}
	}
}

func TestSetGetBit(t *testing.T) {
	b := mustNew(t, 4, 6, 3)
	if err := b.SetBit(2, 3, 17, true); err != nil {
		t.Fatal(err)
	}
	v, err := b.GetBit(2, 3, 17)
	if err != nil || !v {
		t.Fatalf("GetBit = %v, %v", v, err)
	}
	// Neighbouring bits untouched.
	for _, bit := range []int{16, 18} {
		v, _ := b.GetBit(2, 3, bit)
		if v {
			t.Errorf("bit %d set spuriously", bit)
		}
	}
	if err := b.SetBit(2, 3, 17, false); err != nil {
		t.Fatal(err)
	}
	if v, _ := b.GetBit(2, 3, 17); v {
		t.Error("bit not cleared")
	}
}

func TestBitBounds(t *testing.T) {
	b := mustNew(t, 4, 6, 3)
	bad := [][3]int{{-1, 0, 0}, {4, 0, 0}, {0, -1, 0}, {0, 6, 0}, {0, 0, -1}, {0, 0, 24}}
	for _, c := range bad {
		if err := b.SetBit(c[0], c[1], c[2], true); err == nil {
			t.Errorf("SetBit(%v) accepted", c)
		}
		if _, err := b.GetBit(c[0], c[1], c[2]); err == nil {
			t.Errorf("GetBit(%v) accepted", c)
		}
	}
}

func TestSetGetBits(t *testing.T) {
	b := mustNew(t, 2, 2, 16)
	const v = uint64(0xBEEF)
	if err := b.SetBits(1, 1, 40, 16, v); err != nil {
		t.Fatal(err)
	}
	got, err := b.GetBits(1, 1, 40, 16)
	if err != nil || got != v {
		t.Fatalf("GetBits = %#x, %v; want %#x", got, err, v)
	}
	if _, err := b.GetBits(1, 1, 0, 65); err == nil {
		t.Error("width 65 accepted")
	}
	if err := b.SetBits(1, 1, 0, -1, 0); err == nil {
		t.Error("negative width accepted")
	}
}

func TestDirtyTracking(t *testing.T) {
	b := mustNew(t, 4, 6, 3)
	if n := len(b.DirtyFrames()); n != 0 {
		t.Fatalf("fresh bitstream has %d dirty frames", n)
	}
	b.SetBit(2, 3, 17, true) // plane 2 of col 3
	dirty := b.DirtyFrames()
	if len(dirty) != 1 || dirty[0] != (FrameAddr{Col: 3, Plane: 2}) {
		t.Fatalf("dirty = %v", dirty)
	}
	// Writing the same value again must not re-dirty after a clear.
	b.ClearDirty()
	b.SetBit(2, 3, 17, true)
	if n := len(b.DirtyFrames()); n != 0 {
		t.Errorf("idempotent write dirtied %d frames", n)
	}
	b.SetBit(2, 3, 17, false)
	if n := len(b.DirtyFrames()); n != 1 {
		t.Errorf("clearing a set bit dirtied %d frames, want 1", n)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	b := mustNew(t, 4, 6, 3)
	fa := FrameAddr{Col: 5, Plane: 1}
	in := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	if err := b.LoadFrame(fa, in); err != nil {
		t.Fatal(err)
	}
	out, err := b.Frame(fa)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("frame round trip: %x != %x", out, in)
		}
	}
	// The frame's bytes must land in the per-tile space of each row.
	for r := 0; r < 4; r++ {
		got, _ := b.GetBits(r, 5, 8, 8)
		if byte(got) != in[r] {
			t.Errorf("row %d byte plane 1 = %#x, want %#x", r, got, in[r])
		}
	}
	if err := b.LoadFrame(fa, []byte{1}); err == nil {
		t.Error("short frame accepted")
	}
	if err := b.LoadFrame(FrameAddr{Col: 99, Plane: 0}, in); err == nil {
		t.Error("out-of-range frame accepted")
	}
}

func TestFullConfigRoundTrip(t *testing.T) {
	src := mustNew(t, 8, 12, 5)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		src.SetBit(rng.Intn(8), rng.Intn(12), rng.Intn(40), true)
	}
	stream, err := src.FullConfig()
	if err != nil {
		t.Fatal(err)
	}
	dst := mustNew(t, 8, 12, 5)
	n, err := dst.ApplyConfig(stream)
	if err != nil {
		t.Fatal(err)
	}
	if n != src.FrameCount() {
		t.Errorf("full config wrote %d frames, want %d", n, src.FrameCount())
	}
	if !dst.Equal(src) {
		t.Error("full config round trip mismatch")
	}
}

func TestPartialConfigWritesOnlyDirty(t *testing.T) {
	src := mustNew(t, 8, 12, 5)
	dst := mustNew(t, 8, 12, 5)
	// Establish a common base.
	src.SetBit(1, 1, 3, true)
	full, _ := src.FullConfig()
	if _, err := dst.ApplyConfig(full); err != nil {
		t.Fatal(err)
	}
	src.ClearDirty()
	// A small change -> a small partial stream.
	src.SetBit(7, 11, 39, true)
	partial, err := src.PartialConfig()
	if err != nil {
		t.Fatal(err)
	}
	n, err := dst.ApplyConfig(partial)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("partial config wrote %d frames, want 1", n)
	}
	if !dst.Equal(src) {
		t.Error("partial config did not converge the device")
	}
	if len(partial) >= len(full)/10 {
		t.Errorf("partial stream (%d bytes) not much smaller than full (%d bytes)",
			len(partial), len(full))
	}
}

func TestApplyConfigRejectsCorruption(t *testing.T) {
	src := mustNew(t, 4, 4, 2)
	src.SetBit(0, 0, 0, true)
	stream, _ := src.FullConfig()

	// Flip a payload byte: CRC must catch it.
	bad := append([]byte(nil), stream...)
	bad[len(bad)/2] ^= 0xFF
	dst := mustNew(t, 4, 4, 2)
	if _, err := dst.ApplyConfig(bad); err == nil {
		t.Error("corrupted stream accepted")
	}

	// Truncation.
	dst = mustNew(t, 4, 4, 2)
	if _, err := dst.ApplyConfig(stream[:len(stream)-3]); err == nil {
		t.Error("truncated stream accepted")
	}

	// Wrong sync word.
	bad = append([]byte(nil), stream...)
	bad[0] = 0
	if _, err := dst.ApplyConfig(bad); err == nil {
		t.Error("bad sync word accepted")
	}

	// Wrong geometry.
	other := mustNew(t, 4, 8, 2)
	if _, err := other.ApplyConfig(stream); err == nil {
		t.Error("stream for wrong device accepted")
	}
}

func TestDiffFrames(t *testing.T) {
	a := mustNew(t, 4, 4, 2)
	b := mustNew(t, 4, 4, 2)
	d, err := a.DiffFrames(b)
	if err != nil || len(d) != 0 {
		t.Fatalf("identical bitstreams differ: %v %v", d, err)
	}
	b.SetBit(2, 1, 9, true) // col 1, plane 1
	d, err = a.DiffFrames(b)
	if err != nil || len(d) != 1 || d[0] != (FrameAddr{Col: 1, Plane: 1}) {
		t.Fatalf("diff = %v, %v", d, err)
	}
	c := mustNew(t, 4, 5, 2)
	if _, err := a.DiffFrames(c); err == nil {
		t.Error("layout mismatch accepted")
	}
}

func TestClone(t *testing.T) {
	a := mustNew(t, 4, 4, 2)
	a.SetBit(1, 1, 1, true)
	c := a.Clone()
	if !c.Equal(a) {
		t.Fatal("clone differs")
	}
	if len(c.DirtyFrames()) != 0 {
		t.Error("clone inherited dirty set")
	}
	c.SetBit(0, 0, 0, true)
	if a.Equal(c) {
		t.Error("clone shares storage with original")
	}
}

func TestCRC16KnownValue(t *testing.T) {
	// CRC-16/XMODEM("123456789") = 0x31C3.
	if got := crc16(0, []byte("123456789")); got != 0x31C3 {
		t.Errorf("crc16 check value = %#04x, want 0x31C3", got)
	}
}

// Property: any sequence of SetBit operations is faithfully reproduced on a
// second device via FullConfig.
func TestConfigTransferProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		src := mustNew(t, 6, 6, 4)
		for _, op := range ops {
			r := int(op % 6)
			c := int(op / 6 % 6)
			bit := int(op / 36 % 32)
			src.SetBit(r, c, bit, op&0x80000000 != 0)
		}
		stream, err := src.FullConfig()
		if err != nil {
			return false
		}
		dst := mustNew(t, 6, 6, 4)
		if _, err := dst.ApplyConfig(stream); err != nil {
			return false
		}
		return dst.Equal(src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: partial config after ClearDirty converges a synchronized copy.
func TestPartialConvergenceProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		src := mustNew(t, 6, 6, 4)
		dst := mustNew(t, 6, 6, 4)
		full, _ := src.FullConfig()
		dst.ApplyConfig(full)
		src.ClearDirty()
		for _, op := range ops {
			src.SetBit(int(op%6), int(op/6%6), int(op/36%32), true)
		}
		partial, err := src.PartialConfig()
		if err != nil {
			return false
		}
		if _, err := dst.ApplyConfig(partial); err != nil {
			return false
		}
		return dst.Equal(src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestDirtySetProperty runs random SetBit, SetBits, LoadFrame, ClearDirty
// and Clone sequences against a map of the frames each write changed.
// DirtyFrames must list exactly the map's frames in (column, plane)
// order, DirtyCount must agree, and a clone must start clean and track
// its own writes. Layouts with more than 64 frames exercise the bitset
// across words.
func TestDirtySetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, l := range []Layout{{3, 2, 1}, {4, 6, 3}, {5, 13, 11}, {2, 40, 7}} {
		b, err := New(l)
		if err != nil {
			t.Fatal(err)
		}
		ref := map[FrameAddr]bool{}
		check := func(step int, b *Bitstream, ref map[FrameAddr]bool) {
			t.Helper()
			var want []FrameAddr
			for c := 0; c < l.Cols; c++ {
				for p := 0; p < l.BytesPerTile; p++ {
					if ref[FrameAddr{c, p}] {
						want = append(want, FrameAddr{c, p})
					}
				}
			}
			got := b.DirtyFrames()
			if len(got) != len(want) || b.DirtyCount() != len(want) {
				t.Fatalf("%+v step %d: DirtyFrames %v (count %d), want %v", l, step, got, b.DirtyCount(), want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%+v step %d: DirtyFrames %v, want %v", l, step, got, want)
				}
			}
		}
		// write applies op to b and records in ref every frame whose
		// bytes it changed.
		write := func(b *Bitstream, ref map[FrameAddr]bool, op func()) {
			before := b.Clone()
			op()
			diff, err := b.DiffFrames(before)
			if err != nil {
				t.Fatal(err)
			}
			for _, fa := range diff {
				ref[fa] = true
			}
		}
		for step := 0; step < 400; step++ {
			row, col := rng.Intn(l.Rows), rng.Intn(l.Cols)
			switch k := rng.Intn(10); {
			case k < 4:
				bit := rng.Intn(8 * l.BytesPerTile)
				write(b, ref, func() { b.SetBit(row, col, bit, rng.Intn(2) == 0) })
			case k < 6:
				width := 1 + rng.Intn(8*l.BytesPerTile)
				if width > 64 {
					width = 64
				}
				start := rng.Intn(8*l.BytesPerTile - width + 1)
				write(b, ref, func() { b.SetBits(row, col, start, width, rng.Uint64()) })
			case k < 8:
				fa := FrameAddr{Col: col, Plane: rng.Intn(l.BytesPerTile)}
				frame, _ := b.Frame(fa)
				if rng.Intn(3) != 0 {
					frame[rng.Intn(len(frame))] ^= byte(1 + rng.Intn(255))
				}
				write(b, ref, func() { b.LoadFrame(fa, frame) })
			case k < 9:
				b.ClearDirty()
				clear(ref)
			default:
				c := b.Clone()
				if c.DirtyCount() != 0 || len(c.DirtyFrames()) != 0 {
					t.Fatalf("%+v step %d: clone starts with %v dirty", l, step, c.DirtyFrames())
				}
				cref := map[FrameAddr]bool{}
				bit := rng.Intn(8 * l.BytesPerTile)
				write(c, cref, func() { c.SetBit(row, col, bit, true) })
				check(step, c, cref)
			}
			check(step, b, ref)
		}
	}
}
