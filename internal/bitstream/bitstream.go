// Package bitstream models the configuration memory of the device: a
// frame-addressed bit store with a Virtex-style column-major frame
// organization, a configuration packet stream with CRC protection, readback,
// and partial-bitstream generation from dirty-frame tracking.
//
// JRoute's run-time reconfiguration story rests on JBits being able to read
// and write individual configuration bits and to ship only the changed
// frames to the device; this package supplies those semantics. The actual
// bit positions are this model's own (Xilinx's are proprietary), which is
// irrelevant to the API behaviour being reproduced.
package bitstream

import (
	"fmt"
	"slices"
)

// Layout fixes the geometry of the configuration memory: the CLB array size
// and the number of configuration bytes per tile. Like Virtex, frames are
// column-major: one frame holds one byte plane of one column, so writing a
// tile dirties at most BytesPerTile frames of its column.
type Layout struct {
	Rows, Cols   int
	BytesPerTile int
}

// Validate checks the layout invariants.
func (l Layout) Validate() error {
	if l.Rows <= 0 || l.Cols <= 0 || l.BytesPerTile <= 0 {
		return fmt.Errorf("bitstream: invalid layout %+v", l)
	}
	return nil
}

// FrameAddr identifies one configuration frame: byte plane `Plane` of
// column `Col`. A frame holds Rows bytes.
type FrameAddr struct {
	Col, Plane int
}

// Bitstream is the configuration memory of one device.
//
// The dirty set is a bitset over frame numbers (col*BytesPerTile + plane,
// which is (column, plane) order) plus the list of the frames it holds, so
// marking, listing and clearing cost grows with the dirty frames, not with
// the device.
type Bitstream struct {
	layout    Layout
	data      []byte
	dirty     []uint64 // bit per frame number
	dirtyList []int32  // the frame numbers set in dirty, in marking order
}

// New allocates an all-zero configuration memory.
func New(l Layout) (*Bitstream, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return &Bitstream{
		layout: l,
		data:   make([]byte, l.Rows*l.Cols*l.BytesPerTile),
		dirty:  make([]uint64, (l.Cols*l.BytesPerTile+63)/64),
	}, nil
}

// markDirty adds frame (col, plane) to the dirty set.
func (b *Bitstream) markDirty(col, plane int) {
	f := col*b.layout.BytesPerTile + plane
	if w, m := f>>6, uint64(1)<<(f&63); b.dirty[w]&m == 0 {
		b.dirty[w] |= m
		b.dirtyList = append(b.dirtyList, int32(f))
	}
}

// Layout returns the geometry.
func (b *Bitstream) Layout() Layout { return b.layout }

// FrameSize returns the byte length of one frame.
func (b *Bitstream) FrameSize() int { return b.layout.Rows }

// FrameCount returns the total number of frames.
func (b *Bitstream) FrameCount() int { return b.layout.Cols * b.layout.BytesPerTile }

func (b *Bitstream) tileOffset(row, col int) (int, error) {
	if row < 0 || row >= b.layout.Rows || col < 0 || col >= b.layout.Cols {
		return 0, fmt.Errorf("bitstream: tile (%d,%d) outside %dx%d array",
			row, col, b.layout.Rows, b.layout.Cols)
	}
	return (row*b.layout.Cols + col) * b.layout.BytesPerTile, nil
}

// SetBit sets one configuration bit of a tile. bit indexes the tile's
// configuration space [0, 8*BytesPerTile).
func (b *Bitstream) SetBit(row, col, bit int, v bool) error {
	off, err := b.tileOffset(row, col)
	if err != nil {
		return err
	}
	if bit < 0 || bit >= 8*b.layout.BytesPerTile {
		return fmt.Errorf("bitstream: bit %d outside tile config space (%d bits)",
			bit, 8*b.layout.BytesPerTile)
	}
	idx := off + bit/8
	mask := byte(1) << (bit % 8)
	old := b.data[idx]
	if v {
		b.data[idx] = old | mask
	} else {
		b.data[idx] = old &^ mask
	}
	if b.data[idx] != old {
		b.markDirty(col, bit/8)
	}
	return nil
}

// GetBit reads one configuration bit of a tile.
func (b *Bitstream) GetBit(row, col, bit int) (bool, error) {
	off, err := b.tileOffset(row, col)
	if err != nil {
		return false, err
	}
	if bit < 0 || bit >= 8*b.layout.BytesPerTile {
		return false, fmt.Errorf("bitstream: bit %d outside tile config space", bit)
	}
	return b.data[off+bit/8]&(1<<(bit%8)) != 0, nil
}

// SetBits writes a little-endian field of up to 64 bits starting at
// startBit of the tile's configuration space (used for LUT truth tables).
func (b *Bitstream) SetBits(row, col, startBit, width int, v uint64) error {
	if width < 0 || width > 64 {
		return fmt.Errorf("bitstream: field width %d", width)
	}
	for i := 0; i < width; i++ {
		if err := b.SetBit(row, col, startBit+i, v&(1<<i) != 0); err != nil {
			return err
		}
	}
	return nil
}

// GetBits reads a little-endian field of up to 64 bits.
func (b *Bitstream) GetBits(row, col, startBit, width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bitstream: field width %d", width)
	}
	var v uint64
	for i := 0; i < width; i++ {
		bit, err := b.GetBit(row, col, startBit+i)
		if err != nil {
			return 0, err
		}
		if bit {
			v |= 1 << i
		}
	}
	return v, nil
}

func (b *Bitstream) frameIndexOK(fa FrameAddr) error {
	if fa.Col < 0 || fa.Col >= b.layout.Cols || fa.Plane < 0 || fa.Plane >= b.layout.BytesPerTile {
		return fmt.Errorf("bitstream: frame %+v outside device", fa)
	}
	return nil
}

// Frame returns a copy of one frame's bytes (row 0 first). This is also the
// readback operation: BoardScope-style tools read device state this way.
func (b *Bitstream) Frame(fa FrameAddr) ([]byte, error) {
	if err := b.frameIndexOK(fa); err != nil {
		return nil, err
	}
	out := make([]byte, b.layout.Rows)
	for r := 0; r < b.layout.Rows; r++ {
		out[r] = b.data[(r*b.layout.Cols+fa.Col)*b.layout.BytesPerTile+fa.Plane]
	}
	return out, nil
}

// LoadFrame overwrites one frame. The frame is marked dirty only if its
// contents changed.
func (b *Bitstream) LoadFrame(fa FrameAddr, frame []byte) error {
	if err := b.frameIndexOK(fa); err != nil {
		return err
	}
	if len(frame) != b.layout.Rows {
		return fmt.Errorf("bitstream: frame length %d, want %d", len(frame), b.layout.Rows)
	}
	changed := false
	for r := 0; r < b.layout.Rows; r++ {
		idx := (r*b.layout.Cols+fa.Col)*b.layout.BytesPerTile + fa.Plane
		if b.data[idx] != frame[r] {
			b.data[idx] = frame[r]
			changed = true
		}
	}
	if changed {
		b.markDirty(fa.Col, fa.Plane)
	}
	return nil
}

// DirtyFrames returns the addresses of frames modified since the last
// ClearDirty, in deterministic (column, plane) order.
func (b *Bitstream) DirtyFrames() []FrameAddr {
	out := make([]FrameAddr, len(b.dirtyList))
	bpt := b.layout.BytesPerTile
	for i, f := range b.dirtyList {
		out[i] = FrameAddr{Col: int(f) / bpt, Plane: int(f) % bpt}
	}
	slices.SortFunc(out, func(x, y FrameAddr) int {
		if x.Col != y.Col {
			return x.Col - y.Col
		}
		return x.Plane - y.Plane
	})
	return out
}

// DirtyCount returns the number of dirty frames.
func (b *Bitstream) DirtyCount() int { return len(b.dirtyList) }

// ClearDirty forgets the dirty set (after a partial bitstream has been
// generated and shipped).
func (b *Bitstream) ClearDirty() {
	for _, f := range b.dirtyList {
		b.dirty[f>>6] = 0
	}
	b.dirtyList = b.dirtyList[:0]
}

// Clone returns a deep copy with an empty dirty set (a "golden" snapshot).
func (b *Bitstream) Clone() *Bitstream {
	c := &Bitstream{layout: b.layout, data: make([]byte, len(b.data)), dirty: make([]uint64, len(b.dirty))}
	copy(c.data, b.data)
	return c
}

// Equal reports whether two bitstreams have identical layout and contents.
func (b *Bitstream) Equal(o *Bitstream) bool {
	if b.layout != o.layout {
		return false
	}
	for i := range b.data {
		if b.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// DiffFrames returns the frames in which b and o differ.
func (b *Bitstream) DiffFrames(o *Bitstream) ([]FrameAddr, error) {
	if b.layout != o.layout {
		return nil, fmt.Errorf("bitstream: layout mismatch %+v vs %+v", b.layout, o.layout)
	}
	var out []FrameAddr
	for c := 0; c < b.layout.Cols; c++ {
		for p := 0; p < b.layout.BytesPerTile; p++ {
			fa := FrameAddr{Col: c, Plane: p}
			fb, _ := b.Frame(fa)
			fo, _ := o.Frame(fa)
			for r := range fb {
				if fb[r] != fo[r] {
					out = append(out, fa)
					break
				}
			}
		}
	}
	return out, nil
}
