package device

import (
	"fmt"
	"math/bits"

	"repro/internal/arch"
	"repro/internal/bitstream"
)

// ContentionError reports an attempt to drive a track that already has a
// different driver. "The Virtex architecture has bi-directional routing
// resources ... leading to the possibility of contention. The router makes
// sure that this situation does not occur, and therefore protects the
// device. An exception is thrown in cases where the user tries to make
// connections that create contention." (§3.4)
type ContentionError struct {
	Track    Track  // the doubly-driven track
	Existing PIP    // the PIP already driving it
	Attempt  PIP    // the rejected PIP
	Name     string // human-readable track name
}

// Error implements the error interface.
func (e *ContentionError) Error() string {
	return fmt.Sprintf("contention on %s at (%d,%d): already driven by PIP %v, attempted %v",
		e.Name, e.Track.Row, e.Track.Col, e.Existing, e.Attempt)
}

// Device is one configured FPGA.
//
// A Device is safe for concurrent *reads* (DriverOf, DrivenIdx, IsOn, PIPChoices,
// Canon...); mutating calls (SetPIP, ClearPIP, LUT/BRAM configuration) must
// not run concurrently with anything else. The parallel batch router relies
// on this: its workers only read, and all commits happen on one goroutine.
type Device struct {
	A          *arch.Arch
	Rows, Cols int

	wireCount int       // cached d.A.WireCount() for TrackIndex
	adjc      *adjCache // PIP-choice adjacency, shared per (arch, size)

	bits     *bitstream.Bitstream
	layout   *bitLayout    // shared per architecture; see layoutFor
	driver   map[Key]PIP   // canonical track -> the PIP driving it
	fanout   map[Key][]PIP // canonical track -> on-PIPs sourced from it
	driven   []uint64      // occupancy bitset by TrackIndex: bit set iff driver has the track
	luts     map[lutKey]uint16
	ffInit   map[lutKey]bool
	lutUsed  map[lutKey]bool
	bramInit map[Coord][arch.BRAMWords]byte
	bramUsed map[Coord]bool
}

type lutKey struct {
	Row, Col int
	N        int // LUT 0..3 (S0F, S0G, S1F, S1G) / FF 0..3 (S0XQ, S0YQ, S1XQ, S1YQ)
}

// New creates a device of the given array size. Virtex arrays range from
// 16x24 to 64x96 (§2), but any positive size at least twice the hex length
// is accepted.
func New(a *arch.Arch, rows, cols int) (*Device, error) {
	if min := 2 * a.HexLen; rows < min || cols < min {
		return nil, fmt.Errorf("device: array %dx%d too small for %s (need at least %dx%d)",
			rows, cols, a.Name, min, min)
	}
	d := &Device{
		A:        a,
		Rows:     rows,
		Cols:     cols,
		driver:   make(map[Key]PIP),
		fanout:   make(map[Key][]PIP),
		luts:     make(map[lutKey]uint16),
		ffInit:   make(map[lutKey]bool),
		lutUsed:  make(map[lutKey]bool),
		bramInit: make(map[Coord][arch.BRAMWords]byte),
		bramUsed: make(map[Coord]bool),
	}
	d.layout = layoutFor(a)
	bits, err := bitstream.New(bitstream.Layout{
		Rows: rows, Cols: cols, BytesPerTile: d.layout.bytesPerTile,
	})
	if err != nil {
		return nil, err
	}
	d.bits = bits
	d.wireCount = a.WireCount()
	d.adjc = adjCacheFor(a, rows, cols)
	d.driven = make([]uint64, (d.NumTracks()+63)/64)
	return d, nil
}

// NumTracks is the size of the compact track-index space: every canonical
// track of this device has a unique index in [0, NumTracks). The space is
// addressed arithmetically (tile-major, wire-minor), so non-canonical wire
// numbers leave unused slots — the point is O(1) slice indexing for search
// scratch state, not density.
func (d *Device) NumTracks() int { return d.Rows * d.Cols * d.wireCount }

// TrackIndex maps a canonical track to its compact per-device index;
// TrackOf is the inverse.
func (d *Device) TrackIndex(t Track) int32 {
	return int32((t.Row*d.Cols+t.Col)*d.wireCount + int(t.W))
}

// TrackOf is the inverse of TrackIndex for i in [0, NumTracks): the track
// whose compact index is i.
func (d *Device) TrackOf(i int32) Track {
	tile, w := int(i)/d.wireCount, int(i)%d.wireCount
	return Track{Row: tile / d.Cols, Col: tile % d.Cols, W: arch.Wire(w)}
}

// DrivenIdx reports whether the track with compact index i (see
// TrackIndex) has a driver — the §3.4 contention guard as one bit test,
// for search inner loops that already hold the index. Use DriverOf when
// the driving PIP itself is needed.
func (d *Device) DrivenIdx(i int32) bool {
	return d.driven[i>>6]&(1<<(uint(i)&63)) != 0
}

// setDriver records p as the driver of track to (compact index i), in the
// driver map and the occupancy bitset together.
func (d *Device) setDriver(to Track, i int32, p PIP) {
	d.driver[to.Key()] = p
	d.driven[i>>6] |= 1 << (uint(i) & 63)
}

// clearDriver forgets track to's driver in both the map and the bitset.
func (d *Device) clearDriver(to Track, i int32) {
	delete(d.driver, to.Key())
	d.driven[i>>6] &^= 1 << (uint(i) & 63)
}

// Size returns the array dimensions.
func (d *Device) Size() (rows, cols int) { return d.Rows, d.Cols }

// PIPString renders a PIP with wire names, paper style.
func (d *Device) PIPString(p PIP) string {
	return fmt.Sprintf("(%d,%d) %s -> %s", p.Row, p.Col, d.A.WireName(p.From), d.A.WireName(p.To))
}

// validatePIP resolves and legality-checks a PIP, returning the canonical
// source and target tracks.
func (d *Device) validatePIP(p PIP) (from, to Track, err error) {
	if !d.A.PIPLegalLocal(p.From, p.To) {
		return from, to, fmt.Errorf("device: no PIP %s -> %s in architecture %s",
			d.A.WireName(p.From), d.A.WireName(p.To), d.A.Name)
	}
	from, err = d.Canon(p.Row, p.Col, p.From)
	if err != nil {
		return from, to, err
	}
	to, err = d.Canon(p.Row, p.Col, p.To)
	if err != nil {
		return from, to, err
	}
	at := Coord{p.Row, p.Col}
	if !d.TapAllowedAt(from, at) {
		return from, to, fmt.Errorf("device: %s cannot be tapped at (%d,%d)",
			d.A.WireName(p.From), p.Row, p.Col)
	}
	if !d.DriveAllowedAt(to, at) {
		return from, to, fmt.Errorf("device: %s cannot be driven at (%d,%d)",
			d.A.WireName(p.To), p.Row, p.Col)
	}
	return from, to, nil
}

// SetPIP turns on the connection from `from` to `to` in CLB (row, col),
// the paper's route(int row, int col, int from_wire, int to_wire) at the
// device level. Turning on a PIP that is already on is a no-op. A PIP whose
// target already has a different driver returns *ContentionError.
func (d *Device) SetPIP(row, col int, fromW, toW arch.Wire) error {
	p := PIP{row, col, fromW, toW}
	from, to, err := d.validatePIP(p)
	if err != nil {
		return err
	}
	ti := d.TrackIndex(to)
	if d.DrivenIdx(ti) {
		exist := d.driver[to.Key()]
		if exist == p {
			return nil // idempotent
		}
		return &ContentionError{Track: to, Existing: exist, Attempt: p, Name: d.A.WireName(to.W)}
	}
	d.setDriver(to, ti, p)
	d.fanout[from.Key()] = append(d.fanout[from.Key()], p)
	if bit, ok := d.layout.pipIdx(p.From, p.To); ok {
		if err := d.bits.SetBit(row, col, bit, true); err != nil {
			return err
		}
	}
	return nil
}

// ClearPIP turns off a connection. Clearing a PIP that is off is an error,
// since unrouting bookkeeping depends on exact net knowledge.
func (d *Device) ClearPIP(row, col int, fromW, toW arch.Wire) error {
	p := PIP{row, col, fromW, toW}
	from, to, err := d.validatePIP(p)
	if err != nil {
		return err
	}
	ti := d.TrackIndex(to)
	if !d.DrivenIdx(ti) || d.driver[to.Key()] != p {
		return fmt.Errorf("device: PIP %s is not on", d.PIPString(p))
	}
	d.clearDriver(to, ti)
	fk := from.Key()
	list := d.fanout[fk]
	for i, q := range list {
		if q == p {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(d.fanout, fk)
	} else {
		d.fanout[fk] = list
	}
	if bit, ok := d.layout.pipIdx(p.From, p.To); ok {
		if err := d.bits.SetBit(row, col, bit, false); err != nil {
			return err
		}
	}
	return nil
}

// PIPIsOn reports whether exactly this PIP is on.
func (d *Device) PIPIsOn(row, col int, fromW, toW arch.Wire) bool {
	to, err := d.Canon(row, col, toW)
	if err != nil {
		return false
	}
	exist, ok := d.driver[to.Key()]
	return ok && exist == (PIP{row, col, fromW, toW})
}

// IsOn is the paper's ison(int row, int col, int wire): whether the wire
// named at CLB (row, col) is currently in use, i.e. has a driver.
func (d *Device) IsOn(row, col int, w arch.Wire) bool {
	t, err := d.Canon(row, col, w)
	if err != nil {
		return false
	}
	return d.DrivenIdx(d.TrackIndex(t))
}

// InUse reports whether a track is part of any routed net: it is driven, or
// it sources at least one on-PIP (output pins, for instance, are never
// driven but are in use once routed).
func (d *Device) InUse(t Track) bool {
	if _, ok := d.driver[t.Key()]; ok {
		return true
	}
	return len(d.fanout[t.Key()]) > 0
}

// DriverOf returns the PIP driving a track, if any.
func (d *Device) DriverOf(t Track) (PIP, bool) {
	p, ok := d.driver[t.Key()]
	return p, ok
}

// FanoutOf returns the on-PIPs sourced from a track. The returned slice is
// a copy.
func (d *Device) FanoutOf(t Track) []PIP {
	list := d.fanout[t.Key()]
	if len(list) == 0 {
		return nil
	}
	out := make([]PIP, len(list))
	copy(out, list)
	return out
}

// AppendFanoutOf appends the on-PIPs sourced from t to buf and returns the
// extended slice — the allocation-free form of FanoutOf for hot traversal
// loops (net tracing, unrouting, fanout reuse).
func (d *Device) AppendFanoutOf(buf []PIP, t Track) []PIP {
	return append(buf, d.fanout[t.Key()]...)
}

// FanoutCount returns how many on-PIPs a track sources, without copying.
func (d *Device) FanoutCount(t Track) int { return len(d.fanout[t.Key()]) }

// OnPIPCount returns the number of PIPs currently on.
func (d *Device) OnPIPCount() int { return len(d.driver) }

// AllOnPIPs returns every on-PIP (order unspecified).
func (d *Device) AllOnPIPs() []PIP {
	return d.AppendAllOnPIPs(make([]PIP, 0, len(d.driver)))
}

// AppendAllOnPIPs appends every on-PIP (order unspecified) to buf and
// returns the extended slice, for callers that poll repeatedly.
func (d *Device) AppendAllOnPIPs(buf []PIP) []PIP {
	for _, p := range d.driver {
		buf = append(buf, p)
	}
	return buf
}

// CheckConsistency verifies the internal invariants of the routing state:
// every driver entry appears exactly once in its source's fanout list and
// vice versa, every on-PIP has its configuration bit set, and no track has
// more than one driver (structurally impossible, but verified against the
// bitstream), and the occupancy bitset has a track's bit set exactly when
// the track has a driver entry. It is used by property tests and
// available to debug tools.
func (d *Device) CheckConsistency() error {
	// driver -> fanout.
	for key, p := range d.driver {
		from, to, err := d.validatePIP(p)
		if err != nil {
			return fmt.Errorf("device: driver map holds invalid PIP %v: %w", p, err)
		}
		if to.Key() != key {
			return fmt.Errorf("device: driver map key %v does not match PIP target %v", TrackOfKey(key), to)
		}
		if !d.DrivenIdx(d.TrackIndex(to)) {
			return fmt.Errorf("device: driven track %v has a clear occupancy bit", to)
		}
		count := 0
		for _, q := range d.fanout[from.Key()] {
			if q == p {
				count++
			}
		}
		if count != 1 {
			return fmt.Errorf("device: PIP %v appears %d times in fanout of %v", p, count, from)
		}
		if bit, ok := d.layout.pipIdx(p.From, p.To); ok {
			v, err := d.bits.GetBit(p.Row, p.Col, bit)
			if err != nil {
				return err
			}
			if !v {
				return fmt.Errorf("device: on-PIP %v has a clear configuration bit", p)
			}
		}
	}
	// fanout -> driver.
	total := 0
	for key, list := range d.fanout {
		for _, p := range list {
			total++
			to, ok := d.CanonOK(p.Row, p.Col, p.To)
			if !ok {
				return fmt.Errorf("device: fanout holds invalid PIP %v", p)
			}
			if got, okd := d.driver[to.Key()]; !okd || got != p {
				return fmt.Errorf("device: fanout PIP %v missing from driver map", p)
			}
			from, ok := d.CanonOK(p.Row, p.Col, p.From)
			if !ok || from.Key() != key {
				return fmt.Errorf("device: fanout PIP %v filed under wrong source %v", p, TrackOfKey(key))
			}
		}
	}
	if total != len(d.driver) {
		return fmt.Errorf("device: %d fanout PIPs vs %d drivers", total, len(d.driver))
	}
	// bitset -> driver: with every driver's bit set (checked above), equal
	// counts mean no bit is set without a driver.
	set := 0
	for _, w := range d.driven {
		set += bits.OnesCount64(w)
	}
	if set != len(d.driver) {
		return fmt.Errorf("device: %d occupancy bits set vs %d drivers", set, len(d.driver))
	}
	return nil
}

// PIPChoicesFrom collects the PIPs of PIPChoices(t) into a fresh slice.
func (d *Device) PIPChoicesFrom(t Track) []PIP {
	var out []PIP
	for _, c := range d.PIPChoices(t) {
		out = append(out, c.P)
	}
	return out
}
