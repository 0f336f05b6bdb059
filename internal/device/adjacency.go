package device

import (
	"sync"
	"sync/atomic"

	"repro/internal/arch"
)

// PIPChoice is one architecture-legal expansion from a track: the PIP to
// turn on, the canonical track it drives, and two fields every search inner
// loop would otherwise re-derive per expansion — the target's compact track
// index and its resource kind.
type PIPChoice struct {
	P      PIP
	Target Track
	TIdx   int32     // TrackIndex(Target) on the owning geometry
	Kind   arch.Kind // ClassOf(Target.W).Kind, cached
}

// adjCache is the lazily-filled PIP-choice adjacency for one (arch, rows,
// cols) geometry. Choices depend only on the architecture's connectivity
// rules and the array bounds — never on routing state — so one cache is
// shared by every device of the same geometry, and concurrent readers need
// no locks: slots are published with atomic pointers, and a racing double
// derivation is benign (both goroutines compute identical slices).
type adjCache struct {
	slots []atomic.Pointer[[]PIPChoice]
}

// archKey identifies an architecture by its *parameters*, not pointer:
// constructors like NewVirtex return a fresh *Arch per call, and devices of
// equal parameters must share per-architecture tables (same parameters
// imply the same wire layout and connectivity tables).
type archKey struct {
	name             string
	singles, hexes   int
	hexLen, numLong  int
	longPeriod       int
	bidiHex, bramCol int
}

func archKeyOf(a *arch.Arch) archKey {
	return archKey{
		name: a.Name, singles: a.SinglesPerDir, hexes: a.HexesPerDir,
		hexLen: a.HexLen, numLong: a.NumLong, longPeriod: a.LongAccessPeriod,
		bidiHex: a.BidiHexPeriod, bramCol: a.BRAMColumnPeriod,
	}
}

// adjKey identifies a geometry: an architecture and an array size.
type adjKey struct {
	archKey
	rows, cols int
}

var (
	adjMu  sync.Mutex
	adjTab = map[adjKey]*adjCache{}
)

// adjCacheFor returns the shared adjacency cache for a geometry, creating
// it (empty) on first use. The table is bounded: geometries are few in any
// real run, but property tests churn through many sizes, so it is reset
// when it grows past a generous cap rather than growing without limit.
func adjCacheFor(a *arch.Arch, rows, cols int) *adjCache {
	k := adjKey{archKeyOf(a), rows, cols}
	adjMu.Lock()
	defer adjMu.Unlock()
	if c, ok := adjTab[k]; ok {
		return c
	}
	if len(adjTab) >= 64 {
		adjTab = map[adjKey]*adjCache{}
	}
	c := &adjCache{slots: make([]atomic.Pointer[[]PIPChoice], rows*cols*a.WireCount())}
	adjTab[k] = c
	return c
}

// PIPChoices returns the legal PIP expansions from canonical track t as a
// flat cached slice: at each tap tile of t, each architecture-legal target
// that can be driven there. Targets that already have a driver are
// included (the caller decides whether reuse or avoidance applies; see
// DrivenIdx); targets that would leave the array are not. The slice is
// shared and must not be mutated. First access derives it from the
// architecture rules; later accesses — from any device of the same
// geometry, on any goroutine — are a single atomic load.
func (d *Device) PIPChoices(t Track) []PIPChoice {
	idx := d.TrackIndex(t)
	if idx < 0 || int(idx) >= len(d.adjc.slots) {
		return nil
	}
	slot := &d.adjc.slots[idx]
	if p := slot.Load(); p != nil {
		return *p
	}
	choices := d.derivePIPChoices(t)
	slot.Store(&choices)
	return choices
}

// PIPChoicesAt is PIPChoices for the track with compact index i (see
// TrackIndex), for search loops that carry indices, not tracks: a cached
// slot costs no index arithmetic at all.
func (d *Device) PIPChoicesAt(i int32) []PIPChoice {
	if i < 0 || int(i) >= len(d.adjc.slots) {
		return nil
	}
	if p := d.adjc.slots[i].Load(); p != nil {
		return *p
	}
	return d.PIPChoices(d.TrackOf(i))
}

// maxStackChoices bounds the stack buffer derivePIPChoices collects into;
// a track with more choices (a long line on a wide array) spills to the
// heap once before the exact-size copy.
const maxStackChoices = 256

// derivePIPChoices is the uncached derivation: walk the track's tap tiles,
// resolve its local name there, and keep each architecture-legal fanout
// target that exists on the array and may be driven at that tile. The
// choices are collected in a stack buffer, not shared scratch (workers
// derive concurrently), and returned as one exactly-sized slice, so a
// cached slot holds no unused capacity.
func (d *Device) derivePIPChoices(t Track) []PIPChoice {
	var buf [maxStackChoices]PIPChoice
	out := buf[:0]
	for _, tap := range d.Taps(t) {
		f := d.LocalName(t, tap)
		if f == arch.Invalid {
			continue
		}
		for _, toW := range d.A.LocalFanout(f) {
			to, ok := d.CanonOK(tap.Row, tap.Col, toW)
			if !ok {
				continue
			}
			if !d.DriveAllowedAt(to, tap) {
				continue
			}
			out = append(out, PIPChoice{
				P:      PIP{tap.Row, tap.Col, f, toW},
				Target: to,
				TIdx:   d.TrackIndex(to),
				Kind:   d.A.ClassOf(to.W).Kind,
			})
		}
	}
	return append(make([]PIPChoice, 0, len(out)), out...)
}
