package device

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
)

func TestCheckConsistencyEmpty(t *testing.T) {
	d := virtexDev(t)
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckConsistencyAfterRandomOps drives a long random sequence of
// SetPIP/ClearPIP operations and verifies the invariants throughout.
func TestCheckConsistencyAfterRandomOps(t *testing.T) {
	d := virtexDev(t)
	rng := rand.New(rand.NewSource(9))
	var on []PIP
	for step := 0; step < 2000; step++ {
		if len(on) > 0 && rng.Intn(3) == 0 {
			// Clear a random on-PIP.
			j := rng.Intn(len(on))
			p := on[j]
			if err := d.ClearPIP(p.Row, p.Col, p.From, p.To); err != nil {
				t.Fatalf("step %d clear %s: %v", step, d.PIPString(p), err)
			}
			on[j] = on[len(on)-1]
			on = on[:len(on)-1]
			continue
		}
		// Try a random legal PIP from a random track.
		row, col := rng.Intn(d.Rows), rng.Intn(d.Cols)
		src, ok := d.CanonOK(row, col, arch.OutPin(rng.Intn(arch.NumOutPins)))
		if !ok {
			continue
		}
		choices := d.PIPChoicesFrom(src)
		if len(choices) == 0 {
			continue
		}
		p := choices[rng.Intn(len(choices))]
		if d.PIPIsOn(p.Row, p.Col, p.From, p.To) {
			continue // idempotent re-set would double-track it
		}
		if err := d.SetPIP(p.Row, p.Col, p.From, p.To); err == nil {
			on = append(on, p)
		}
		if step%200 == 0 {
			if err := d.CheckConsistency(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Tear everything down; the empty state must be consistent too.
	for _, p := range on {
		if err := d.ClearPIP(p.Row, p.Col, p.From, p.To); err != nil {
			t.Fatal(err)
		}
	}
	if d.OnPIPCount() != 0 {
		t.Errorf("%d PIPs left", d.OnPIPCount())
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestConsistencySurvivesBitstreamRoundTrip rebuilds state from bits and
// re-checks the invariants.
func TestConsistencySurvivesBitstreamRoundTrip(t *testing.T) {
	d := virtexDev(t)
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 200; i++ {
		src, ok := d.CanonOK(rng.Intn(d.Rows), rng.Intn(d.Cols), arch.OutPin(rng.Intn(8)))
		if !ok {
			continue
		}
		choices := d.PIPChoicesFrom(src)
		if len(choices) == 0 {
			continue
		}
		p := choices[rng.Intn(len(choices))]
		_ = d.SetPIP(p.Row, p.Col, p.From, p.To) // contention is fine, skip
	}
	before := d.OnPIPCount()
	if before == 0 {
		t.Fatal("nothing routed")
	}
	if err := d.RebuildFromBits(); err != nil {
		t.Fatal(err)
	}
	if d.OnPIPCount() != before {
		t.Errorf("rebuild changed PIP count %d -> %d", before, d.OnPIPCount())
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestOccupancyBitsetProperty drives random SetPIP / ClearPIP /
// ApplyConfig / RebuildFromBits sequences and checks after every step
// that the occupancy bitset agrees with the driver map: DrivenIdx holds
// exactly for driven tracks (CheckConsistency), and a contending SetPIP
// that is rejected leaves the target's bit and driver untouched.
func TestOccupancyBitsetProperty(t *testing.T) {
	d := virtexDev(t)
	rng := rand.New(rand.NewSource(12))
	target := func(p PIP) Track {
		to, err := d.Canon(p.Row, p.Col, p.To)
		if err != nil {
			t.Fatal(err)
		}
		return to
	}
	var snapshot []byte
	contended := 0
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(20); {
		case op == 0:
			cfg, err := d.FullConfig()
			if err != nil {
				t.Fatal(err)
			}
			snapshot = cfg
		case op == 1 && snapshot != nil:
			if err := d.ApplyConfig(snapshot); err != nil {
				t.Fatalf("step %d apply: %v", step, err)
			}
		case op == 2:
			if err := d.RebuildFromBits(); err != nil {
				t.Fatalf("step %d rebuild: %v", step, err)
			}
		case op < 8 && d.OnPIPCount() > 0:
			// AllOnPIPs order follows map iteration; sort it so the seed
			// alone fixes the op sequence.
			on := d.AllOnPIPs()
			slices.SortFunc(on, func(a, b PIP) int {
				return cmp.Or(cmp.Compare(a.Row, b.Row), cmp.Compare(a.Col, b.Col),
					cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
			})
			p := on[rng.Intn(len(on))]
			if err := d.ClearPIP(p.Row, p.Col, p.From, p.To); err != nil {
				t.Fatalf("step %d clear %s: %v", step, d.PIPString(p), err)
			}
			if d.DrivenIdx(d.TrackIndex(target(p))) {
				t.Fatalf("step %d: bit still set after clearing %s", step, d.PIPString(p))
			}
		default:
			src, ok := d.CanonOK(rng.Intn(d.Rows), rng.Intn(d.Cols), arch.OutPin(rng.Intn(arch.NumOutPins)))
			if !ok {
				continue
			}
			choices := d.PIPChoices(src)
			if len(choices) == 0 {
				continue
			}
			c := choices[rng.Intn(len(choices))]
			p := c.P
			exist, driven := d.DriverOf(c.Target)
			err := d.SetPIP(p.Row, p.Col, p.From, p.To)
			var ce *ContentionError
			switch {
			case driven && exist != p:
				if !errors.As(err, &ce) {
					t.Fatalf("step %d: contending %s not rejected: %v", step, d.PIPString(p), err)
				}
				contended++
				if got, ok := d.DriverOf(c.Target); !ok || got != exist {
					t.Fatalf("step %d: rejected SetPIP changed the driver to %v, %v", step, got, ok)
				}
			case err != nil:
				t.Fatalf("step %d set %s: %v", step, d.PIPString(p), err)
			}
			if !d.DrivenIdx(c.TIdx) {
				t.Fatalf("step %d: target of %s has a clear bit", step, d.PIPString(p))
			}
		}
		if err := d.CheckConsistency(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if contended == 0 {
		t.Error("no contending SetPIP exercised")
	}
}
