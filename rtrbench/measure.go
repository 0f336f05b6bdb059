package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/oracle"
)

// report is what one child process hands back to the parent as a single
// JSON line: its set-up time, the correctness evidence, the end-to-end
// figures of its timed window and, for a traced child, the per-layer
// figures.
type report struct {
	SetupS    float64            `json:"setup_s"`
	RefHash   string             `json:"ref_hash"`             // bitstream FNV at the workload's reference state
	FinalHash string             `json:"final_hash,omitempty"` // the same state re-reached after the window
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	WindowS   float64            `json:"window_s"`
	OpsPerS   float64            `json:"ops_per_s"`
	OpP50us   float64            `json:"op_p50_us"`
	OpTailus  float64            `json:"op_tail_us"`
	TailQ     float64            `json:"tail_q"`
	Samples   int                `json:"samples"`
	RSSMB     float64            `json:"rss_peak_mb"`
	PIPsNet   float64            `json:"pips_per_net"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Params    map[string]any     `json:"params"`
}

// finish fills the end-to-end figures shared by every workload from the
// window's per-op latencies and the ops it completed.
func (r *report) finish(lat []time.Duration, ops int, wall time.Duration, tailQ float64) {
	r.WindowS = wall.Seconds()
	r.OpsPerS = float64(ops) / wall.Seconds()
	r.Samples = len(lat)
	r.TailQ = tailQ
	sortDurations(lat)
	r.OpP50us = us(quantile(lat, 0.50))
	r.OpTailus = us(quantile(lat, tailQ))
	r.RSSMB = peakRSSMB()
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// p50 sorts samples in place and returns their median.
func p50(d []time.Duration) time.Duration {
	sortDurations(d)
	return quantile(d, 0.5)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is num/den, 0 when the layer saw no work (den == 0): a bypassed
// layer reads as zero rather than as a missing metric.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(string(fields[0]), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// fnvHex is the FNV-1a 64 hash of a bitstream, as hex.
func fnvHex(streams ...[]byte) string {
	h := fnv.New64a()
	for _, s := range streams {
		h.Write(s)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// claim converts a workload net to the oracle's endpoint-level claim.
func claim(src core.Pin, sinks ...core.Pin) oracle.Claim {
	c := oracle.Claim{Source: oracle.Pin{Row: src.Row, Col: src.Col, W: src.W}}
	for _, s := range sinks {
		c.Sinks = append(c.Sinks, oracle.Pin{Row: s.Row, Col: s.Col, W: s.W})
	}
	return c
}

// audit runs the bitstream oracle over a board's full configuration
// against the nets the workload believes are live.
func audit(a *arch.Arch, stream []byte, claims []oracle.Claim) error {
	if err := oracle.Audit(a, stream, claims, false); err != nil {
		return fmt.Errorf("oracle audit of %d live nets: %w", len(claims), err)
	}
	return nil
}

// collect runs a full garbage collection just before a timed window, as
// the testing package does before a benchmark, so every window starts its
// GC pacing from a collected heap instead of wherever set-up left it.
func collect() { runtime.GC() }

// runtimeMark snapshots the Go runtime counters the traced run reports.
type runtimeMark struct {
	mallocs      uint64
	gcCPU, total float64
}

func markRuntime() runtimeMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	m := runtimeMark{mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		m.total = s[1].Value.Float64()
	}
	return m
}

func (m runtimeMark) sub(o runtimeMark) runtimeMark {
	return runtimeMark{mallocs: m.mallocs - o.mallocs, gcCPU: m.gcCPU - o.gcCPU, total: m.total - o.total}
}

func (m runtimeMark) add(o runtimeMark) runtimeMark {
	return runtimeMark{mallocs: m.mallocs + o.mallocs, gcCPU: m.gcCPU + o.gcCPU, total: m.total + o.total}
}

// addRuntime records allocations per op and the GC's share of CPU time
// between two marks.
func addRuntime(layers map[string]float64, from, to runtimeMark, ops int) {
	layers["runtime.allocs_per_op"] = float64(to.mallocs-from.mallocs) / float64(max(ops, 1))
	if cpu := to.total - from.total; cpu > 0 {
		layers["runtime.gc_cpu_fraction"] = (to.gcCPU - from.gcCPU) / cpu
	} else {
		layers["runtime.gc_cpu_fraction"] = 0
	}
}
