// Command rtrbench is the repository benchmark: three seeded, closed-loop
// workloads over the run-time routing stack, each measured in fresh
// processes, with an oracle and bitstream-hash gate on every run.
//
//	rtr_replay       jrouted + 2 v3 client sessions cycling a fixed fan-out
//	                 working set (route cache replays, wire, dirty frames)
//	rtr_search       in-process core.Router under fresh-pair churn, shipping
//	                 a partial bitstream after every op (templates, A*)
//	batch_clustered  negotiated, partition-parallel RouteBusBatch of
//	                 clustered knots on 256x384 (maze negotiation, GC)
//
// Usage, from the repository root (run.py builds this package first):
//
//	rtrbench --workload rtr_search --seed 1 --seconds 15 --trace 0
//
// The process given those flags only orchestrates. It starts one fresh
// child process for the timed window, setupProbes more that only set up
// (device.New caches per-geometry state process-wide, so a second set-up
// in one process would hide its cost), and with --trace 1 a traced child
// too. Every child reports the FNV hash of its reference bitstream; they
// must agree. The last line of standard output is the result JSON; a
// failed check exits 1 without it.
//
// Seed heldOutSeed is reserved for confirming a claimed gain and is not
// to be used while a change is being written.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	setupProbes = 2    // set-up-only child processes per run
	heldOutSeed = 9001 // seed for confirming claims
	// childBudget bounds all child processes of one run, so the run ends
	// within the three minutes a benchmark run is allowed.
	childBudget = 170 * time.Second
)

// config is one child process's assignment.
type config struct {
	seed      int64
	window    time.Duration
	traced    bool
	setupOnly bool
}

var workloads = map[string]func(config) (*report, error){
	"rtr_replay":      runReplay,
	"rtr_search":      runSearch,
	"batch_clustered": runBatch,
}

type metricDef struct{ name, unit string }

// endToEnd is printed with --trace 0, by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_tail_us", "us"},
	{"ok_ratio", "ratio"},
	{"rss_peak_mb", "MB"},
	{"pips_per_net", "pips"},
}

// perLayer is printed with --trace 1, by every workload; a layer the
// workload bypasses reads 0.
var perLayer = []metricDef{
	{"client.encode_us", "us"},
	{"client.decode_us", "us"},
	{"server.turnaround_p50_us", "us"},
	{"server.turnaround_p99_us", "us"},
	{"v3.bytes_per_op", "bytes"},
	{"server.handle_p50_us", "us"},
	{"server.frames_per_op", "frames"},
	{"server.bytes_shipped_per_op", "bytes"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.replay_fail_ratio", "ratio"},
	{"core.route_p50_us", "us"},
	{"core.route_p99_us", "us"},
	{"core.unroute_p50_us", "us"},
	{"core.template_hit_ratio", "ratio"},
	{"core.maze_fallback_ratio", "ratio"},
	{"maze.nodes_per_search", "nodes"},
	{"maze.negotiate_ms", "ms"},
	{"core.commit_ms", "ms"},
	{"core.unroute_all_ms", "ms"},
	{"maze.iterations", "count"},
	{"maze.nodes_per_batch", "nodes"},
	{"maze.regions", "count"},
	{"maze.crossing_nets", "count"},
	{"device.new_ms", "ms"},
	{"device.adjacency_ms", "ms"},
	{"device.pips_set_per_op", "pips"},
	{"device.pips_cleared_per_op", "pips"},
	{"bitstream.partial_us", "us"},
	{"bitstream.dirty_frames_per_op", "frames"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.rtt_uncovered_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

func main() {
	name := flag.String("workload", "", "rtr_replay, rtr_search or batch_clustered")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "timed window per measuring process, in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	child := flag.String("child", "", "run one child role (run, setup, trace) and print its report")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "rtrbench: need --workload rtr_replay|rtr_search|batch_clustered, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second}
	if *child != "" {
		cfg.setupOnly = *child == "setup"
		cfg.traced = *child == "trace"
		rep, err := fn(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtrbench %s seed %d (%s): %v\n", *name, *seed, *child, err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			os.Exit(1)
		}
		return
	}
	if err := orchestrate(*name, cfg, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "rtrbench: %v\n", err)
		os.Exit(1)
	}
}

// orchestrate runs the child processes of one benchmark run, checks that
// they agree, and prints the environment record and the result.
func orchestrate(name string, cfg config, traced bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childBudget)
	defer cancel()
	runChild := func(role string) (*report, error) {
		cmd := exec.CommandContext(ctx, exe, "--child", role, "--workload", name,
			"--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", strconv.Itoa(int(cfg.window/time.Second)))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s %s process: %w", name, role, err)
		}
		var rep report
		if err := json.Unmarshal(bytes.TrimSpace(out), &rep); err != nil {
			return nil, fmt.Errorf("%s %s process: decoding report: %w", name, role, err)
		}
		return &rep, nil
	}

	run, err := runChild("run")
	if err != nil {
		return err
	}
	reps := []*report{run}
	setups := []float64{run.SetupS}
	for i := 0; i < setupProbes; i++ {
		r, err := runChild("setup")
		if err != nil {
			return err
		}
		reps = append(reps, r)
		setups = append(setups, r.SetupS)
	}
	var tr *report
	if traced {
		if tr, err = runChild("trace"); err != nil {
			return err
		}
		reps = append(reps, tr)
	}
	// Bitstream gate: every fresh process of this seed reaches the same
	// reference bitstream, and re-reaches it after its window.
	for _, r := range reps {
		if r.RefHash != run.RefHash {
			return fmt.Errorf("%s seed %d: reference bitstream hash %s in one process, %s in another",
				name, cfg.seed, r.RefHash, run.RefHash)
		}
		if r.FinalHash != "" && r.FinalHash != r.RefHash {
			return fmt.Errorf("%s seed %d: bitstream after the window hashes %s, reference %s",
				name, cfg.seed, r.FinalHash, r.RefHash)
		}
	}

	env := map[string]any{
		"workload":           name,
		"seed":               cfg.seed,
		"held_out_seed":      heldOutSeed,
		"seconds":            int(cfg.window / time.Second),
		"go":                 runtime.Version(),
		"goos_goarch":        runtime.GOOS + "/" + runtime.GOARCH,
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"router_parallelism": runtime.GOMAXPROCS(0), // core's default: one worker per GOMAXPROCS
		"commit":             gitCommit(),
		"source_sha256":      sourceDigest(),
		"setup_processes":    len(setups),
		"tail_percentile":    100 * run.TailQ,
		"latency_samples":    run.Samples,
		"window_s":           run.WindowS,
		"bitstream_fnv":      run.RefHash,
		"params":             run.Params,
	}
	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", envJSON)

	values := map[string]float64{}
	var defs []metricDef
	attempted, failed := run.Attempted, run.Failed
	if traced {
		defs = perLayer
		for _, d := range perLayer {
			values[d.name] = tr.Layers[d.name]
		}
		values["trace.overhead_ratio"] = 1 - tr.OpsPerS/run.OpsPerS
		attempted += tr.Attempted
		failed += tr.Failed
	} else {
		defs = endToEnd
		values["setup_s"] = median(setups)
		values["ops_per_s"] = run.OpsPerS
		values["op_p50_us"] = run.OpP50us
		values["op_tail_us"] = run.OpTailus
		values["ok_ratio"] = 1 - ratio(run.Failed, run.Attempted)
		values["rss_peak_mb"] = run.RSSMB
		values["pips_per_net"] = run.PIPsNet
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	for _, d := range defs {
		fmt.Printf("%-30s %16.4f %s\n", d.name, values[d.name], d.unit)
		out[d.name] = metric{values[d.name], d.unit}
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, attempted, failed, out})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", res)
	return nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// work tree.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under the working
// directory, skipping hidden directories (build output), so a run names
// the code it measured even where no commit is recorded.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", f)
		_, _ = io.Copy(h, fh)
		fh.Close()
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
