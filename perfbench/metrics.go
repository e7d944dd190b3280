package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract and must match BENCHMARK.json (a self-test
// compares them).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a planner's user sees, reported with
// --trace 0 by every workload. A "unit" of work is one pass for the batch
// workloads and one job for serve-mix.
var endToEnd = []metricDef{
	{"setup_s", "s"},      // median of several set-ups in the run
	{"plan_s", "s"},       // median wall time per pass, mean per job on serve-mix
	{"job_p90_s", "s"},    // 90th percentile wall time per unit
	{"jobs_per_s", "1/s"}, // units completed per second of measuring
	{"cpu_s", "s"},        // mean user+sys CPU per unit
	{"alloc_mb", "MB"},    // mean bytes allocated per unit
	{"max_rss_mb", "MB"},  // peak resident memory of the process
	{"servers", "count"},  // plan quality
}

// perLayer are the traced run's per-module metrics. Workloads that
// bypass a module report 0 for it.
var perLayer = []metricDef{
	{"workload.gen_s", "s"},
	{"trace.read_csv_s", "s"},
	{"trace.csv_mb", "MB"},
	{"trace.validate_s", "s"},
	{"portfolio.translate_s", "s"},
	{"portfolio.translations", "count"},
	{"portfolio.cap_iterations", "count"},
	{"partition.split_s", "s"},
	{"partition.groups", "count"},
	{"placement.consolidate_s", "s"},
	{"placement.consolidate_cpu_s", "s"},
	{"placement.evaluate_s", "s"},
	{"placement.evaluate_alloc_mb", "MB"},
	{"ga.generations", "count"},
	{"ga.offspring", "count"},
	{"placement.eval_cache_hit_ratio", "ratio"},
	{"placement.shared_cache_hit_ratio", "ratio"},
	{"sim.aggregate_s", "s"},
	{"sim.aggregate_alloc_b", "B"},
	{"sim.search_s", "s"},
	{"sim.replay_s", "s"},
	{"sim.searches", "count"},
	{"sim.search_iterations", "count"},
	{"sim.replays", "count"},
	{"sim.replay_slots", "count"},
	{"failure.analyze_s", "s"},
	{"failure.scenarios", "count"},
	{"failure.infeasible", "count"},
	{"failure.shared_cache_hit_ratio", "ratio"},
	{"report.json_s", "s"},
	{"report.json_mb", "MB"},
	{"serve.submit_s", "s"},
	{"serve.queue_wait_s", "s"},
	{"serve.run_s", "s"},
	{"serve.notify_lag_s", "s"},
	{"serve.shed", "count"},
	{"checkpoint.records", "count"},
	{"lease.acquired", "count"},
	{"parallel.utilization", "ratio"},
	{"gc.cpu_frac", "ratio"},
	{"gc.cycles", "count"},
	{"gc.pause_s", "s"},
	{"telemetry.overhead_frac", "ratio"},
}

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio returns a/(a+b), or 0 when both are 0.
func ratio(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	wall       time.Time
	cpu        time.Duration // user + sys
	allocBytes uint64        // cumulative heap allocation
	gcCycles   uint64
	gcPause    time.Duration
	gcCPU      float64 // cumulative GC CPU seconds (runtime estimate)
	usedCPU    float64 // cumulative non-idle CPU seconds (runtime estimate)
	// busyTicks and stealTicks are the whole machine's cumulative busy
	// and stolen CPU time from /proc/stat (0 where it is unreadable).
	busyTicks, stealTicks uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

// readUsage samples the counters. It stops the world once, for MemStats
// (allocation and GC pause totals).
func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	busy, steal := cpuTicks()
	return usage{
		busyTicks:  busy,
		stealTicks: steal,
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		gcCycles:   s[0].Value.Uint64(),
		gcPause:    time.Duration(ms.PauseTotalNs),
		gcCPU:      s[1].Value.Float64(),
		usedCPU:    s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

// cpuTicks reads the machine's busy (user, nice, system, irq, softirq)
// and steal time from the first line of /proc/stat.
func cpuTicks() (busy, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(f[i+1], 10, 64) // a malformed field reads 0
	}
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7]
}

// heapAllocs returns the bytes allocated on the heap since the process
// started. runtime/metrics reads small allocations late (they are
// counted when a per-P cache is flushed), so this stops the world to
// read MemStats, which flushes the caches first.
func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// delta is the resource use between two readings.
type delta struct {
	wall, cpu, gcPause time.Duration
	// stolen is the share of the machine's runnable CPU time the
	// hypervisor gave to other guests.
	stolen         float64
	allocBytes     uint64
	gcCycles       uint64
	gcCPU, usedCPU float64
}

func (u usage) to(v usage) delta {
	stolen := 0.0
	if busy, steal := v.busyTicks-u.busyTicks, v.stealTicks-u.stealTicks; busy+steal > 0 {
		stolen = float64(steal) / float64(busy+steal)
	}
	return delta{
		stolen:     stolen,
		wall:       v.wall.Sub(u.wall),
		cpu:        v.cpu - u.cpu,
		gcPause:    v.gcPause - u.gcPause,
		allocBytes: v.allocBytes - u.allocBytes,
		gcCycles:   v.gcCycles - u.gcCycles,
		gcCPU:      v.gcCPU - u.gcCPU,
		usedCPU:    v.usedCPU - u.usedCPU,
	}
}

// steady scales a wall time measured over d to the time it would have
// taken without the CPU time the hypervisor stole from this machine for
// other guests. On a shared cloud host that steal varies from minute to
// minute and would otherwise dominate run-to-run spread; where none is
// reported the time is unchanged.
func (d delta) steady(wall time.Duration) float64 { return wall.Seconds() * (1 - d.stolen) }

// maxRSSMB returns the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostFacts describes where a run happened; every output carries it.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func readHostFacts(seed int64) hostFacts {
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
		Seed:       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source revision; a checkout without git history
// (or without git) reports "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
