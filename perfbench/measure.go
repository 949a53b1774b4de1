package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cpuTime is the benchmark process's own CPU time, user plus system,
// summed over all its threads (worker goroutines and the garbage
// collector included). Host time is measured this way rather than by
// the wall clock because on a shared VM the wall clock also counts the
// time the hypervisor gives this vCPU to someone else (steal), which
// the process's CPU time does not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentBytes is the process's resident set now, from the second
// field of /proc/self/statm (resident pages).
func residentBytes() uint64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		panic(fmt.Sprintf("reading resident set: %v", err))
	}
	var size, resident uint64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		panic(fmt.Sprintf("parsing /proc/self/statm %q: %v", data, err))
	}
	return resident * uint64(os.Getpagesize())
}

// allocBytes is the cumulative count of heap bytes allocated by the
// process (runtime.MemStats.TotalAlloc). ReadMemStats flushes every
// per-P cache, so the count is exact at the instant it is read.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// sample is the cost of one op: host CPU time, wall time and heap bytes
// allocated while it ran.
type sample struct {
	cpu   time.Duration
	wall  time.Duration
	alloc uint64
}

// meter takes the three readings around one op. The allocation counter
// is read outside the CPU window, so its stop-the-world pause is not
// charged to the op.
type meter struct {
	a0   uint64
	c0   time.Duration
	wall time.Time
}

func startMeter() meter {
	a0 := allocBytes()
	return meter{a0: a0, c0: cpuTime(), wall: time.Now()}
}

func (m meter) stop() sample {
	wall := time.Since(m.wall)
	cpu := cpuTime() - m.c0
	return sample{cpu: cpu, wall: wall, alloc: allocBytes() - m.a0}
}

// minTailBeyond is how many samples must lie beyond a tail percentile
// for it to be reported; minTailSamples is the sample count below which
// only the median is reported.
const (
	minTailBeyond  = 10
	minTailSamples = 40
)

// tailOK reports whether a percentile q (0 < q < 1) of n samples may be
// reported as a tail: at least minTailSamples samples, and at least
// minTailBeyond of them ranked above position ceil(q*n).
func tailOK(n int, q float64) bool {
	if n < minTailSamples {
		return false
	}
	return n-int(math.Ceil(q*float64(n))) >= minTailBeyond
}

// minSamplesForTail is the smallest sample count at which tailOK(n, q)
// holds.
func minSamplesForTail(q float64) int {
	n := minTailSamples
	for !tailOK(n, q) {
		n++
	}
	return n
}

// percentile returns the q-quantile of xs (0 < q < 1). The median
// (q = 0.5) is always reported; any higher q is a tail and is refused
// unless tailOK holds.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if q != 0.5 && !tailOK(n, q) {
		return 0, fmt.Errorf("p%g of %d samples: need %d samples so that %d lie beyond it",
			100*q, n, minSamplesForTail(q), minTailBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return harrellDavis(s, q), nil
}

// harrellDavis is the Harrell–Davis estimate of the q-quantile of
// sorted samples: the mean of the order statistics weighted by the
// Beta((n+1)q, (n+1)(1-q)) distribution, so that a percentile is an
// average of its neighbouring samples rather than one of them. Ops of a
// round are a mixture of op types with gaps between their costs (in
// corun the twolf self-pair is 1 op in 21, just under 5%), and a single
// order statistic next to such a gap flips from one side to the other
// with one slow op.
func harrellDavis(sorted []float64, q float64) float64 {
	n := len(sorted)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i := 1; i <= n; i++ {
		cur := regIncBeta(a, b, float64(i)/float64(n))
		est += (cur - prev) * sorted[i-1]
		prev = cur
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated with the continued fraction of Numerical Recipes §6.4.
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the incomplete beta continued fraction by Lentz's
// method.
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1; m <= 100000; m++ {
		fm, m2 := float64(m), float64(2*m)
		aa := fm * (b - fm) * x / ((a - 1 + m2) * (a + m2))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + fm) * (a + b + fm) * x / ((a + m2) * (a + 1 + m2))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return h
}

// median is percentile(xs, 0.5) for callers that know xs is non-empty.
func median(xs []float64) float64 {
	v, err := percentile(xs, 0.5)
	if err != nil {
		panic(err)
	}
	return v
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd reduces a run's samples to the end-to-end metrics. setups
// are the CPU times of the repeated set-ups; samples, the timed ops;
// instrs, the simulated instructions the ops committed; rss, the
// process's peak resident set in each round. sweep_ms is an op's wall-clock time when
// a client waits on a service (wall), and its host CPU time otherwise.
func endToEnd(setups []time.Duration, samples []sample, instrs uint64, rss []float64, wall bool) (map[string]metric, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("no ops were timed")
	}
	setup := make([]float64, len(setups))
	for i, d := range setups {
		setup[i] = d.Seconds()
	}
	var cpu time.Duration
	var alloc uint64
	opCPU := make([]float64, len(samples))
	latency := make([]float64, len(samples))
	for i, s := range samples {
		cpu += s.cpu
		alloc += s.alloc
		opCPU[i] = float64(s.cpu) / 1e6
		latency[i] = opCPU[i]
		if wall {
			latency[i] = float64(s.wall) / 1e6
		}
	}
	if cpu <= 0 {
		return nil, fmt.Errorf("timed ops used no CPU time")
	}
	p95, err := percentile(latency, 0.95)
	if err != nil {
		return nil, fmt.Errorf("sweep_ms_p95: %w", err)
	}
	n := float64(len(samples))
	return map[string]metric{
		"setup_s":         {median(setup), "s"},
		"ops_per_cpu_s":   {n / cpu.Seconds(), "1/s"},
		"sim_mips":        {float64(instrs) / cpu.Seconds() / 1e6, "Minstr/s"},
		"op_cpu_ms_p50":   {median(opCPU), "ms"},
		"sweep_ms_p50":    {median(latency), "ms"},
		"sweep_ms_p95":    {p95, "ms"},
		"alloc_mb_per_op": {float64(alloc) / n / 1e6, "MB"},
		"rss_peak_mb":     {median(rss) / 1e6, "MB"},
	}, nil
}
