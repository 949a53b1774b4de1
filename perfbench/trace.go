package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// span is one recorded call: a layer boundary the benchmark crossed.
// Spans of one op share its Op id; Parent is the enclosing span's ID
// (-1 at the top level).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Start and End are wall-clock offsets from the tracer's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Alloc is the heap bytes allocated inside the span, recorded only
	// for the spans whose allocation is a per-layer metric.
	Alloc uint64 `json:"alloc_bytes,omitempty"`
}

// tracer records spans in memory, takes the CPU profile of the timed
// ops in segments, and sums
// the exact per-cell counts the ops' results report. The benchmark's
// goroutine is its only user. A nil *tracer records nothing, so code
// shared with the untraced pass calls it unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int

	dir      string
	segments []string
	prof     *os.File

	// counts sums exact counts over the traced ops, by name.
	counts map[string]float64
}

func newTracer(dir string) *tracer {
	return &tracer{t0: time.Now(), dir: dir, op: -1, counts: map[string]float64{}}
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: time.Since(t.t0)})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

// call runs fn inside a span.
func (t *tracer) call(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// callAlloc is call that also records the heap bytes fn allocated.
func (t *tracer) callAlloc(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	a0 := allocBytes()
	id := t.begin(name)
	err := fn()
	t.end(id)
	t.spans[id].Alloc = allocBytes() - a0
	return err
}

// add sums an exact count.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// gcFigures are the runtime's own CPU-class estimates and GC count.
type gcFigures struct {
	gc, total, idle, cycles float64
}

var gcMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readGC() gcFigures {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return gcFigures{gc: v(0), total: v(1), idle: v(2), cycles: v(3)}
}

// addSince adds to g what the runtime spent from mark up to now.
func (g *gcFigures) addSince(mark gcFigures) {
	now := readGC()
	g.gc += now.gc - mark.gc
	g.total += now.total - mark.total
	g.idle += now.idle - mark.idle
	g.cycles += now.cycles - mark.cycles
}

// profileHz is the CPU profile's sampling rate.
const profileHz = 250

// resume starts a CPU-profile segment for the timed ops of one round.
func (t *tracer) resume() {
	path := filepath.Join(t.dir, fmt.Sprintf("cpu-%03d.pprof", len(t.segments)))
	f, err := os.Create(path)
	if err == nil {
		// pprof samples at 100 Hz, too coarse for the smaller layers of a
		// few-second pass. Setting the rate first makes the profile
		// sample at profileHz (the profile records the rate it used);
		// the runtime then prints a warning that StartCPUProfile's own
		// rate was not applied.
		runtime.SetCPUProfileRate(profileHz)
		err = pprof.StartCPUProfile(f)
	}
	if err != nil {
		panic(fmt.Sprintf("starting CPU profile: %v", err))
	}
	t.prof = f
	t.segments = append(t.segments, path)
}

// pause ends the round's profile segment, so that checks and
// construction replays stay out of it.
func (t *tracer) pause() {
	pprof.StopCPUProfile()
	if err := t.prof.Close(); err != nil {
		panic(fmt.Sprintf("closing CPU profile: %v", err))
	}
}

// spanStats are the totals of one span name.
type spanStats struct {
	n     int
	total time.Duration
	self  time.Duration
	alloc uint64
}

// stats totals every span name, with self time: a span's duration less
// the part its child spans cover. Children of one span never overlap,
// since the tracer has one user.
func (t *tracer) stats() map[string]*spanStats {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*spanStats{}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.n++
		st.total += s.End - s.Start
		st.self += s.End - s.Start - child[i]
		st.alloc += s.Alloc
	}
	return out
}

// writeSpans dumps every span as JSON and prints the self-time table.
func (t *tracer) writeSpans(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	st := t.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]].self > st[names[j]].self })
	fmt.Fprintf(os.Stderr, "%-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(os.Stderr, "%-34s %8d %12.3f %12.3f\n", n, s.n, ms(s.total), ms(s.self))
	}
	fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(t.spans), path)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// profileBuckets reads the profile segments back with `go tool pprof
// -traces` and returns the sampled host time per bucket: the module
// package (grp/internal/<pkg> becomes <pkg>) of each sample's innermost
// frame that belongs to the module, or "other" when none does (the
// garbage collector's own workers, for example).
func profileBuckets(goTool string, segments []string) (map[string]time.Duration, time.Duration, error) {
	args := append([]string{"tool", "pprof", "-traces"}, segments...)
	out, err := runCommand(goTool, args...)
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	buckets, total := parseTraces(out)
	return buckets, total, nil
}

// parseTraces buckets the output of `pprof -traces`: after the header,
// blocks separated by dashed lines, each opening with the sample's value
// and its innermost frame, followed by its callers one per line.
func parseTraces(out string) (map[string]time.Duration, time.Duration) {
	buckets := map[string]time.Duration{}
	var total time.Duration
	blocks := strings.Split(out, "-----------+")
	for _, block := range blocks[1:] {
		lines := strings.Split(block, "\n")
		if len(lines) < 2 {
			continue
		}
		first := strings.Fields(lines[1])
		if len(first) < 2 {
			continue
		}
		d, err := time.ParseDuration(first[0])
		if err != nil {
			continue
		}
		bucket := "other"
		frames := append([]string{strings.Join(first[1:], " ")}, lines[2:]...)
		for _, f := range frames {
			if pkg := modulePackage(strings.TrimSuffix(strings.TrimSpace(f), " (inline)")); pkg != "" {
				bucket = pkg
				break
			}
		}
		buckets[bucket] += d
		total += d
	}
	return buckets, total
}

// modulePackage maps a frame's function name to its package under
// grp/internal, or "" for a frame outside the module.
func modulePackage(fn string) string {
	const prefix = "grp/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// runCommand runs a program to completion and returns its standard
// output; a failure carries its standard error.
func runCommand(name string, args ...string) (string, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(name, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return stdout.String(), nil
}
