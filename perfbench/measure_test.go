package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	xs := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending, so sorting is exercised
		}
		return v
	}
	if m, err := percentile(xs(3), 0.5); err != nil || math.Abs(m-2) > 1e-9 {
		t.Errorf("median of 3 = %v, %v; want 2", m, err)
	}
	if m, err := percentile(xs(4), 0.5); err != nil || math.Abs(m-2.5) > 1e-9 {
		t.Errorf("median of 4 = %v, %v; want 2.5", m, err)
	}
	// Below 40 samples only the median is reported, whatever the tail.
	if _, err := percentile(xs(39), 0.6); err == nil {
		t.Error("p60 of 39 samples was reported")
	}
	// p95 needs ten samples beyond it: 199 samples leave 9, 200 leave 10.
	if _, err := percentile(xs(199), 0.95); err == nil {
		t.Error("p95 of 199 samples was reported")
	}
	v, err := percentile(xs(200), 0.95)
	if err != nil {
		t.Fatalf("p95 of 200 samples: %v", err)
	}
	beyond := 0
	for _, x := range xs(200) {
		if x > v {
			beyond++
		}
	}
	if v < 189 || v > 191 || beyond != minTailBeyond {
		t.Errorf("p95 of 1..200 = %v with %d beyond; want about 190 with %d", v, beyond, minTailBeyond)
	}
	// Harrell–Davis weights sum to one: a constant sample's percentiles
	// are that constant.
	same := make([]float64, 250)
	for i := range same {
		same[i] = 7
	}
	for _, q := range []float64{0.5, 0.95} {
		if v, err := percentile(same, q); err != nil || math.Abs(v-7) > 1e-9 {
			t.Errorf("p%v of a constant sample = %v, %v; want 7", 100*q, v, err)
		}
	}
	// One slow sample moves a tail estimate only part of the way: a
	// sample of 190 ops at 1 ms and 10 at 2 ms, with one more op at
	// 2 ms, does not jump to 2 ms as the 191st order statistic would.
	mix := make([]float64, 200)
	for i := range mix {
		mix[i] = 1
		if i >= 189 {
			mix[i] = 2
		}
	}
	if v, _ := percentile(mix, 0.95); v <= 1 || v >= 2 {
		t.Errorf("p95 across a gap = %v, want strictly between the two sides", v)
	}
	for q, want := range map[float64]int{0.95: 200, 0.99: 1000, 0.6: 40} {
		if got := minSamplesForTail(q); got != want {
			t.Errorf("minSamplesForTail(%v) = %d, want %d", q, got, want)
		}
	}
	if minOps != 200 {
		t.Errorf("minOps = %d, want 200 for a p95 with ten samples beyond", minOps)
	}
}

var sink []byte

func TestMeterAccounting(t *testing.T) {
	// A busy op is charged its CPU time and exactly the bytes it
	// allocates.
	const size = 8 << 20
	m := startMeter()
	sink = make([]byte, size)
	deadline := time.Now().Add(60 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	s := m.stop()
	if s.alloc < size || s.alloc > size+64<<10 {
		t.Errorf("alloc = %d bytes, want %d plus little", s.alloc, size)
	}
	if s.cpu < 40*time.Millisecond || s.cpu > s.wall+20*time.Millisecond {
		t.Errorf("busy op: cpu %v, wall %v; want cpu near 60ms and not above wall", s.cpu, s.wall)
	}
	// A waiting op is charged its wall time but almost no CPU time.
	m = startMeter()
	time.Sleep(60 * time.Millisecond)
	s = m.stop()
	if s.wall < 60*time.Millisecond || s.cpu > 15*time.Millisecond {
		t.Errorf("sleeping op: cpu %v, wall %v; want wall >= 60ms, cpu near 0", s.cpu, s.wall)
	}
}

// benchmarkJSON reads the repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b map[string]json.RawMessage
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

type metricDecl struct {
	Name, Unit, Better string
	Bound              float64
}

func declared(t *testing.T, key string) []metricDecl {
	var ms []metricDecl
	if err := json.Unmarshal(benchmarkJSON(t)[key], &ms); err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestEndToEndForm(t *testing.T) {
	var samples []sample
	for i := 0; i < minOps; i++ {
		samples = append(samples, sample{cpu: time.Duration(i+1) * time.Millisecond, wall: time.Duration(i+2) * time.Millisecond, alloc: 1e6})
	}
	got, err := endToEnd([]time.Duration{time.Second, 2 * time.Second, 3 * time.Second}, samples, 5e6, []float64{40e6, 50e6, 60e6}, false)
	if err != nil {
		t.Fatal(err)
	}
	decl := declared(t, "end_to_end")
	if len(got) != len(decl) {
		t.Errorf("printed %d end-to-end metrics, BENCHMARK.json declares %d", len(got), len(decl))
	}
	for _, d := range decl {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("metric %s not printed", d.Name)
			continue
		}
		if m.Unit != d.Unit || m.Value <= 0 {
			t.Errorf("metric %s = %v %s, want a positive value in %s", d.Name, m.Value, m.Unit, d.Unit)
		}
	}
	if v := got["setup_s"].Value; math.Abs(v-2) > 1e-9 {
		t.Errorf("setup_s = %v, want the median set-up, 2", v)
	}
	if v := got["rss_peak_mb"].Value; math.Abs(v-50) > 1e-9 {
		t.Errorf("rss_peak_mb = %v, want the median round's peak, 50", v)
	}
	if v := got["alloc_mb_per_op"].Value; v != 1 {
		t.Errorf("alloc_mb_per_op = %v, want 1", v)
	}
	// sweep_ms is CPU time in a batch workload, wall time in a service.
	if v := got["sweep_ms_p50"].Value; v != got["op_cpu_ms_p50"].Value {
		t.Errorf("batch sweep_ms_p50 = %v, want the median CPU time %v", v, got["op_cpu_ms_p50"].Value)
	}
	served, err := endToEnd([]time.Duration{time.Second}, samples, 5e6, []float64{50e6}, true)
	if err != nil {
		t.Fatal(err)
	}
	if v, want := served["sweep_ms_p50"].Value, got["op_cpu_ms_p50"].Value+1; math.Abs(v-want) > 1e-9 {
		t.Errorf("service sweep_ms_p50 = %v, want the median wall time %v", v, want)
	}
	if _, err := endToEnd(nil, samples[:minOps-1], 1, []float64{1}, false); err == nil {
		t.Error("a run of fewer than minOps ops reported a p95")
	}

	line, err := json.Marshal(&result{Correct: true, Attempted: 3, Failed: 1, Metrics: got})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	if len(names) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", names)
	}
}

func TestLayerDefsMatchBenchmark(t *testing.T) {
	decl := declared(t, "per_layer")
	if len(decl) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the traced run prints %d", len(decl), len(layerDefs))
	}
	for i, d := range decl {
		if layerDefs[i].name != d.Name || layerDefs[i].unit != d.Unit {
			t.Errorf("per-layer metric %d: printed %s %s, declared %s %s", i, layerDefs[i].name, layerDefs[i].unit, d.Name, d.Unit)
		}
	}
}

func TestParseTraces(t *testing.T) {
	out := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      10ms   runtime.(*gcBits).bitp (inline)
             runtime.mallocgc
             grp/internal/cpu.newSlotTable (inline)
             grp/internal/core.Run
-----------+-------------------------------------------------------
      20ms   grp/internal/oamap.(*I32).Get (inline)
             grp/internal/sim.(*MemSystem).access
-----------+-------------------------------------------------------
       4ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	got, total := parseTraces(out)
	want := map[string]time.Duration{"cpu": 10 * time.Millisecond, "oamap": 20 * time.Millisecond, "other": 4 * time.Millisecond}
	if !reflect.DeepEqual(got, want) || total != 34*time.Millisecond {
		t.Errorf("buckets %v total %v, want %v total 34ms", got, total, want)
	}
}

func TestParseCounters(t *testing.T) {
	text := strings.Join([]string{
		"# TYPE grpserve_cache_hits gauge", "grpserve_cache_hits 12",
		"grpserve_cell_retries 0", "grpserve_simulations_total 4",
		`grpserve_sweep_cells_done{sweep="x"} 8`,
	}, "\n")
	c, err := parseCounters(text)
	if err != nil || c != (serverCounters{simulations: 4, hits: 12, retries: 0}) {
		t.Errorf("parseCounters = %+v, %v", c, err)
	}
	if _, err := parseCounters("grpserve_cache_hits 1\n"); err == nil {
		t.Error("missing counters were not reported")
	}
}

// fakeBench is a two-op round whose second op's check fails and whose
// statistics digest changes from round to round when drift is set.
type fakeBench struct {
	drift bool
	round int
}

func (f *fakeBench) ops(rng *rand.Rand) []op {
	f.round++
	r := f.round
	mk := func(label string, checkErr error) op {
		return op{label: label, call: "fake", run: func(tr *tracer) (*outcome, error) {
			d := "same"
			if f.drift {
				d = strings.Repeat("x", r)
			}
			return &outcome{instrs: 7, digest: d, check: func() error { return checkErr }}, nil
		}}
	}
	return []op{mk("good", nil), mk("bad", os.ErrInvalid)}
}

func (f *fakeBench) close() error { return nil }

func TestPassCountsFailures(t *testing.T) {
	p := newPass(&fakeBench{}, 1, nil)
	p.runFor(0, 5)
	if p.rounds != 3 || p.attempted != 6 || p.failed != 3 || p.instrs != 21 || len(p.samples) != 6 {
		t.Errorf("rounds %d attempted %d failed %d instrs %d samples %d; want 3, 6, 3, 21, 6",
			p.rounds, p.attempted, p.failed, p.instrs, len(p.samples))
	}
	// A repeated op whose statistics change is a failed op.
	p = newPass(&fakeBench{drift: true}, 1, nil)
	p.runFor(0, 4)
	if p.failed != 3 {
		t.Errorf("failed = %d, want 3 (bad twice, good's second round once)", p.failed)
	}
}

func TestResidentBytesSeesTouchedPages(t *testing.T) {
	before := residentBytes()
	buf := make([]byte, 32<<20)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	if grew := residentBytes() - before; grew < 16<<20 {
		t.Errorf("resident set grew %d bytes after touching 32 MiB", grew)
	}
	runtime.KeepAlive(buf)
}
