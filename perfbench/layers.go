package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// constructionSpans are the calls that bring a cell up to its first
// simulated instruction; core.setup_share is their share of a cell.
var constructionSpans = []string{
	"workloads.Build", "compiler.CompileWorkloadOpts", "mem.Init", "prefetch.New",
	"sim.NewMemSystem", "sim.NewCoRunSystem", "cpu.New", "attrib.NewLedger",
}

// layerDef is one per-layer metric: its name, unit, and how it is
// computed from a traced pass.
type layerDef struct {
	name, unit string
	value      func(l *layerInputs) float64
}

// layerInputs is everything a traced pass measured.
type layerInputs struct {
	spans   map[string]*spanStats
	counts  map[string]float64
	buckets map[string]time.Duration
	sampled time.Duration
	ops     float64
	// gc and gcOps are the untraced pass's GC figures and ops: the
	// traced pass's spans and profile buffers add to the live heap and
	// so make the runtime collect less often.
	gc    gcFigures
	gcOps float64
	// overhead is the traced pass's loss of ops_per_cpu_s against the
	// untraced pass of the same invocation, in percent.
	overhead float64
}

// mean is the mean duration of the named span in the given unit, or 0
// if the pass never made the call.
func (l *layerInputs) mean(name string, unit time.Duration) float64 {
	s := l.spans[name]
	if s == nil || s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / float64(unit)
}

// meanKB is the mean heap kilobytes the named span allocated.
func (l *layerInputs) meanKB(name string) float64 {
	s := l.spans[name]
	if s == nil || s.n == 0 {
		return 0
	}
	return float64(s.alloc) / float64(s.n) / 1024
}

// total is the summed duration of the named spans.
func (l *layerInputs) total(names ...string) time.Duration {
	var d time.Duration
	for _, n := range names {
		if s := l.spans[n]; s != nil {
			d += s.total
		}
	}
	return d
}

// ratio is a/b, or 0 when b is 0 (the layer did no work in this
// workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perOp is a count summed over the traced ops, per op.
func (l *layerInputs) perOp(count string) float64 { return ratio(l.counts[count], l.ops) }

// nsPer is the profiled host time of a package per unit of a count.
func (l *layerInputs) nsPer(pkg, count string) float64 {
	return ratio(float64(l.buckets[pkg]), l.counts[count])
}

var layerDefs = []layerDef{
	{"workloads.build_ms", "ms", func(l *layerInputs) float64 { return l.mean("workloads.Build", time.Millisecond) }},
	{"compiler.compile_ms", "ms", func(l *layerInputs) float64 { return l.mean("compiler.CompileWorkloadOpts", time.Millisecond) }},
	{"mem.init_ms", "ms", func(l *layerInputs) float64 { return l.mean("mem.Init", time.Millisecond) }},
	{"progen.generate_ms", "ms", func(l *layerInputs) float64 { return l.mean("progen.Generate", time.Millisecond) }},
	{"compiler.interp_ms", "ms", func(l *layerInputs) float64 { return l.mean("compiler.Interp", time.Millisecond) }},
	{"sim.memsys_new_us", "us", func(l *layerInputs) float64 { return l.mean("sim.NewMemSystem", time.Microsecond) }},
	{"sim.memsys_new_kb", "KB", func(l *layerInputs) float64 { return l.meanKB("sim.NewMemSystem") }},
	{"cpu.new_us", "us", func(l *layerInputs) float64 { return l.mean("cpu.New", time.Microsecond) }},
	{"cpu.new_kb", "KB", func(l *layerInputs) float64 { return l.meanKB("cpu.New") }},
	{"prefetch.new_us", "us", func(l *layerInputs) float64 { return l.mean("prefetch.New", time.Microsecond) }},
	{"prefetch.new_kb", "KB", func(l *layerInputs) float64 { return l.meanKB("prefetch.New") }},
	{"attrib.ledger_new_us", "us", func(l *layerInputs) float64 { return l.mean("attrib.NewLedger", time.Microsecond) }},
	{"sim.corun_new_us", "us", func(l *layerInputs) float64 { return l.mean("sim.NewCoRunSystem", time.Microsecond) }},
	{"sim.corun_new_kb", "KB", func(l *layerInputs) float64 { return l.meanKB("sim.NewCoRunSystem") }},
	{"core.run_ms", "ms", func(l *layerInputs) float64 {
		n := 0
		for _, name := range []string{"core.Run", "core.RunCoRun"} {
			if s := l.spans[name]; s != nil {
				n += s.n
			}
		}
		return ratio(float64(l.total("core.Run", "core.RunCoRun")), float64(n)) / 1e6
	}},
	{"core.setup_share", "%", func(l *layerInputs) float64 {
		return 100 * ratio(float64(l.total(constructionSpans...)), float64(l.total("core.Run", "core.RunCoRun")))
	}},
	{"cpu.instrs", "count/op", func(l *layerInputs) float64 { return l.perOp("instrs") }},
	{"cpu.cycles", "count/op", func(l *layerInputs) float64 { return l.perOp("cycles") }},
	{"cpu.ns_per_instr", "ns", func(l *layerInputs) float64 { return l.nsPer("cpu", "instrs") }},
	{"sim.ns_per_access", "ns", func(l *layerInputs) float64 { return l.nsPer("sim", "mem_accesses") }},
	{"cache.l2_accesses", "count/op", func(l *layerInputs) float64 { return l.perOp("l2_accesses") }},
	{"cache.l2_miss_rate", "%", func(l *layerInputs) float64 { return 100 * ratio(l.counts["l2_misses"], l.counts["l2_accesses"]) }},
	{"cache.ns_per_access", "ns", func(l *layerInputs) float64 { return l.nsPer("cache", "cache_accesses") }},
	{"dram.accesses", "count/op", func(l *layerInputs) float64 { return l.perOp("dram_accesses") }},
	{"dram.row_hit_rate", "%", func(l *layerInputs) float64 {
		return 100 * ratio(l.counts["dram_row_hits"], l.counts["dram_row_hits"]+l.counts["dram_row_misses"])
	}},
	{"dram.ns_per_access", "ns", func(l *layerInputs) float64 { return l.nsPer("dram", "dram_accesses") }},
	{"prefetch.issued", "count/op", func(l *layerInputs) float64 { return l.perOp("pf_issued") }},
	{"prefetch.accuracy", "%", func(l *layerInputs) float64 { return 100 * ratio(l.counts["pf_useful"], l.counts["pf_issued"]) }},
	{"prefetch.ns_per_issue", "ns", func(l *layerInputs) float64 { return l.nsPer("prefetch", "pf_issued") }},
	{"attrib.ns_per_prefetch", "ns", func(l *layerInputs) float64 { return l.nsPer("attrib", "attrib_issued") }},
	{"oamap.cpu_share", "%", func(l *layerInputs) float64 { return 100 * ratio(float64(l.buckets["oamap"]), float64(l.sampled)) }},
	{"runtime.gc_cpu_share", "%", func(l *layerInputs) float64 { return 100 * ratio(l.gc.gc, l.gc.total-l.gc.idle) }},
	{"runtime.gc_cycles_per_op", "count/op", func(l *layerInputs) float64 { return ratio(l.gc.cycles, l.gcOps) }},
	{"campaign.keys_us_per_cell", "us", func(l *layerInputs) float64 {
		return ratio(float64(l.total("campaign.Engine.Keys")), l.counts["keyed_cells"]) / 1e3
	}},
	{"campaign.store_get_us", "us", func(l *layerInputs) float64 { return l.mean("campaign.Store.Get", time.Microsecond) }},
	{"campaign.store_put_us", "us", func(l *layerInputs) float64 { return l.mean("campaign.Store.Put", time.Microsecond) }},
	{"campaign.artifact_us_per_cell", "us", func(l *layerInputs) float64 {
		return ratio(float64(l.total("campaign.WriteArtifact")), l.counts["artifact_cells"]) / 1e3
	}},
	{"campaign.hits", "count/op", func(l *layerInputs) float64 { return l.perOp("campaign.hits") }},
	{"campaign.simulations", "count/op", func(l *layerInputs) float64 { return l.perOp("campaign.simulations") }},
	{"campaign.retries", "count/op", func(l *layerInputs) float64 { return l.perOp("campaign.retries") }},
	{"serve.submit_ms", "ms", func(l *layerInputs) float64 { return l.mean("serve.submit", time.Millisecond) }},
	{"serve.stream_ms", "ms", func(l *layerInputs) float64 { return l.mean("serve.stream", time.Millisecond) }},
	{"serve.artifact_ms", "ms", func(l *layerInputs) float64 { return l.mean("serve.artifact", time.Millisecond) }},
	{"trace.overhead_pct", "%", func(l *layerInputs) float64 { return l.overhead }},
}

// opsPerCPU is a pass's ops per host CPU-second of its timed ops.
func opsPerCPU(p *pass) float64 {
	var cpu time.Duration
	for _, s := range p.samples {
		cpu += s.cpu
	}
	return ratio(float64(len(p.samples)), cpu.Seconds())
}

// runTraced is the --trace 1 invocation: an untraced pass, then a
// traced pass over the same inputs, each for half the run. The
// untraced pass sets the baseline the tracing overhead is measured
// against and supplies the GC figures; every other printed metric
// comes from the traced pass.
func runTraced(name string, b bench, cfg config) (*result, error) {
	half := time.Duration(cfg.seconds) * time.Second / 2
	plain := newPass(b, cfg.seed, nil)
	plain.runFor(half, 0)
	dir := filepath.Join(cfg.workDir, "trace-"+name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tr := newTracer(dir)
	traced := newPass(b, cfg.seed, tr)
	traced.runFor(half, 0)
	closeErr := b.close()
	if closeErr != nil {
		fmt.Fprintf(os.Stderr, "%s: whole-run check: %v\n", name, closeErr)
	}
	buckets, sampled, err := profileBuckets(cfg.goTool, tr.segments)
	if err != nil {
		return nil, err
	}
	if err := tr.writeSpans(filepath.Join(dir, "spans.json")); err != nil {
		return nil, err
	}
	in := &layerInputs{
		spans: tr.stats(), counts: tr.counts, buckets: buckets, sampled: sampled,
		ops: float64(traced.attempted), gc: plain.gc, gcOps: float64(plain.attempted),
		overhead: 100 * (1 - ratio(opsPerCPU(traced), opsPerCPU(plain))),
	}
	metrics := map[string]metric{}
	for _, d := range layerDefs {
		metrics[d.name] = metric{Value: d.value(in), Unit: d.unit}
	}
	plain.summarize(os.Stdout, name+" (untraced pass)")
	traced.summarize(os.Stdout, name+" (traced pass)")
	failed := plain.failed + traced.failed
	return &result{
		Correct:   failed == 0 && closeErr == nil,
		Attempted: plain.attempted + traced.attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}
