package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"grp/internal/attrib"
	"grp/internal/cache"
	"grp/internal/compiler"
	"grp/internal/core"
	"grp/internal/cpu"
	"grp/internal/dram"
	"grp/internal/isa"
	"grp/internal/mem"
	"grp/internal/prefetch"
	"grp/internal/sim"
	"grp/internal/workloads"
)

// prepared is one kernel built, compiled and initialized once at
// set-up: the static hint census every simulated cell of the kernel
// must report back.
type prepared struct {
	spec  *workloads.Spec
	hints isa.HintCounts
}

// prepare builds, compiles and initializes each named kernel at the
// given factor into a fresh memory, as core.Run does before a cell.
func prepare(names []string, f workloads.Factor) (map[string]prepared, error) {
	out := make(map[string]prepared, len(names))
	for _, name := range names {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		built := spec.Build(f)
		m := mem.New()
		prog, layout, _, err := compiler.CompileWorkloadOpts(built.Prog, m, compiler.PolicyDefault, compiler.CodegenOptions{})
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", name, err)
		}
		built.Init(m, layout)
		out[name] = prepared{spec: spec, hints: prog.CountHints()}
	}
	return out, nil
}

// hashStrings hashes a list of strings in order.
func hashStrings(ss []string) string {
	h := sha256.New()
	for _, s := range ss {
		fmt.Fprintf(h, "%d:%s\n", len(s), s)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// statsDigest fingerprints a result's simulated statistics: core,
// cache, memory-system, DRAM and prefetch counters, traffic, the
// architectural digests and the co-run context. Telemetry and host
// figures are left out. JSON encoding sorts map keys, so the digest is
// deterministic.
func statsDigest(rs ...*core.Result) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		data, err := json.Marshal(struct {
			Bench      string
			Scheme     string
			CPU        cpu.Result
			L1, L2     cache.Stats
			Mem        sim.MemStats
			Dram       dram.Stats
			PF         prefetch.Stats
			Traffic    uint64
			ArchDigest uint64
			MemDigest  uint64
			Attrib     *attrib.Summary
			CoRun      *core.CoRunInfo
		}{r.Bench, r.Scheme.String(), r.CPU, r.L1, r.L2, r.Mem, r.Dram, r.PF,
			r.TrafficBytes, r.ArchDigest, r.MemDigest, r.Attrib, r.CoRun})
		if err != nil {
			panic(fmt.Sprintf("encoding statistics: %v", err))
		}
		parts[i] = string(data)
	}
	return hashStrings(parts)
}

// checkSolo holds the properties every realistic solo cell must have.
// Prefetching is timing-only, so the committed instructions and the
// architectural digest equal the perfect-L2 reference's, whose cycles
// lower-bound the cell's. hints is the kernel's static hint census.
func checkSolo(r, perfect *core.Result, hints isa.HintCounts) error {
	if r.CPU.Instrs != perfect.CPU.Instrs {
		return fmt.Errorf("committed %d instructions, perfectL2 committed %d", r.CPU.Instrs, perfect.CPU.Instrs)
	}
	if r.ArchDigest != perfect.ArchDigest {
		return fmt.Errorf("arch digest %016x, perfectL2 gave %016x", r.ArchDigest, perfect.ArchDigest)
	}
	if r.CPU.Cycles < perfect.CPU.Cycles {
		return fmt.Errorf("%d cycles beats perfectL2's %d", r.CPU.Cycles, perfect.CPU.Cycles)
	}
	if a := r.Accuracy(); a < 0 || a > 100 {
		return fmt.Errorf("accuracy %.2f%% outside [0, 100]", a)
	}
	if min := uint64(prefetch.BlockBytes) * r.L2.DemandFills; r.TrafficBytes < min {
		return fmt.Errorf("traffic %d B below %d L2 demand fills x %d B", r.TrafficBytes, r.L2.DemandFills, prefetch.BlockBytes)
	}
	if (r.Scheme == core.NoPrefetch || r.Scheme == core.PerfectL2) && r.Mem.PrefetchesIssued != 0 {
		return fmt.Errorf("%s issued %d prefetches", r.Scheme, r.Mem.PrefetchesIssued)
	}
	if r.Hints != hints {
		return fmt.Errorf("hint census %+v, set-up compiled %+v", r.Hints, hints)
	}
	return nil
}

// addCounts sums the exact per-cell counts of one op's results. In a
// co-run every core's result repeats the shared L2 and DRAM totals, so
// those are taken from core 0 only.
func addCounts(tr *tracer, rs []*core.Result) {
	for _, r := range rs {
		tr.add("instrs", float64(r.CPU.Instrs))
		tr.add("cycles", float64(r.CPU.Cycles))
		tr.add("mem_accesses", float64(r.Mem.Loads+r.Mem.Stores))
		tr.add("cache_accesses", float64(r.L1.Accesses))
		tr.add("pf_issued", float64(r.Mem.PrefetchesIssued))
		useful := r.L2.UsefulPrefetches + r.Mem.PrefetchLates
		if useful > r.Mem.PrefetchesIssued {
			useful = r.Mem.PrefetchesIssued
		}
		tr.add("pf_useful", float64(useful))
		if r.Attrib != nil {
			tr.add("attrib_issued", float64(r.Attrib.Issued))
		}
		if r.CoRun == nil || r.CoRun.Core == 0 {
			tr.add("cache_accesses", float64(r.L2.Accesses))
			tr.add("l2_accesses", float64(r.L2.Accesses))
			tr.add("l2_misses", float64(r.L2.Misses))
			d := r.Dram
			tr.add("dram_accesses", float64(d.DemandReads+d.PrefetchReads+d.Writebacks))
			tr.add("dram_row_hits", float64(d.RowHits))
			tr.add("dram_row_misses", float64(d.RowMisses))
		}
	}
	tr.add("cells", float64(len(rs)))
}

// engineFor builds the prefetch engine a solo or co-run cell of the
// given scheme uses, with the same configuration core.Run gives it.
func engineFor(scheme core.Scheme, spec *workloads.Spec, m *mem.Memory, opt core.Options) prefetch.Engine {
	depth := opt.RecursionDepth
	if depth == 0 {
		depth = 6
		if spec.Name == "mcf" {
			depth = 3
		}
	}
	switch scheme {
	case core.StridePF:
		return prefetch.NewStride(prefetch.DefaultStrideConfig())
	case core.SRP:
		return prefetch.NewSRP()
	case core.GRPFix, core.GRPVar:
		cfg := prefetch.DefaultGRPConfig()
		cfg.Variable = scheme == core.GRPVar
		cfg.RecursionDepth = depth
		return prefetch.NewGRP(cfg, m)
	case core.GRPAdaptive:
		cfg := prefetch.DefaultGRPConfig()
		cfg.RecursionDepth = depth
		return prefetch.NewAdaptiveGRP(cfg, m)
	case core.GHB:
		return prefetch.NewGHB(prefetch.DefaultGHBConfig())
	default:
		return prefetch.NewNull()
	}
}

// memConfigFor is the memory configuration core.Run gives a cell.
func memConfigFor(scheme core.Scheme, opt core.Options) sim.MemConfig {
	cfg := sim.DefaultMemConfig()
	if opt.Mem != nil {
		cfg = *opt.Mem
	}
	switch scheme {
	case core.PerfectL1:
		cfg.L1.Perfect = true
	case core.PerfectL2:
		cfg.L2.Perfect = true
	}
	return cfg
}

// stage is one kernel brought up to the point a cell starts simulating.
type stage struct {
	m      *mem.Memory
	engine prefetch.Engine
}

// replayFront replays, under spans, the front half of a cell: build the
// kernel, compile it into a fresh memory, initialize its data, and
// build its prefetch engine.
func replayFront(tr *tracer, spec *workloads.Spec, scheme core.Scheme, opt core.Options) (*stage, error) {
	var built *workloads.Built
	tr.call("workloads.Build", func() error { built = spec.Build(opt.Factor); return nil })
	m := mem.New()
	var layout *compiler.Layout
	err := tr.call("compiler.CompileWorkloadOpts", func() error {
		var err error
		_, layout, _, err = compiler.CompileWorkloadOpts(built.Prog, m, opt.Policy, compiler.CodegenOptions{})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("compiling %s: %w", spec.Name, err)
	}
	tr.call("mem.Init", func() error { built.Init(m, layout); return nil })
	st := &stage{m: m}
	tr.callAlloc("prefetch.New", func() error { st.engine = engineFor(scheme, spec, m, opt); return nil })
	return st, nil
}

// replayCell replays the construction of one solo cell under spans:
// the front half, the memory system, the core and, when the cell
// carries one, the attribution ledger.
func replayCell(tr *tracer, spec *workloads.Spec, scheme core.Scheme, opt core.Options) error {
	st, err := replayFront(tr, spec, scheme, opt)
	if err != nil {
		return err
	}
	var ms *sim.MemSystem
	err = tr.callAlloc("sim.NewMemSystem", func() error {
		var err error
		ms, err = sim.NewMemSystem(memConfigFor(scheme, opt), st.engine)
		return err
	})
	if err != nil {
		return err
	}
	if opt.Attrib {
		replayLedger(tr)
	}
	return tr.callAlloc("cpu.New", func() error {
		_, err := cpu.New(cpu.Default(), st.m, ms)
		return err
	})
}

// replayLedger times one attribution-ledger construction and recycles
// the ledger.
func replayLedger(tr *tracer) {
	var l *attrib.Ledger
	tr.call("attrib.NewLedger", func() error { l = attrib.NewLedger(); return nil })
	l.Recycle()
}
