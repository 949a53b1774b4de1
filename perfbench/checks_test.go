package main

import (
	"bytes"
	"testing"

	"grp/internal/conformance"
	"grp/internal/core"
	"grp/internal/mem"
	"grp/internal/progen"
	"grp/internal/serve"
	"grp/internal/workloads"
)

// The checks are exercised at Test factor; the workloads run them at
// the factors set in their files.

func TestPaperSuiteCheckCatchesPlantedResults(t *testing.T) {
	kernels, err := prepare([]string{"mcf"}, workloads.Test)
	if err != nil {
		t.Fatal(err)
	}
	k := kernels["mcf"]
	run := func(sc core.Scheme) *core.Result {
		r, err := core.Run(k.spec, sc, core.Options{Factor: workloads.Test})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	perfect, base, grp := run(core.PerfectL2), run(core.NoPrefetch), run(core.GRPVar)
	for _, r := range []*core.Result{perfect, base, grp} {
		if err := checkSolo(r, perfect, k.hints); err != nil {
			t.Fatalf("clean %s cell failed its check: %v", r.Scheme, err)
		}
	}
	plant := []struct {
		name    string
		r       *core.Result
		breakIt func(r *core.Result)
	}{
		{"arch digest", grp, func(r *core.Result) { r.ArchDigest ^= 1 }},
		{"committed instructions", grp, func(r *core.Result) { r.CPU.Instrs++ }},
		{"beats perfect L2", grp, func(r *core.Result) { r.CPU.Cycles = perfect.CPU.Cycles - 1 }},
		{"traffic", grp, func(r *core.Result) { r.TrafficBytes = 64*r.L2.DemandFills - 1 }},
		{"base prefetches", base, func(r *core.Result) { r.Mem.PrefetchesIssued = 1 }},
		{"hint census", base, func(r *core.Result) { r.Hints.Spatial++ }},
	}
	for _, p := range plant {
		bad := *p.r
		p.breakIt(&bad)
		if err := checkSolo(&bad, perfect, k.hints); err == nil {
			t.Errorf("planted %s was not caught", p.name)
		}
	}
}

func TestFleetCheckCatchesTamperedFills(t *testing.T) {
	const seed = 3
	w := progen.Generate(seed, progen.Config{})
	if err := checkReport(conformance.CheckWorkload(conformance.Config{}, seed, w)); err != nil {
		t.Fatalf("clean program failed: %v", err)
	}
	// A broken prefetch data path: every prefetch fill flips a bit of
	// the line it lands on. The oracle and digest checks must see it.
	tamper := func(m *mem.Memory, block uint64) { m.Write64(block, m.Read64(block)^1) }
	pr := conformance.CheckWorkload(conformance.Config{Tamper: tamper}, seed, w)
	if err := checkReport(pr); err == nil {
		t.Error("tampered prefetch fills were not caught")
	}
}

func TestFleetDigestCoversSimulatedStatistics(t *testing.T) {
	const seed = 3
	p := fleetProgram{seed: seed, w: progen.Generate(seed, progen.Config{})}
	f := &fleet{ref: map[int64]fleetRef{}, seen: map[int64]int{}}
	out, err := f.program(p).run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.check(); err != nil {
		t.Fatalf("clean program failed: %v", err)
	}
	pr := conformance.CheckWorkload(conformance.Config{}, seed, p.w)
	rs, err := fleetResults(p, pr.Steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != fleetCells {
		t.Fatalf("%d reference cells, want %d", len(rs), fleetCells)
	}
	if d := statsDigest(rs...); out.digest != d {
		t.Fatalf("op digest %s, its cells' statistics digest %s", out.digest, d)
	}
	if want := uint64(fleetCells) * rs[0].CPU.Instrs; out.instrs != want {
		t.Errorf("op committed %d instructions, want %d", out.instrs, want)
	}
	// A simulator-only change to one cell's counters must move it.
	rs[len(rs)-1].L2.Misses++
	if statsDigest(rs...) == out.digest {
		t.Error("an L2 counter change left the fleet digest unchanged")
	}
}

func TestCoRunCheckCatchesPlantedResults(t *testing.T) {
	kernels, err := prepare([]string{"mcf", "art"}, workloads.Test)
	if err != nil {
		t.Fatal(err)
	}
	c := &coRun{opt: core.Options{Factor: workloads.Test, Attrib: true}, kernels: kernels, solo: map[string]*core.Result{}}
	for _, pair := range [][]string{{"mcf", "mcf"}, {"mcf", "art"}} {
		cr, err := core.RunCoRun(pair, corunScheme, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.check(cr); err != nil {
			t.Fatalf("clean co-run %v failed its check: %v", pair, err)
		}
		plant := map[string]func(rs []core.Result){
			"arch digest": func(rs []core.Result) { rs[1].ArchDigest ^= 1 },
			"pollution":   func(rs []core.Result) { info := *rs[0].CoRun; info.PollutionCaused++; rs[0].CoRun = &info },
		}
		if pair[0] == pair[1] {
			solo, _ := c.soloRun(pair[0])
			plant["self-pair faster than solo"] = func(rs []core.Result) { rs[0].CPU.Cycles = solo.CPU.Cycles - 1 }
		}
		for name, breakIt := range plant {
			rs := []core.Result{*cr.Results[0], *cr.Results[1]}
			breakIt(rs)
			bad := &core.CoRunResult{Results: []*core.Result{&rs[0], &rs[1]}}
			if err := c.check(bad); err == nil {
				t.Errorf("%v: planted %s was not caught", pair, name)
			}
		}
	}
}

func TestServeCheckCatchesPlantedByte(t *testing.T) {
	spec := serveSpec(append(append([]int(nil), servePrimed...), 4242))
	ref, err := runLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	status := func(string) (*serve.SweepStatus, error) {
		return &serve.SweepStatus{Hits: serveCells - serveFresh}, nil
	}
	served := &sweepResult{events: serveCells, artifact: append([]byte(nil), ref.artifact...)}
	if err := compareSweep(served, ref, status); err != nil {
		t.Fatalf("identical artifact failed: %v", err)
	}
	// The reference a run checks against reuses the primed cells: it must
	// render the same bytes as running every cell.
	reused, err := (&serveBench{}).reference(4242)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reused.artifact, ref.artifact) {
		t.Fatal("the reference with reused primed cells differs from a full local run")
	}
	served.artifact[len(served.artifact)/2] ^= 1
	if err := compareSweep(served, ref, status); err == nil {
		t.Error("a flipped artifact byte was not caught")
	}
	served.artifact = ref.artifact
	simulatedAll := func(string) (*serve.SweepStatus, error) { return &serve.SweepStatus{Hits: 0}, nil }
	if err := compareSweep(served, ref, simulatedAll); err == nil {
		t.Error("a sweep that simulated its cached cells was not caught")
	}
}

// TestServeRound runs set-up, one round of sweeps against the real
// in-process server, and the whole-run check.
func TestServeRound(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and simulates a round of sweeps")
	}
	b, err := setupServe(config{seed: 1, workDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	p := newPass(b, 1, nil)
	p.round()
	if err := b.close(); err != nil {
		t.Errorf("whole-run check: %v", err)
	}
	if p.attempted != serveRound || p.failed != 0 || p.instrs == 0 {
		t.Errorf("attempted %d failed %d instrs %d: %v", p.attempted, p.failed, p.instrs, p.failures)
	}
}
