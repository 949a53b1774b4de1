package main

import (
	"fmt"
	"math/rand"

	"grp/internal/core"
	"grp/internal/cpu"
	"grp/internal/prefetch"
	"grp/internal/sim"
	"grp/internal/workloads"
)

// corunKernels are the kernels of the EXPERIMENTS.md co-run matrix.
var corunKernels = []string{"mcf", "art", "equake", "swim", "twolf", "gzip"}

const (
	corunScheme = core.GRPVar
	corunFactor = workloads.Small
)

// coRun runs every unordered pair of the matrix kernels, self-pairs
// included, on two cores over one shared L2 and DRAM with attribution
// on. Set-up builds, compiles and initializes each kernel once.
type coRun struct {
	opt     core.Options
	kernels map[string]prepared
	// solo caches each kernel's solo run under the same scheme and
	// options, the reference its co-run cores are checked against.
	solo map[string]*core.Result
}

func corunOptions() core.Options { return core.Options{Factor: corunFactor, Attrib: true} }

func setupCoRun(cfg config) (bench, error) {
	kernels, err := prepare(corunKernels, corunFactor)
	if err != nil {
		return nil, err
	}
	return &coRun{opt: corunOptions(), kernels: kernels, solo: map[string]*core.Result{}}, nil
}

func (c *coRun) ops(rng *rand.Rand) []op {
	var ops []op
	for i, a := range corunKernels {
		for _, b := range corunKernels[i:] {
			ops = append(ops, c.pair(a, b))
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func (c *coRun) pair(a, b string) op {
	benches := []string{a, b}
	return op{
		label: a + "+" + b,
		call:  "core.RunCoRun",
		run: func(tr *tracer) (*outcome, error) {
			cr, err := core.RunCoRun(benches, corunScheme, c.opt)
			if err != nil {
				return nil, err
			}
			var instrs uint64
			for _, r := range cr.Results {
				instrs += r.CPU.Instrs
			}
			return &outcome{
				instrs: instrs,
				digest: statsDigest(cr.Results...),
				check:  func() error { return c.check(cr) },
				layers: func(tr *tracer) error {
					addCounts(tr, cr.Results)
					return tr.call("replay", func() error { return c.replay(tr, benches) })
				},
			}, nil
		},
	}
}

// soloRun returns the kernel's solo reference, simulating it on first
// use.
func (c *coRun) soloRun(name string) (*core.Result, error) {
	if r, ok := c.solo[name]; ok {
		return r, nil
	}
	r, err := core.Run(c.kernels[name].spec, corunScheme, c.opt)
	if err != nil {
		return nil, fmt.Errorf("solo reference %s: %w", name, err)
	}
	c.solo[name] = r
	return r, nil
}

// check holds a co-run to its method's properties: contention is
// timing-only, so every core's architectural digest equals its solo
// run's; a core sharing the hierarchy with its own twin can only slow
// down; and cross-core pollution is booked once on each side.
func (c *coRun) check(cr *core.CoRunResult) error {
	if len(cr.Results) != 2 {
		return fmt.Errorf("%d per-core results, want 2", len(cr.Results))
	}
	var caused, suffered uint64
	for i, r := range cr.Results {
		solo, err := c.soloRun(r.Bench)
		if err != nil {
			return err
		}
		if r.ArchDigest != solo.ArchDigest {
			return fmt.Errorf("core %d (%s): arch digest %016x, solo run gave %016x", i, r.Bench, r.ArchDigest, solo.ArchDigest)
		}
		if cr.Results[0].Bench == cr.Results[1].Bench && r.CPU.Cycles < solo.CPU.Cycles {
			return fmt.Errorf("core %d (%s): self-pair took %d cycles, fewer than solo %d", i, r.Bench, r.CPU.Cycles, solo.CPU.Cycles)
		}
		if r.CoRun == nil {
			return fmt.Errorf("core %d (%s): no co-run context", i, r.Bench)
		}
		caused += r.CoRun.PollutionCaused
		suffered += r.CoRun.PollutionSuffered
	}
	if caused != suffered {
		return fmt.Errorf("pollution caused %d != pollution suffered %d", caused, suffered)
	}
	return nil
}

// replay repeats, under spans, the construction of one co-run cell:
// each core's kernel, memory and engine, the shared system, the
// per-core ledgers and the cores.
func (c *coRun) replay(tr *tracer, benches []string) error {
	opt := c.opt
	stages := make([]*stage, len(benches))
	engines := make([]prefetch.Engine, len(benches))
	for i, name := range benches {
		st, err := replayFront(tr, c.kernels[name].spec, corunScheme, opt)
		if err != nil {
			return err
		}
		stages[i], engines[i] = st, st.engine
	}
	var cs *sim.CoRunSystem
	err := tr.callAlloc("sim.NewCoRunSystem", func() error {
		var err error
		cs, err = sim.NewCoRunSystem(memConfigFor(corunScheme, opt), engines)
		return err
	})
	if err != nil {
		return err
	}
	for i, st := range stages {
		replayLedger(tr)
		err := tr.callAlloc("cpu.New", func() error {
			_, err := cpu.New(cpu.Default(), st.m, cs.Port(i))
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *coRun) close() error { return nil }
