package main

import (
	"fmt"
	"math/rand"

	"grp/internal/compiler"
	"grp/internal/conformance"
	"grp/internal/core"
	"grp/internal/mem"
	"grp/internal/progen"
	"grp/internal/workloads"
)

// The fleet checks the generated programs of seeds fleetFirstSeed up to
// fleetFirstSeed+fleetPrograms-1, the range `grpconform -n 200 -seed 1`
// checks. The run's --seed only orders them.
const (
	fleetFirstSeed = 1
	fleetPrograms  = 200
)

// fleet runs conformance.CheckWorkload over a fixed range of generated
// programs: per program the interpreter oracle, the perfect-L2
// reference and the 7 default schemes, with the attribution ledger and
// the invariant checker on.
type fleet struct {
	programs []fleetProgram
	// ref caches, per program seed, the statistics digest and committed
	// instructions of the program's reference cells (see reference).
	ref map[int64]fleetRef
	// seen counts how often each program's reference was simulated.
	seen map[int64]int
}

// fleetRef is what a program's reference cells gave.
type fleetRef struct {
	digest string
	instrs uint64
}

// fleetRefRuns is how often a program's reference cells are simulated:
// twice, so that the repeated op's digest comes from an independent
// simulation and the pass's determinism check compares two of them.
const fleetRefRuns = 2

type fleetProgram struct {
	seed int64
	w    *progen.Workload
}

func setupFleet(cfg config) (bench, error) {
	f := &fleet{ref: map[int64]fleetRef{}, seen: map[int64]int{}}
	for i := 0; i < fleetPrograms; i++ {
		seed := int64(fleetFirstSeed + i)
		w := progen.Generate(seed, progen.Config{})
		if err := w.Prog.Validate(); err != nil {
			return nil, fmt.Errorf("program %d: %w", seed, err)
		}
		f.programs = append(f.programs, fleetProgram{seed: seed, w: w})
	}
	return f, nil
}

// fleetCells is how many simulated cells one check runs: the perfect-L2
// reference plus every default scheme.
var fleetCells = 1 + len(conformance.DefaultSchemes())

func (f *fleet) ops(rng *rand.Rand) []op {
	ops := make([]op, len(f.programs))
	for i, p := range f.programs {
		ops[i] = f.program(p)
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func (f *fleet) program(p fleetProgram) op {
	return op{
		label: fmt.Sprintf("program %d", p.seed),
		call:  "conformance.CheckWorkload",
		run: func(tr *tracer) (*outcome, error) {
			pr := conformance.CheckWorkload(conformance.Config{}, p.seed, p.w)
			out := &outcome{layers: func(tr *tracer) error { return f.replay(tr, p, pr) }}
			out.check = func() error {
				if err := checkReport(pr); err != nil {
					return err
				}
				ref, err := f.reference(p, pr.Steps)
				if err != nil {
					return err
				}
				out.digest, out.instrs = ref.digest, ref.instrs
				return nil
			}
			return out, nil
		},
	}
}

// reference returns the statistics digest and committed instructions of
// a checked program's cells. The report of conformance.CheckWorkload
// carries no simulated statistics, so outside the timed region the
// benchmark runs the same cells itself: perfect L2 and the default
// schemes, with the options the harness gives them.
func (f *fleet) reference(p fleetProgram, steps int) (fleetRef, error) {
	if f.seen[p.seed] >= fleetRefRuns {
		return f.ref[p.seed], nil
	}
	f.seen[p.seed]++
	rs, err := fleetResults(p, steps)
	if err != nil {
		return fleetRef{}, err
	}
	ref := fleetRef{digest: statsDigest(rs...)}
	for _, r := range rs {
		ref.instrs += r.CPU.Instrs
	}
	f.ref[p.seed] = ref
	return ref, nil
}

// fleetOptions are the options conformance.CheckWorkload gives a cell.
var fleetOptions = core.Options{Attrib: true, CheckInvariants: true}

// fleetResults runs a program's cells: perfect L2, then every default
// scheme.
func fleetResults(p fleetProgram, steps int) ([]*core.Result, error) {
	spec := programSpec(p, steps)
	var rs []*core.Result
	for _, sc := range append([]core.Scheme{core.PerfectL2}, conformance.DefaultSchemes()...) {
		r, err := core.Run(spec, sc, fleetOptions)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc, err)
		}
		rs = append(rs, r)
	}
	return rs, nil
}

// checkReport accepts a program report only if the program was checked
// and nothing failed.
func checkReport(pr *conformance.ProgramReport) error {
	if pr.Skipped {
		return fmt.Errorf("program skipped: %s", pr.SkipReason)
	}
	if n := len(pr.Failures); n > 0 {
		return fmt.Errorf("%d conformance failures, first: %s", n, pr.Failures[0])
	}
	if pr.Cells != fleetCells {
		return fmt.Errorf("%d cells checked, want %d", pr.Cells, fleetCells)
	}
	return nil
}

// programSpec wraps a generated program as a workload spec whose
// instruction budget is the one the conformance harness derives from
// the oracle's step count.
func programSpec(p fleetProgram, steps int) *workloads.Spec {
	budget := uint64(steps)*16 + 65536
	return &workloads.Spec{
		Name: fmt.Sprintf("conform%d", p.seed),
		Build: func(workloads.Factor) *workloads.Built {
			return &workloads.Built{
				Prog: p.w.Prog,
				Init: func(m *mem.Memory, lay *compiler.Layout) {
					p.w.Init(m, func(name string) uint64 { return lay.Addr[name] })
				},
				MaxInstrs: budget,
			}
		},
	}
}

// replay repeats, under spans, what one check does: generate the
// program, interpret it, and run and construct each of its cells with
// the options the harness gives them. The cells' results supply the
// exact per-cell counts.
func (f *fleet) replay(tr *tracer, p fleetProgram, pr *conformance.ProgramReport) error {
	return tr.call("replay", func() error {
		tr.call("progen.Generate", func() error { progen.Generate(p.seed, progen.Config{}); return nil })
		m := mem.New()
		lay := compiler.Place(p.w.Prog, m)
		p.w.Init(m, func(name string) uint64 { return lay.Addr[name] })
		err := tr.call("compiler.Interp", func() error {
			return compiler.NewInterp(p.w.Prog, lay, m, 300_000).Run()
		})
		if err != nil {
			return err
		}
		spec := programSpec(p, pr.Steps)
		opt := fleetOptions
		var rs []*core.Result
		for _, sc := range append([]core.Scheme{core.PerfectL2}, conformance.DefaultSchemes()...) {
			var r *core.Result
			err := tr.call("core.Run", func() error {
				var err error
				r, err = core.Run(spec, sc, opt)
				return err
			})
			if err != nil {
				return err
			}
			rs = append(rs, r)
			if err := replayCell(tr, spec, sc, opt); err != nil {
				return err
			}
		}
		addCounts(tr, rs)
		return nil
	})
}

func (f *fleet) close() error { return nil }
