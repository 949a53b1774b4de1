package main

import (
	"fmt"
	"math/rand"

	"grp/internal/core"
	"grp/internal/workloads"
)

// paperSchemes are the paper's evaluated configurations plus the
// perfect-L2 reference every other scheme's cycles are bounded by.
var paperSchemes = []core.Scheme{core.NoPrefetch, core.StridePF, core.SRP, core.GRPFix, core.GRPVar, core.PerfectL2}

// paperFactor is the scale grptables and grpsweep default to.
const paperFactor = workloads.Small

// paperSuite runs every proxy kernel under every paper scheme, one
// core.Run per cell with no result cache. Set-up builds, compiles and
// initializes each kernel once to take its static hint census.
type paperSuite struct {
	kernels map[string]prepared
	names   []string
	// round holds the current round's results by kernel and scheme, so
	// a cell's check can compare it with its kernel's perfect-L2 cell.
	round map[string]map[core.Scheme]*core.Result
}

func setupPaperSuite(cfg config) (bench, error) {
	names := workloads.Names()
	kernels, err := prepare(names, paperFactor)
	if err != nil {
		return nil, err
	}
	return &paperSuite{kernels: kernels, names: names}, nil
}

func (p *paperSuite) ops(rng *rand.Rand) []op {
	p.round = map[string]map[core.Scheme]*core.Result{}
	var ops []op
	for _, name := range p.names {
		p.round[name] = map[core.Scheme]*core.Result{}
		for _, sc := range paperSchemes {
			ops = append(ops, p.cell(name, sc))
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func (p *paperSuite) cell(name string, sc core.Scheme) op {
	k := p.kernels[name]
	opt := core.Options{Factor: paperFactor}
	return op{
		label: name + "/" + sc.String(),
		call:  "core.Run",
		run: func(tr *tracer) (*outcome, error) {
			r, err := core.Run(k.spec, sc, opt)
			if err != nil {
				return nil, err
			}
			p.round[name][sc] = r
			return &outcome{
				instrs: r.CPU.Instrs,
				digest: statsDigest(r),
				check: func() error {
					perfect := p.round[name][core.PerfectL2]
					if perfect == nil {
						return fmt.Errorf("no perfectL2 reference for %s", name)
					}
					return checkSolo(r, perfect, k.hints)
				},
				layers: func(tr *tracer) error {
					addCounts(tr, []*core.Result{r})
					return tr.call("replay", func() error { return replayCell(tr, k.spec, sc, opt) })
				},
			}, nil
		},
	}
}

func (p *paperSuite) close() error { return nil }
