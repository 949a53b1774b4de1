package main

import (
	"fmt"
	"io"
	"math"

	"grp/internal/core"
)

// printReference simulates the paper-suite grid and the co-run matrix
// once and prints the reference figures README.md records: GRP/Var's
// speedup over the no-prefetch baseline, its traffic ratio and its gap
// to a perfect L2 (geometric means over the timed kernels), and the
// co-run slowdown against solo runs. They are simulated figures of an
// unvalidated model, not host-time metrics.
func printReference(w io.Writer) error {
	suite, err := core.RunSuite(nil, paperSchemes, core.Options{Factor: paperFactor})
	if err != nil {
		return err
	}
	var speedup, traffic, gapVar, gapBase []float64
	for _, b := range suite.TimedBenches() {
		base, grp, perfect := suite.Get(b, core.NoPrefetch), suite.Get(b, core.GRPVar), suite.Get(b, core.PerfectL2)
		speedup = append(speedup, float64(base.CPU.Cycles)/float64(grp.CPU.Cycles))
		traffic = append(traffic, float64(grp.TrafficBytes)/float64(base.TrafficBytes))
		gapVar = append(gapVar, float64(grp.CPU.Cycles)/float64(perfect.CPU.Cycles))
		gapBase = append(gapBase, float64(base.CPU.Cycles)/float64(perfect.CPU.Cycles))
	}
	fmt.Fprintf(w, "paper-suite, %s factor, %d timed kernels (geometric means):\n", paperFactor, len(speedup))
	fmt.Fprintf(w, "  grp/var speedup over base      %.3f\n", geomean(speedup))
	fmt.Fprintf(w, "  grp/var traffic / base traffic %.3f\n", geomean(traffic))
	fmt.Fprintf(w, "  grp/var gap to perfectL2       %.1f%%\n", 100*(geomean(gapVar)-1))
	fmt.Fprintf(w, "  base gap to perfectL2          %.1f%%\n", 100*(geomean(gapBase)-1))

	var slowdown []float64
	n := 0
	for i, a := range corunKernels {
		for _, b := range corunKernels[i:] {
			cr, err := core.RunCoRun([]string{a, b}, corunScheme, corunOptions())
			if err != nil {
				return err
			}
			if err := cr.ComputeSlowdowns(corunOptions()); err != nil {
				return err
			}
			slowdown = append(slowdown, cr.Slowdown...)
			n++
		}
	}
	fmt.Fprintf(w, "corun, %d pairs of %v under %s, %s factor:\n", n, corunKernels, corunScheme, corunFactor)
	fmt.Fprintf(w, "  co-run slowdown over solo      %.3f (geometric mean over %d cores)\n", geomean(slowdown), len(slowdown))
	return nil
}

func geomean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
