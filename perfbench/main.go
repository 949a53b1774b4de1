// Command perfbench is the repository's benchmark. One invocation runs
// one workload in its own process, times calls into the public
// functions of core, conformance, campaign and serve in the process's
// own CPU time, checks every output, and prints one JSON result as its
// last line of output:
//
//	perfbench --workload paper-suite --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload and inputs again with spans and a CPU profile and prints the
// per-layer metrics instead. --reference prints the simulated reference
// figures recorded in README.md. run.py builds and runs this program;
// see README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is what one invocation was asked to do.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// workDir holds everything the run writes (the serve workload's
	// store, span dumps, profiles); goTool is the go command used to
	// read CPU profiles back with `go tool pprof`.
	workDir string
	goTool  string
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// setup builds the workload's inputs; it is timed as setup_s.
	setup func(cfg config) (bench, error)
	// service is set when a client waits on a service, the one case
	// whose latency is wall-clock time.
	service bool
}

var allWorkloads = []workload{
	{name: "paper-suite", setup: setupPaperSuite},
	{name: "fleet", setup: setupFleet},
	{name: "corun", setup: setupCoRun},
	{name: "serve", setup: setupServe, service: true},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

func main() {
	var cfg config
	var traceFlag int
	reference := flag.Bool("reference", false, "print the simulated reference figures and exit")
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-suite, fleet, corun or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "how long to measure, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for everything the run writes")
	flag.StringVar(&cfg.goTool, "go", "go", "go command, used for `go tool pprof`")
	flag.Parse()
	cfg.trace = traceFlag == 1

	if *reference {
		if err := printReference(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	w, err := findWorkload(cfg.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median. The last instance is the one measured.
const setupRepeats = 5

// minOps is the fewest ops an untraced run times, so that the p95 wall
// latency has at least minTailBeyond samples beyond it.
var minOps = minSamplesForTail(0.95)

func run(w workload, cfg config) (*result, error) {
	var setups []time.Duration
	var b bench
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, fmt.Errorf("%s: tearing down set-up %d: %w", w.name, i, err)
			}
		}
		c0 := cpuTime()
		nb, err := w.setup(cfg)
		setups = append(setups, cpuTime()-c0)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		b = nb
	}
	if cfg.trace {
		return runTraced(w.name, b, cfg)
	}
	p := newPass(b, cfg.seed, nil)
	p.runFor(time.Duration(cfg.seconds)*time.Second, minOps)
	closeErr := b.close()
	metrics, err := endToEnd(setups, p.samples, p.instrs, p.rss, w.service)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	p.summarize(os.Stdout, w.name)
	correct := p.failed == 0 && closeErr == nil
	if closeErr != nil {
		fmt.Fprintf(os.Stderr, "%s: whole-run check: %v\n", w.name, closeErr)
	}
	return &result{Correct: correct, Attempted: p.attempted, Failed: p.failed, Metrics: metrics}, nil
}

// op is one timed unit of work: a cell, a checked program, a co-run
// cell or a sweep. label is unique within a round; call names the
// public call the op makes, and its span in a traced pass.
type op struct {
	label string
	call  string
	run   func(tr *tracer) (*outcome, error)
}

// outcome is what one op produced.
type outcome struct {
	// instrs is the simulated instructions the op committed, all cores.
	instrs uint64
	// digest fingerprints the op's simulated statistics.
	digest string
	// check verifies the op's output. It runs after the round's ops, so
	// it may compare against other ops of the same round.
	check func() error
	// layers records the op's exact per-cell counts and replays the
	// construction of its cells under spans; traced pass only.
	layers func(tr *tracer) error
}

// bench is a set-up workload instance.
type bench interface {
	// ops returns one round of ops, in the order the seeded rng picks.
	ops(rng *rand.Rand) []op
	// close releases what set-up acquired and runs the whole-run checks.
	close() error
}

// pass runs whole rounds of a bench's ops.
type pass struct {
	b   bench
	rng *rand.Rand
	tr  *tracer // nil in an untraced pass

	samples   []sample
	attempted int
	failed    int
	instrs    uint64
	rounds    int
	// gc is the runtime's GC figures over the timed ops. Reading them
	// is not instrumentation, so every pass takes them.
	gc gcFigures
	// rss is each round's peak resident set, sampled after every timed
	// op. The process's lifetime peak (getrusage maxrss) is not used: it
	// is set by rare spikes of GC pacing, and its quartile spread over
	// ten fleet runs reached 24%.
	rss []float64
	// firstDigest maps an op label to its first statistics digest; the
	// simulator is deterministic, so a repeated op must match it.
	firstDigest map[string]string
	// digestLabels are the labels first seen among the first minOps
	// ops, which every run reaches: the run's digest covers them.
	digestLabels []string
	failures     []string
}

func newPass(b bench, seed int64, tr *tracer) *pass {
	return &pass{b: b, rng: rand.New(rand.NewSource(seed)), tr: tr, firstDigest: map[string]string{}}
}

// runFor runs whole rounds until at least d of wall time has passed
// and at least minOps ops were timed.
func (p *pass) runFor(d time.Duration, minOps int) {
	start := time.Now()
	for p.rounds == 0 || time.Since(start) < d || p.attempted < minOps {
		p.round()
	}
}

// round times one round of ops, then checks them outside the timed
// region.
func (p *pass) round() {
	ops := p.b.ops(p.rng)
	outs := make([]*outcome, len(ops))
	errs := make([]error, len(ops))
	first := p.attempted
	// Collect the garbage of earlier checks and replays now, so the
	// round's ops are charged only for collecting their own.
	runtime.GC()
	if p.tr != nil {
		p.tr.resume()
	}
	gcMark := readGC()
	var rss uint64
	for i, o := range ops {
		if p.tr != nil {
			p.tr.op = first + i
		}
		m := startMeter()
		id := p.tr.begin(o.call)
		outs[i], errs[i] = o.run(p.tr)
		p.tr.end(id)
		p.samples = append(p.samples, m.stop())
		rss = max(rss, residentBytes())
	}
	p.gc.addSince(gcMark)
	p.rss = append(p.rss, float64(rss))
	if p.tr != nil {
		p.tr.pause()
	}
	p.attempted += len(ops)

	for i, o := range ops {
		if p.tr != nil {
			p.tr.op = first + i
		}
		err := errs[i]
		if err == nil {
			err = outs[i].check()
		}
		if err == nil {
			if d, ok := p.firstDigest[o.label]; ok && d != outs[i].digest {
				err = fmt.Errorf("statistics digest %s differs from the same op's earlier %s", outs[i].digest, d)
			}
		}
		if err == nil && p.tr != nil {
			err = outs[i].layers(p.tr)
		}
		if err != nil {
			p.failed++
			p.failures = append(p.failures, fmt.Sprintf("%s: %v", o.label, err))
			continue
		}
		p.instrs += outs[i].instrs
		if _, ok := p.firstDigest[o.label]; !ok {
			p.firstDigest[o.label] = outs[i].digest
			if first+i < minOps {
				p.digestLabels = append(p.digestLabels, o.label)
			}
		}
	}
	p.rounds++
}

// digest is the simulated-statistics digest of the run: every op label
// first seen among the first minOps ops, with its statistics digest, in
// label order. It is the same for every run of a seed, however long.
func (p *pass) digest() string {
	labels := append([]string(nil), p.digestLabels...)
	sort.Strings(labels)
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l + "=" + p.firstDigest[l]
	}
	return hashStrings(parts)
}

// summarize prints the run's human-readable summary lines: the op
// counts, the failures, and the simulated-statistics digest.
func (p *pass) summarize(f *os.File, name string) {
	for _, s := range p.failures {
		fmt.Fprintf(os.Stderr, "%s: FAILED %s\n", name, s)
	}
	fmt.Fprintf(f, "%s: %d rounds, %d ops attempted, %d failed, simulated-statistics digest %s\n",
		name, p.rounds, p.attempted, p.failed, p.digest())
}

// scratchDir makes a fresh directory under the run's work directory.
func scratchDir(cfg config, prefix string) (string, error) {
	abs, err := filepath.Abs(cfg.workDir)
	if err != nil {
		return "", err
	}
	return os.MkdirTemp(abs, prefix)
}
