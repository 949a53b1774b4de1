package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"grp/internal/campaign"
	"grp/internal/core"
	"grp/internal/serve"
	"grp/internal/workloads"
)

// Every sweep crosses serveKernels with servePrimed and one fresh value
// of the numeric prefetch.inflight overlay axis: the primed cells were
// computed by the set-up sweep (and every sweep since), the fresh ones
// by nobody yet.
var (
	serveKernels = []string{"mcf", "swim"}
	servePrimed  = []int{8, 16, 32}
)

const (
	serveScheme = "grp/var"
	serveFactor = "test"
)

// serveCells and serveFresh are a sweep's cell count and how many of
// them are new.
var (
	serveCells = len(serveKernels) * (len(servePrimed) + 1)
	serveFresh = len(serveKernels)
)

func serveSpec(values []int) string {
	vs := make([]string, len(values))
	for i, v := range values {
		vs[i] = strconv.Itoa(v)
	}
	return fmt.Sprintf("schemes=%s × kernels=%s × prefetch.inflight=%s",
		serveScheme, strings.Join(serveKernels, ","), strings.Join(vs, ","))
}

// serveBench is an in-process grpserve over a directory store in the
// run's work directory, with nproc workers, driven by one closed-loop
// client over loopback HTTP.
type serveBench struct {
	dir    string
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	// fresh is the next fresh overlay value; the seed picks where the
	// sequence starts.
	fresh int
	// sweeps counts sweeps submitted after set-up's priming sweep.
	sweeps int
	// mark are the server counters at the last reading.
	mark    serverCounters
	markErr error
	// probe is the engine, over a store of its own, that the traced pass
	// times keying, reads and writes on.
	probe *campaign.Engine
	// primed are the primed cells' results, run locally on the first
	// check; every later local reference reuses them.
	primed []*core.Result
}

func setupServe(cfg config) (bench, error) {
	dir, err := scratchDir(cfg, "serve-")
	if err != nil {
		return nil, err
	}
	s := &serveBench{
		dir: dir,
		srv: serve.New(serve.Config{
			Workers:  runtime.NumCPU(),
			CacheDir: dir,
			Warnf:    func(f string, a ...interface{}) { fmt.Fprintf(os.Stderr, "grpserve: "+f+"\n", a...) },
		}),
		fresh:  1000 + int(uint64(cfg.seed)%1000)*100_000,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		served: make(chan error, 1),
	}
	s.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Drain()
		os.RemoveAll(dir)
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()

	res, err := s.sweep(nil, serveSpec(servePrimed))
	if err == nil && res.events != len(serveKernels)*len(servePrimed) {
		err = fmt.Errorf("priming sweep streamed %d events", res.events)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("priming sweep: %w", err)
	}
	return s, nil
}

// sweepResult is what the client received for one sweep.
type sweepResult struct {
	id       string
	events   int
	artifact []byte
}

// sweep submits a spec, follows its NDJSON event stream to the end, and
// fetches its JSON artifact: the three calls a grpsweep -remote client
// makes.
func (s *serveBench) sweep(tr *tracer, spec string) (*sweepResult, error) {
	body, err := json.Marshal(serve.SweepRequest{Spec: spec, Factor: serveFactor})
	if err != nil {
		return nil, err
	}
	res := &sweepResult{}
	err = tr.call("serve.submit", func() error {
		resp, err := s.client.Post(s.base+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("submit: %s: %s", resp.Status, data)
		}
		var st serve.SweepStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return err
		}
		res.id = st.ID
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = tr.call("serve.stream", func() error {
		resp, err := s.client.Get(s.base + "/v1/sweeps/" + res.id + "/events")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("events: %s", resp.Status)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			res.events++
		}
		return sc.Err()
	})
	if err != nil {
		return nil, err
	}
	err = tr.call("serve.artifact", func() error {
		resp, err := s.client.Get(s.base + "/v1/sweeps/" + res.id + "/artifact?format=json")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		res.artifact, err = io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("artifact: %s: %s", resp.Status, res.artifact)
		}
		return err
	})
	return res, err
}

// serveRound is how many sweeps make a round.
const serveRound = 10

// ops is the next serveRound sweeps of the client's sequence, each with
// the next fresh value. The server's counters are read at the start of
// every round, so the traced pass can attribute their change to it.
func (s *serveBench) ops(rng *rand.Rand) []op {
	s.mark, s.markErr = s.counters()
	ops := make([]op, serveRound)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops
}

func (s *serveBench) next() op {
	v := s.fresh
	s.fresh++
	spec := serveSpec(append(append([]int(nil), servePrimed...), v))
	label := fmt.Sprintf("sweep %d", s.sweeps)
	s.sweeps++
	return op{
		label: label,
		call:  "serve.sweep",
		run: func(tr *tracer) (*outcome, error) {
			res, err := s.sweep(tr, spec)
			if err != nil {
				return nil, err
			}
			out := &outcome{}
			var ref *localRun
			out.check = func() error {
				var err error
				ref, err = s.check(v, res)
				if err != nil {
					return err
				}
				out.instrs = ref.freshInstrs()
				out.digest = statsDigest(ref.results...)
				return nil
			}
			out.layers = func(tr *tracer) error { return s.layers(tr, ref) }
			return out, nil
		},
	}
}

// localRun is a sweep spec run locally through campaign.Engine with no
// cache: the reference a served artifact must equal byte for byte.
type localRun struct {
	req      *serve.SweepRequest
	grid     *campaign.Grid
	results  []*core.Result
	artifact []byte
}

// runLocal runs every cell of a spec locally and renders its artifact.
func runLocal(spec string) (*localRun, error) {
	l, err := decodeLocal(spec)
	if err != nil {
		return nil, err
	}
	rep, err := campaign.New(campaign.Config{Jobs: runtime.NumCPU()}).RunReport(context.Background(), l.grid.Jobs())
	if err != nil {
		return nil, err
	}
	if len(rep.Failures) != 0 {
		return nil, fmt.Errorf("%d local cells failed, first: %v", len(rep.Failures), rep.Failures[0])
	}
	return l, l.render(rep.Results)
}

// decodeLocal parses a spec as the server does, into its grid.
func decodeLocal(spec string) (*localRun, error) {
	body, err := json.Marshal(serve.SweepRequest{Spec: spec, Factor: serveFactor})
	if err != nil {
		return nil, err
	}
	req, err := serve.DecodeSweepRequest(body)
	if err != nil {
		return nil, err
	}
	grid, err := req.Grid()
	if err != nil {
		return nil, err
	}
	return &localRun{req: req, grid: grid}, nil
}

// render sets the run's results, in grid order, and renders them as the
// JSON artifact.
func (l *localRun) render(results []*core.Result) error {
	var buf bytes.Buffer
	art := &campaign.Artifact{Spec: l.req.Spec, Factor: l.req.Factor, Policy: l.req.Policy,
		Grid: l.grid, Results: results}
	if err := campaign.WriteArtifact(&buf, "json", art); err != nil {
		return err
	}
	l.results, l.artifact = results, buf.Bytes()
	return nil
}

// reference is the local reference of the sweep whose fresh overlay
// value is v. Its primed cells are the same in every sweep, so they are
// run locally once and reused; only the fresh cells run per sweep. In
// grid order the overlay varies slowest, so the primed cells come first.
func (s *serveBench) reference(v int) (*localRun, error) {
	if s.primed == nil {
		p, err := runLocal(serveSpec(servePrimed))
		if err != nil {
			return nil, err
		}
		s.primed = p.results
	}
	f, err := runLocal(serveSpec([]int{v}))
	if err != nil {
		return nil, err
	}
	l, err := decodeLocal(serveSpec(append(append([]int(nil), servePrimed...), v)))
	if err != nil {
		return nil, err
	}
	return l, l.render(append(append([]*core.Result(nil), s.primed...), f.results...))
}

// fresh returns the indices of the cells that carry the sweep's fresh
// overlay value: in canonical grid order the overlay varies slowest, so
// they are the last len(serveKernels) cells.
func (l *localRun) fresh() []int {
	var idx []int
	for i := len(l.results) - serveFresh; i < len(l.results); i++ {
		idx = append(idx, i)
	}
	return idx
}

func (l *localRun) freshInstrs() uint64 {
	var n uint64
	for _, i := range l.fresh() {
		n += l.results[i].CPU.Instrs
	}
	return n
}

// check compares a served sweep, whose fresh overlay value is v, with
// its local reference and with the sweep's make-up: every cell
// streamed, the artifact byte-identical, and exactly the fresh cells
// simulated.
func (s *serveBench) check(v int, res *sweepResult) (*localRun, error) {
	ref, err := s.reference(v)
	if err != nil {
		return nil, fmt.Errorf("local reference: %w", err)
	}
	return ref, compareSweep(res, ref, s.status)
}

// compareSweep is check's comparison, separate so a test can plant a
// wrong byte.
func compareSweep(res *sweepResult, ref *localRun, status func(id string) (*serve.SweepStatus, error)) error {
	if res.events != serveCells {
		return fmt.Errorf("stream carried %d events for %d cells", res.events, serveCells)
	}
	if !bytes.Equal(res.artifact, ref.artifact) {
		i := 0
		for i < len(res.artifact) && i < len(ref.artifact) && res.artifact[i] == ref.artifact[i] {
			i++
		}
		return fmt.Errorf("artifact differs from the local run at byte %d of %d", i, len(ref.artifact))
	}
	st, err := status(res.id)
	if err != nil {
		return err
	}
	if st.Failed != 0 || st.Hits != serveCells-serveFresh {
		return fmt.Errorf("sweep status: %d failed, %d cache hits, want 0 and %d", st.Failed, st.Hits, serveCells-serveFresh)
	}
	return nil
}

func (s *serveBench) status(id string) (*serve.SweepStatus, error) {
	resp, err := s.client.Get(s.base + "/v1/sweeps/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serve.SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("sweep status: %w", err)
	}
	return &st, nil
}

// serverCounters are the campaign counters grpserve exports on /metrics.
type serverCounters struct {
	simulations, hits, retries float64
}

func (s *serveBench) counters() (serverCounters, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return serverCounters{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return serverCounters{}, err
	}
	return parseCounters(string(data))
}

// parseCounters reads the counters out of Prometheus text exposition.
func parseCounters(text string) (serverCounters, error) {
	var c serverCounters
	want := map[string]*float64{
		"grpserve_simulations_total": &c.simulations,
		"grpserve_cache_hits":        &c.hits,
		"grpserve_cell_retries":      &c.retries,
	}
	found := 0
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if p, ok := want[f[0]]; ok {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return c, fmt.Errorf("metric %s: %w", f[0], err)
			}
			*p = v
			found++
		}
	}
	if found != len(want) {
		return c, fmt.Errorf("found %d of %d campaign counters on /metrics", found, len(want))
	}
	return c, nil
}

// layers records, after one sweep, the server's campaign counters for
// it and the costs of the campaign calls behind it: keying the grid,
// store reads and writes of its cells, rendering its artifact, and
// running and constructing its fresh cells.
func (s *serveBench) layers(tr *tracer, ref *localRun) error {
	if s.markErr != nil {
		return s.markErr
	}
	c, err := s.counters()
	if err != nil {
		return err
	}
	tr.add("campaign.simulations", c.simulations-s.mark.simulations)
	tr.add("campaign.hits", c.hits-s.mark.hits)
	tr.add("campaign.retries", c.retries-s.mark.retries)
	s.mark = c
	if s.probe == nil {
		s.probe = campaign.New(campaign.Config{Backend: campaign.NewStore(filepath.Join(s.dir, "probe-store"), 0)})
	}
	return tr.call("replay", func() error { return replaySweep(tr, ref, s.probe) })
}

// replaySweep times the campaign layer's calls for one sweep's grid on
// eng, which like the server's engine persists across sweeps, and
// replays the sweep's fresh cells.
func replaySweep(tr *tracer, ref *localRun, eng *campaign.Engine) error {
	jobs := ref.grid.Jobs()
	store := eng.Backend()
	var keys []campaign.CellKey
	err := tr.call("campaign.Engine.Keys", func() error {
		var err error
		keys, err = eng.Keys(jobs)
		return err
	})
	if err != nil {
		return err
	}
	tr.add("keyed_cells", float64(len(keys)))
	for i, k := range keys {
		r := ref.results[i]
		if err := tr.call("campaign.Store.Put", func() error { return store.Put(k, r) }); err != nil {
			return err
		}
	}
	for _, k := range keys {
		err := tr.call("campaign.Store.Get", func() error {
			if _, ok := store.Get(k); !ok {
				return fmt.Errorf("probe store lost cell %s", k.Digest)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	err = tr.call("campaign.WriteArtifact", func() error {
		art := &campaign.Artifact{Spec: ref.req.Spec, Factor: ref.req.Factor, Policy: ref.req.Policy,
			Grid: ref.grid, Results: ref.results}
		return campaign.WriteArtifact(io.Discard, "json", art)
	})
	if err != nil {
		return err
	}
	tr.add("artifact_cells", float64(len(jobs)))
	var fresh []*core.Result
	for _, i := range ref.fresh() {
		j := jobs[i]
		spec, err := workloads.ByName(j.Bench)
		if err != nil {
			return err
		}
		var r *core.Result
		err = tr.call("core.Run", func() error {
			var err error
			r, err = core.Run(spec, j.Scheme, j.Opt)
			return err
		})
		if err != nil {
			return err
		}
		fresh = append(fresh, r)
		if err := replayCell(tr, spec, j.Scheme, j.Opt); err != nil {
			return err
		}
	}
	addCounts(tr, fresh)
	return nil
}

// close stops the server and the client, runs the whole-run check, and
// removes the store: the server simulated exactly the fresh cells of
// every sweep and retried nothing.
func (s *serveBench) close() error {
	var checkErr error
	if s.base != "" {
		c, err := s.counters()
		switch {
		case err != nil:
			checkErr = err
		case c.simulations != float64(len(serveKernels)*len(servePrimed)+serveFresh*s.sweeps):
			checkErr = fmt.Errorf("server simulated %v cells, want %d primed + %d fresh",
				c.simulations, len(serveKernels)*len(servePrimed), serveFresh*s.sweeps)
		case c.retries != 0:
			checkErr = fmt.Errorf("server retried %v cells", c.retries)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.hs.Shutdown(ctx); err != nil && checkErr == nil {
			checkErr = err
		}
		if err := <-s.served; err != http.ErrServerClosed && checkErr == nil {
			checkErr = err
		}
	}
	s.srv.Drain()
	s.client.CloseIdleConnections()
	if err := os.RemoveAll(s.dir); err != nil && checkErr == nil {
		checkErr = err
	}
	return checkErr
}
