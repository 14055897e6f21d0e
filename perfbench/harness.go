package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"forkbase"
)

// client is one closed-loop load generator: it sends its next
// operation only after the previous one returned. Each client draws
// its operations from its own seeded generator.
type client interface {
	// step runs one operation, records its latency into st and checks
	// what it returned, counting a wrong answer as a failure.
	step(ctx context.Context, st *clientStats)
	// store is the traced Store the client's calls go through; the
	// harness switches its tracer on for the traced phase.
	store() *tracedStore
}

// clientStats is what one client measured in one phase. Latency
// slices are preallocated, and only the goroutine driving the clients
// writes them, so recording a sample is an append with no lock.
type clientStats struct {
	lat       [numClasses][]time.Duration
	ops       [numClasses]int64
	failed    int64
	firstFail string
	// userBytes is the logical size of what the phase's puts carried:
	// a value's full length, whether or not it deduplicated.
	userBytes int64
	// readBytes is the size of the chunkable values the phase read.
	readBytes int64
	// finished mirrors the sum of ops for the phase's window sampler,
	// which reads it while the client runs.
	finished atomic.Int64
}

func newClientStats(capacity int) *clientStats {
	st := &clientStats{}
	for c := classRead; c < classOther; c++ {
		st.lat[c] = make([]time.Duration, 0, capacity)
	}
	return st
}

// done counts one operation of class c that took d and passed its
// check.
func (st *clientStats) done(c opClass, d time.Duration) {
	st.ops[c]++
	st.finished.Add(1)
	if c != classOther {
		st.lat[c] = append(st.lat[c], d)
	}
}

// fail counts one operation of class c that errored or returned a
// wrong answer. It records no latency: a failed operation misses any
// latency limit, so it is counted against ok_ratio instead.
func (st *clientStats) fail(c opClass, format string, args ...any) {
	st.ops[c]++
	st.finished.Add(1)
	st.failed++
	if st.firstFail == "" {
		st.firstFail = fmt.Sprintf(format, args...)
	}
}

func (st *clientStats) total() int64 {
	var n int64
	for _, v := range st.ops {
		n += v
	}
	return n
}

// system is one set-up instance of a workload: the backend, the
// server on a loopback listener, the dialed clients and the workload's
// final check.
type system struct {
	db      *forkbase.DB
	srv     *forkbase.Server
	served  chan error
	remotes []*forkbase.RemoteStore
	clients []client
	// finish runs the workload's end-of-run checks (nil: none).
	finish func(ctx context.Context) error
	dir    string
}

// serve starts db behind a server on 127.0.0.1 and dials n clients,
// each with its own single-connection RemoteStore. With chunk sync on,
// client i keeps its chunk cache under dir/cache-i: the 64 MiB
// in-memory cache over an on-disk store. Without a directory the
// cache would sit over an unbounded in-memory store, and the client
// heap, with the garbage collector's work, would grow through the run.
func serve(db *forkbase.DB, n int, cfg forkbase.RemoteConfig, dir string) (*system, error) {
	sys := &system{db: db, served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.srv = forkbase.NewServer(db, forkbase.ServerOptions{})
	go func() { sys.served <- sys.srv.Serve(ln) }()
	cfg.Conns = 1
	for i := 0; i < n; i++ {
		if cfg.ChunkSync {
			cfg.ChunkCacheDir = filepath.Join(dir, fmt.Sprintf("cache-%d", i))
		}
		rs, err := forkbase.Dial(ln.Addr().String(), cfg)
		if err != nil {
			sys.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		sys.remotes = append(sys.remotes, rs)
	}
	return sys, nil
}

// close tears the system down: clients, then the server (waiting for
// its serve loop to return), then the backend and its files.
func (sys *system) close() error {
	var errs []error
	for _, rs := range sys.remotes {
		errs = append(errs, rs.Close())
	}
	if sys.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, sys.srv.Shutdown(ctx))
		cancel()
		if err := <-sys.served; !errors.Is(err, forkbase.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if sys.db != nil {
		errs = append(errs, sys.db.Close())
	}
	if sys.dir != "" {
		errs = append(errs, os.RemoveAll(sys.dir))
	}
	return errors.Join(errs...)
}

// snapshot is the state of every counter a phase is measured by.
type snapshot struct {
	cpu    time.Duration
	mem    runtime.MemStats
	store  forkbase.StoreStats
	server map[string]forkbase.MetricSample
	client map[string]forkbase.MetricSample // summed over clients
}

func (sys *system) snapshot() (snapshot, error) {
	var s snapshot
	var err error
	if s.cpu, err = processCPU(); err != nil {
		return s, err
	}
	runtime.ReadMemStats(&s.mem)
	s.store = sys.db.Stats()
	s.server = index(sys.srv.MetricsSnapshot())
	s.client = map[string]forkbase.MetricSample{}
	for _, rs := range sys.remotes {
		for k, v := range index(rs.MetricsSnapshot()) {
			acc := s.client[k]
			acc.Name, acc.Tags, acc.Kind = v.Name, v.Tags, v.Kind
			acc.Value += v.Value
			acc.Sum += v.Sum
			s.client[k] = acc
		}
	}
	return s, nil
}

func index(samples []forkbase.MetricSample) map[string]forkbase.MetricSample {
	m := make(map[string]forkbase.MetricSample, len(samples))
	for _, s := range samples {
		m[s.Name+"{"+s.Tags+"}"] = s
	}
	return m
}

// windows is how many equal stretches a phase is cut into. Rates are
// reported as the median stretch, so a burst of interference from
// outside the benchmark moves one stretch rather than the result.
const windows = 5

// phase is one measured stretch: per-client stats plus the counter
// snapshots that bracket it. MemStats are read only at the two ends,
// never while clients run; rusage is also read at window boundaries.
type phase struct {
	wall   time.Duration
	stats  []*clientStats
	before snapshot
	after  snapshot
	// Per window: wall time, process CPU time and operations.
	winWall, winCPU []time.Duration
	winOps          []int64
}

// run drives the clients in a closed loop until d has passed and
// returns what they measured. One goroutine takes the clients in turn,
// so exactly one operation is in flight: on a small host, concurrent
// clients keep every core busy and their latencies then measure waits
// for a core rather than the system.
func (sys *system) run(ctx context.Context, d time.Duration, capacity int) (*phase, error) {
	p := &phase{stats: make([]*clientStats, len(sys.clients))}
	for i := range p.stats {
		p.stats[i] = newClientStats(capacity)
	}
	var err error
	if p.before, err = sys.snapshot(); err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) && ctx.Err() == nil {
			for i, c := range sys.clients {
				c.step(ctx, p.stats[i])
			}
		}
	}()
	prevAt, prevCPU, prevOps := start, p.before.cpu, int64(0)
	for w := 1; w <= windows; w++ {
		if w < windows {
			time.Sleep(time.Until(start.Add(d * time.Duration(w) / windows)))
		} else {
			wg.Wait()
		}
		cpu, err := processCPU()
		if err != nil {
			wg.Wait()
			return nil, err
		}
		at, ops := time.Now(), p.opsSoFar()
		p.winWall = append(p.winWall, at.Sub(prevAt))
		p.winCPU = append(p.winCPU, cpu-prevCPU)
		p.winOps = append(p.winOps, ops-prevOps)
		prevAt, prevCPU, prevOps = at, cpu, ops
	}
	p.wall = time.Since(start)
	if p.after, err = sys.snapshot(); err != nil {
		return nil, err
	}
	return p, nil
}

// processCPU is the user and system CPU time the process has used.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// opsSoFar sums the operations the clients have finished; it may run
// while they do.
func (p *phase) opsSoFar() int64 {
	var n int64
	for _, st := range p.stats {
		n += st.finished.Load()
	}
	return n
}

// medianRate is the median over windows of num/den per window.
func (p *phase) medianRate(num, den func(w int) float64) float64 {
	vs := make([]float64, 0, len(p.winWall))
	for w := range p.winWall {
		if d := den(w); d > 0 {
			vs = append(vs, num(w)/d)
		}
	}
	return median(vs)
}

// windowedPercentile is the median, over k chunks of the phase, of each
// chunk's q-th percentile of class c, and the chunks' percentiles.
// Chunk j holds the j-th k-th of every client's samples, in the order
// they were taken, so it covers about the j-th k-th of the phase. k is
// `windows`, or fewer when the phase has too few samples for every
// chunk to pass percentile's sample floor. Like the rates, a tail read
// this way ignores a stretch of the run slowed from outside.
func (p *phase) windowedPercentile(c opClass, q float64) (time.Duration, []time.Duration, error) {
	var n int
	for _, st := range p.stats {
		n += len(st.lat[c])
	}
	var err error
	for k := windows; k >= 1; k-- {
		vs := make([]float64, 0, k)
		chunks := make([]time.Duration, 0, k)
		for j := 0; j < k; j++ {
			var chunk []time.Duration
			for _, st := range p.stats {
				s := st.lat[c]
				chunk = append(chunk, s[j*len(s)/k:(j+1)*len(s)/k]...)
			}
			var v time.Duration
			if v, err = percentile(sortDurations(chunk), q); err != nil {
				break
			}
			vs = append(vs, float64(v))
			chunks = append(chunks, v)
		}
		if len(chunks) == k {
			return time.Duration(median(vs)), chunks, nil
		}
	}
	return 0, nil, fmt.Errorf("%d %s samples: %w", n, classNames[c], err)
}

func (p *phase) ops() int64 {
	var n int64
	for _, st := range p.stats {
		n += st.total()
	}
	return n
}

func (p *phase) failed() (int64, string) {
	var n int64
	first := ""
	for _, st := range p.stats {
		n += st.failed
		if first == "" {
			first = st.firstFail
		}
	}
	return n, first
}

func (p *phase) sum(f func(*clientStats) int64) int64 {
	var n int64
	for _, st := range p.stats {
		n += f(st)
	}
	return n
}

// counterDelta is the growth of a counter (or a histogram's count)
// between the phase's two snapshots.
func counterDelta(before, after map[string]forkbase.MetricSample, key string) int64 {
	return after[key].Value - before[key].Value
}

// sumDelta is the growth of a histogram's sum of observations.
func sumDelta(before, after map[string]forkbase.MetricSample, key string) int64 {
	return after[key].Sum - before[key].Sum
}

// clientRNG is client i's generator: every client draws a fixed,
// seeded sequence, so the same seed repeats the same operations.
func clientRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(i) + 1))
}
