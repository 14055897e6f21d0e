// Command perfbench is ForkBase's end-to-end benchmark. It runs one
// workload against an in-process server on a loopback listener,
// reached through forkbase.Dial, checks every answer, and prints its
// metrics; the last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, through the wrapper that builds
// it):
//
//	python3 perfbench/run.py --workload kv|wiki|ledger --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1
// the run measures a quarter of its time untraced, half traced and a
// quarter untraced, and reports per-layer metrics from the traced half
// plus the tracing overhead.
// README.md in this directory explains the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"forkbase"
)

// env is what a workload's setup gets: the seed its inputs derive
// from and a directory for on-disk backends.
type env struct {
	seed int64
	dir  string
}

// mix is one workload: a traffic mix and the system it runs against.
type mix struct {
	name string
	// flush states the backend's durability setting, printed with the
	// results.
	flush string
	setup func(ctx context.Context, e env) (*system, error)
	// opsPerSec sizes the preallocated latency buffers per client.
	opsPerSec int
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dataDir  string
	spansDir string
	commit   string
	source   string
	// tiny shrinks every workload for the package's own tests.
	tiny bool
	// wrap, when set, is applied to every client's Store after set-up;
	// the package's tests inject faults with it.
	wrap func(forkbase.Store) forkbase.Store
}

// warmup returns the untimed warm-up for a run measuring d: 10 s, or
// half a shorter run. The chunk-sync clients' 64 MiB caches start with
// the 16 MiB the preload left and fill with new chunks at a few MB/s;
// until they are full, the heap and the collector's work grow, and a
// 2 s warm-up left the wiki's write p99 rising through the phase.
func warmup(d time.Duration) time.Duration {
	if w := d / 2; w < 10*time.Second {
		return w
	}
	return 10 * time.Second
}

// setupRepeats is how many times an end-to-end run sets its system up;
// setup_s is the median.
const setupRepeats = 5

func workloads(tiny bool) map[string]mix {
	kv := kvConfig{keys: 100_000, histKeys: 1024, histVersions: 8}
	wiki := wikiConfig{pages: 256, pageBytes: 64 << 10, versions: 9, editBytes: 64, maxBack: 8}
	ledger := ledgerConfig{keys: 2048, versions: 8, blockTxs: 50, scanDepth: 8}
	if tiny {
		kv = kvConfig{keys: 200, histKeys: 8, histVersions: 4}
		wiki = wikiConfig{pages: 8, pageBytes: 8 << 10, versions: 9, editBytes: 32, maxBack: 8}
		ledger = ledgerConfig{keys: 32, versions: 8, blockTxs: 10, scanDepth: 8}
	}
	const fileFlush = "on-disk backend, default flush policy: no per-write fsync of chunk log or journal"
	return map[string]mix{
		"kv": {name: "kv", flush: "in-memory backend: nothing is flushed", opsPerSec: 12_000,
			setup: func(ctx context.Context, e env) (*system, error) { return setupKV(ctx, e, kv) }},
		"wiki": {name: "wiki", flush: fileFlush, opsPerSec: 2_000,
			setup: func(ctx context.Context, e env) (*system, error) { return setupWiki(ctx, e, wiki) }},
		"ledger": {name: "ledger", flush: fileFlush, opsPerSec: 8_000,
			setup: func(ctx context.Context, e env) (*system, error) { return setupLedger(ctx, e, ledger) }},
	}
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: kv, wiki or ledger")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&cfg.dataDir, "data", ".bench_build/data", "directory for on-disk backends")
	flag.StringVar(&cfg.spansDir, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source commit, for the fingerprint")
	flag.StringVar(&cfg.source, "source", "unknown", "digest of the source tree, for the fingerprint")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(context.Background(), cfg, os.Stdout)
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
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the JSON object printed last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
	list      []metric
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run sets the workload up, warms it, measures it and checks it,
// printing a report to out. It returns an error, and no result, when
// the benchmark itself could not run.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	w, ok := workloads(cfg.tiny)[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want kv, wiki or ledger)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	measure := time.Duration(cfg.seconds * float64(time.Second))
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "# host: %s\n", fingerprint(cfg))
	fmt.Fprintf(out, "# flush policy: %s\n", w.flush)

	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	sys, setupTimes, err := setUp(ctx, w, cfg, repeats)
	if err != nil {
		return nil, err
	}
	defer sys.close() // the system's data is thrown away; its teardown changes no result
	if cfg.wrap != nil {
		for _, c := range sys.clients {
			c.store().Store = cfg.wrap(c.store().Store)
		}
	}

	// Warm-up: untimed, but checked like the measured phase.
	var t tally
	warm, err := warmUp(ctx, sys, w, warmup(measure))
	if err != nil {
		return nil, err
	}
	t.add(warm)

	var metrics []metric
	if !cfg.trace {
		runtime.GC()
		p, err := sys.run(ctx, measure, capacity(w, measure))
		if err != nil {
			return nil, err
		}
		t.add(p)
		if metrics, err = endToEnd(out, p, setupTimes, t.attempted, t.failed); err != nil {
			return nil, err
		}
	} else {
		if metrics, err = traceRun(ctx, sys, w, cfg, measure, &t, out); err != nil {
			return nil, err
		}
	}
	if sys.finish != nil {
		t.attempted++
		if err := sys.finish(ctx); err != nil {
			t.failed++
			if t.firstFail == "" {
				t.firstFail = err.Error()
			}
		}
	}
	if t.firstFail != "" {
		fmt.Fprintf(out, "# FAILED: %d of %d operations; first: %s\n", t.failed, t.attempted, t.firstFail)
	}
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]resultValue{}}
	for _, m := range metrics {
		fmt.Fprintln(out, m)
		res.Metrics[m.name] = resultValue{Value: m.value, Unit: m.unit}
	}
	res.list = metrics
	return res, nil
}

// tally counts every checked operation of a run, warm-up included.
type tally struct {
	attempted, failed int64
	firstFail         string
}

func (t *tally) add(p *phase) {
	t.attempted += p.ops()
	n, first := p.failed()
	t.failed += n
	if t.firstFail == "" {
		t.firstFail = first
	}
}

// traceRun measures untraced for a quarter of d, traced for half and
// untraced again for a quarter, and computes the per-layer metrics
// from the traced half. Putting the untraced time on both sides of
// the traced time cancels a steady drift of the host's speed out of
// the tracing overhead. The kept spans are written to cfg.spansDir.
func traceRun(ctx context.Context, sys *system, w mix, cfg config, d time.Duration, t *tally, out io.Writer) ([]metric, error) {
	var untraced []*phase
	var traced *phase
	tracers := make([]*tracer, len(sys.clients))
	for i, span := range []time.Duration{d / 4, d / 2, d / 4} {
		if i == 1 {
			epoch := time.Now()
			for j, c := range sys.clients {
				tracers[j] = newTracer(epoch)
				c.store().tr = tracers[j]
			}
		}
		runtime.GC()
		p, err := sys.run(ctx, span, capacity(w, span))
		for _, c := range sys.clients {
			c.store().tr = nil
		}
		if err != nil {
			return nil, err
		}
		t.add(p)
		if i == 1 {
			traced = p
		} else {
			untraced = append(untraced, p)
		}
	}
	agg := mergeAgg(tracers)
	fmt.Fprintln(out, "# self time per span (traced phase)")
	fmt.Fprint(out, selfTimeReport(agg))
	if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.tsv", w.name, cfg.seed))
	if err := writeSpans(path, tracers); err != nil {
		return nil, err
	}
	var dropped int64
	for _, tr := range tracers {
		dropped += tr.dropped
	}
	fmt.Fprintf(out, "# spans written to %s (%d later operations aggregated but not kept)\n", path, dropped)
	return perLayer(w.name, traced, untraced, agg), nil
}

// capacity is the per-class latency buffer a client preallocates for
// a phase of length d.
func capacity(w mix, d time.Duration) int {
	return int(float64(w.opsPerSec)*d.Seconds()) + 1024
}

// setUp builds the workload's system repeats times, keeping the last
// and tearing the others down, and returns the set-up times in
// seconds. Each set-up opens the backend, preloads it, starts the
// server and dials the clients.
func setUp(ctx context.Context, w mix, cfg config, repeats int) (*system, []float64, error) {
	var sys *system
	var times []float64
	for i := 0; i < repeats; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, nil, err
			}
			runtime.GC()
		}
		dir := filepath.Join(cfg.dataDir, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		var err error
		sys, err = w.setup(ctx, env{seed: cfg.seed, dir: dir})
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, fmt.Errorf("set up %s: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		sys.dir = dir
	}
	return sys, times, nil
}

// warmer is a client with something to do before the timed warm-up,
// such as filling its cache.
type warmer interface {
	warm(ctx context.Context, st *clientStats)
}

// warmUp runs every client's warm step, then the workload itself for
// d; nothing from it is reported except failures.
func warmUp(ctx context.Context, sys *system, w mix, d time.Duration) (*phase, error) {
	pre := &phase{}
	for _, c := range sys.clients {
		st := newClientStats(0)
		if wc, ok := c.(warmer); ok {
			wc.warm(ctx, st)
		}
		pre.stats = append(pre.stats, st)
	}
	p, err := sys.run(ctx, d, capacity(w, d))
	if err != nil {
		return nil, err
	}
	p.stats = append(p.stats, pre.stats...)
	return p, nil
}

// fingerprint names the host and build a result came from.
func fingerprint(cfg config) string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.commit, cfg.source)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// selfTimeReport tabulates the traced phase per span name: count, mean
// duration and mean self time.
func selfTimeReport(agg [numSpanNames]spanAgg) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %-16s %10s %12s %12s %10s\n", "span", "count", "mean_us", "self_us", "calls")
	for i, a := range agg {
		if a.count == 0 {
			continue
		}
		n := float64(a.count)
		fmt.Fprintf(&b, "# %-16s %10d %12.2f %12.2f %10.2f\n", spanNames[i], a.count,
			float64(a.total)/n/1e3, float64(a.self)/n/1e3, float64(a.childCalls)/n)
	}
	return b.String()
}
