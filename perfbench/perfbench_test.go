package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"forkbase"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(i+1) * time.Microsecond
		}
		return s
	}
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{999, 99, false}, // 9 samples beyond p99
		{1000, 99, true}, // exactly 10
		{19, 50, false},
		{20, 50, true},
		{0, 50, false},
	} {
		v, err := percentile(samples(tc.n), tc.p)
		if tc.ok != (err == nil) {
			t.Errorf("p%g of %d samples: err = %v, want ok=%v", tc.p, tc.n, err, tc.ok)
		}
		if !tc.ok && !errors.Is(err, errTooFewSamples) {
			t.Errorf("p%g of %d samples: err = %v, want errTooFewSamples", tc.p, tc.n, err)
		}
		if tc.ok && tc.n == 1000 && v != 990*time.Microsecond {
			t.Errorf("p99 of 1..1000us = %v, want 990us", v)
		}
	}
}

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func tinyRun(t *testing.T, workload string, trace bool, seconds float64, wrap func(forkbase.Store) forkbase.Store) (*result, error) {
	t.Helper()
	cfg := config{
		workload: workload, seed: 7, seconds: seconds, trace: trace, tiny: true,
		dataDir: t.TempDir(), spansDir: t.TempDir(), wrap: wrap,
	}
	return run(context.Background(), cfg, io.Discard)
}

// TestSmoke runs every workload at tiny scale in both modes and checks
// that every operation passed and every declared metric was printed.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range []string{"kv", "wiki", "ledger"} {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			seconds := 3.0
			if trace {
				want, seconds = perLayer, 1
			}
			res, err := tinyRun(t, w, trace, seconds, nil)
			if err != nil {
				if raceEnabled && errors.Is(err, errTooFewSamples) {
					t.Logf("%s trace=%v: %v (the race detector slows the run)", w, trace, err)
					continue
				}
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d of %d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(want))
			}
			for _, name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, name)
				}
			}
			for _, m := range res.list {
				if !notRatio(m.name) && !m.isRatio() {
					t.Errorf("%s: %s is a ratio but carries no base", w, m.name)
				}
			}
		}
	}
}

// notRatio names the metrics that are not a quotient of two counts:
// set-up time, percentiles, the heap size, and differences between
// two quotients. Every other metric is a rate, mean or share.
func notRatio(name string) bool {
	return name == "setup_s" || name == "runtime.heap_inuse_mb" ||
		strings.Contains(name, "_p50_") || strings.Contains(name, "_p99_") ||
		strings.HasPrefix(name, "trace.") || strings.HasSuffix(name, "_overhead_us")
}

func TestRatioCarriesBase(t *testing.T) {
	m := ratio("x_per_op", "B", 30, 4, "ops")
	if m.value != 7.5 || !m.isRatio() || !strings.Contains(m.String(), "(30 / 4 ops)") {
		t.Errorf("ratio printed as %q", m)
	}
	if z := ratio("x_per_op", "B", 0, 0, "ops"); z.value != 0 || !strings.Contains(z.String(), "(0 / 0 ops)") {
		t.Errorf("ratio over an empty base printed as %q", z)
	}
	if plain("setup_s", "s", 1).isRatio() {
		t.Error("a plain metric claims a base")
	}
}

// wrongReads is a Store that answers every fifth Get with whatever the
// previous Get returned — usually another key's version.
type wrongReads struct {
	forkbase.Store
	mu   sync.Mutex
	n    int
	prev *forkbase.FObject
}

func (w *wrongReads) Get(ctx context.Context, key string, opts ...forkbase.Option) (*forkbase.FObject, error) {
	o, err := w.Store.Get(ctx, key, opts...)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.n++
	if err == nil && w.n%5 == 0 && w.prev != nil {
		o, w.prev = w.prev, o
		return o, nil
	}
	if err == nil {
		w.prev = o
	}
	return o, err
}

// TestInjectedWrongReadFails checks that a wrong answer is counted as
// a failure and makes the run incorrect, on every workload.
func TestInjectedWrongReadFails(t *testing.T) {
	for _, w := range []string{"kv", "wiki", "ledger"} {
		res, err := tinyRun(t, w, true, 0.5, func(s forkbase.Store) forkbase.Store { return &wrongReads{Store: s} })
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: wrong reads went unnoticed: correct=%v failed=%d of %d", w, res.Correct, res.Failed, res.Attempted)
		}
		if _, ok := res.Metrics["trace.overhead_pct"]; !ok {
			t.Errorf("%s: no metrics reported after failures", w)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(time.Now())
	root := tr.begin(spOpWrite)
	for i := 0; i < 2; i++ {
		c := tr.begin(spGet)
		time.Sleep(2 * time.Millisecond)
		tr.end(c)
	}
	time.Sleep(2 * time.Millisecond)
	tr.end(root)
	a := tr.agg[spOpWrite]
	if a.count != 1 || a.childCalls != 2 {
		t.Fatalf("root agg = %+v, want 1 span with 2 children", a)
	}
	children := tr.agg[spGet].total
	if a.self != a.total-children || a.self < int64(2*time.Millisecond) {
		t.Errorf("root self %v of total %v, children %v", time.Duration(a.self), time.Duration(a.total), time.Duration(children))
	}
	if tr.agg[spGet].self != tr.agg[spGet].total {
		t.Error("a leaf's self time differs from its duration")
	}
}
