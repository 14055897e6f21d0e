package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"time"

	"forkbase"
)

// spanName identifies a traced boundary. Workload operations are the
// roots; Store calls and POS-tree calls the benchmark makes are their
// children.
type spanName uint8

const (
	spOpRead spanName = iota
	spOpWrite
	spOpScan
	spOpOther
	spGet
	spPut
	spApply
	spTrack
	spValue
	spSplice
	spBlobBytes
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op.read", "op.write", "op.scan", "op.other",
	"store.get", "store.put", "store.apply", "store.track", "store.value",
	"postree.splice", "postree.bytes",
}

// opSpan is the root span name of an operation of class c.
func opSpan(c opClass) spanName { return spOpRead + spanName(c) }

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch; parent indexes the same tracer's buffer (-1 for an
// operation's root). Spans of one operation share op.
type span struct {
	op         uint64
	parent     int32
	name       spanName
	start, end int64
}

// spanAgg accumulates, per span name, how many spans ended and their
// total and self time. A span's self time is its duration minus the
// time its direct children cover; children of one client never
// overlap, because each client issues its calls one at a time.
type spanAgg struct {
	count       int64
	total, self int64
	// childCalls counts direct children, so a root's agg says how
	// many Store calls an operation of that class made.
	childCalls int64
}

// tracer records one client's spans. It is used by that client's
// goroutine only, so it needs no locking. A nil *tracer records
// nothing, which is how tracing is switched off.
//
// Spans are kept in memory until the run ends (up to keepSpans of
// them; later operations are aggregated but not kept), and each
// operation's self times are folded into agg when its root ends.
type tracer struct {
	epoch   time.Time
	spans   []span
	stack   []int32
	opID    uint64
	opStart int
	dropped int64
	covered []int64 // fold's scratch space
	agg     [numSpanNames]spanAgg
}

// keepSpans bounds one tracer's span buffer: about 8 MiB.
const keepSpans = 1 << 18

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, keepSpans+1024), stack: make([]int32, 0, 8)}
}

// begin opens a span under the innermost open one and returns its
// index for end.
func (t *tracer) begin(n spanName) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	} else {
		t.opID++
		t.opStart = len(t.spans)
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{op: t.opID, parent: parent, name: n, start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, idx)
	return idx
}

// end closes span idx, which must be the innermost open one. Closing
// a root folds the operation into the aggregates.
func (t *tracer) end(idx int32) {
	if t == nil {
		return
	}
	t.spans[idx].end = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
	if len(t.stack) == 0 {
		t.fold()
	}
}

// fold aggregates the operation that just ended, then drops its spans
// if the buffer is past keepSpans.
func (t *tracer) fold() {
	op := t.spans[t.opStart:]
	if cap(t.covered) < len(op) {
		t.covered = make([]int64, len(op))
	}
	covered := t.covered[:len(op)] // per span: time its direct children cover
	for i := range covered {
		covered[i] = 0
	}
	for i := len(op) - 1; i >= 0; i-- {
		s := op[i]
		if s.parent >= 0 {
			covered[int(s.parent)-t.opStart] += s.end - s.start
			t.agg[op[int(s.parent)-t.opStart].name].childCalls++
		}
	}
	for i, s := range op {
		a := &t.agg[s.name]
		a.count++
		a.total += s.end - s.start
		a.self += s.end - s.start - covered[i]
	}
	if len(t.spans) > keepSpans {
		t.spans = t.spans[:t.opStart]
		t.dropped++
	}
}

// mergeAgg sums the aggregates of several tracers.
func mergeAgg(ts []*tracer) [numSpanNames]spanAgg {
	var out [numSpanNames]spanAgg
	for _, t := range ts {
		for i, a := range t.agg {
			out[i].count += a.count
			out[i].total += a.total
			out[i].self += a.self
			out[i].childCalls += a.childCalls
		}
	}
	return out
}

// writeSpans writes every kept span as tab-separated text: client,
// op id, span index, parent index, name, start and end in ns.
func writeSpans(path string, ts []*tracer) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "client\top\tspan\tparent\tname\tstart_ns\tend_ns")
	for c, t := range ts {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", c, s.op, i, s.parent, spanNames[s.name], s.start, s.end)
		}
	}
	return w.Flush()
}

// tracedStore is a forkbase.Store decorator that records a span around
// every call the workloads make. Applications take a Store, so the
// ledger's Native backend is traced without touching it. With a nil
// tracer it only forwards.
type tracedStore struct {
	forkbase.Store
	tr *tracer
}

func (s *tracedStore) Get(ctx context.Context, key string, opts ...forkbase.Option) (*forkbase.FObject, error) {
	sp := s.tr.begin(spGet)
	o, err := s.Store.Get(ctx, key, opts...)
	s.tr.end(sp)
	return o, err
}

func (s *tracedStore) Put(ctx context.Context, key string, v forkbase.Value, opts ...forkbase.Option) (forkbase.UID, error) {
	sp := s.tr.begin(spPut)
	uid, err := s.Store.Put(ctx, key, v, opts...)
	s.tr.end(sp)
	return uid, err
}

func (s *tracedStore) Apply(ctx context.Context, b *forkbase.Batch, opts ...forkbase.Option) ([]forkbase.UID, error) {
	sp := s.tr.begin(spApply)
	uids, err := s.Store.Apply(ctx, b, opts...)
	s.tr.end(sp)
	return uids, err
}

func (s *tracedStore) Track(ctx context.Context, key string, from, to int, opts ...forkbase.Option) ([]*forkbase.FObject, error) {
	sp := s.tr.begin(spTrack)
	objs, err := s.Store.Track(ctx, key, from, to, opts...)
	s.tr.end(sp)
	return objs, err
}

func (s *tracedStore) Value(ctx context.Context, key string, o *forkbase.FObject, opts ...forkbase.Option) (forkbase.Value, error) {
	sp := s.tr.begin(spValue)
	v, err := s.Store.Value(ctx, key, o, opts...)
	s.tr.end(sp)
	return v, err
}
