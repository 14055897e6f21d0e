package main

import (
	"fmt"
	"io"
	"time"
)

// endToEnd computes the metrics a user of the system sees from one
// untraced phase. attempted and failed cover the whole run. Rates and
// percentiles are medians over the phase's windows; each keeps the
// whole-phase figures as its base.
func endToEnd(out io.Writer, p *phase, setupTimes []float64, attempted, failed int64) ([]metric, error) {
	ops := float64(p.ops())
	if ops == 0 {
		return nil, fmt.Errorf("no operation completed in %v", p.wall)
	}
	rate := ratio("ops_per_s", "1/s", ops, p.wall.Seconds(), "s measured")
	rate.value = p.medianRate(func(w int) float64 { return float64(p.winOps[w]) },
		func(w int) float64 { return p.winWall[w].Seconds() })
	cpu := scaled("cpu_us_per_op", "us", float64(p.after.cpu-p.before.cpu), ops, 1e-3, "ops (num in ns)")
	cpu.value = p.medianRate(func(w int) float64 { return micros(p.winCPU[w]) },
		func(w int) float64 { return float64(p.winOps[w]) })
	fmt.Fprint(out, "# ops/s per window:")
	for w := range p.winWall {
		fmt.Fprintf(out, " %.0f", float64(p.winOps[w])/p.winWall[w].Seconds())
	}
	fmt.Fprintf(out, "\n# set-up times (s): %.3f\n", setupTimes)
	ms := []metric{
		plain("setup_s", "s", median(append([]float64(nil), setupTimes...))),
		ratio("ok_ratio", "ratio", float64(attempted-failed), float64(attempted), "ops attempted"),
		rate,
		cpu,
	}
	for _, c := range []opClass{classRead, classWrite, classScan} {
		for _, q := range []float64{50, 99} {
			v, chunks, err := p.windowedPercentile(c, q)
			if err != nil {
				return nil, fmt.Errorf("%s latency: %w", classNames[c], err)
			}
			fmt.Fprintf(out, "# %s p%g: median of %d chunks of %d samples in all: %v\n", classNames[c], q,
				len(chunks), p.sum(func(st *clientStats) int64 { return int64(len(st.lat[c])) }), chunks)
			ms = append(ms, plain(fmt.Sprintf("%s_p%g_us", classNames[c], q), "us", micros(v)))
		}
	}
	wire := float64(counterDelta(p.before.client, p.after.client, `forkbase_client_wire_bytes_total{dir="out"}`) +
		counterDelta(p.before.client, p.after.client, `forkbase_client_wire_bytes_total{dir="in"}`))
	user := float64(p.sum(func(st *clientStats) int64 { return st.userBytes }))
	ms = append(ms,
		ratio("wire_bytes_per_op", "B", wire, ops, "ops"),
		ratio("stored_bytes_per_user_byte", "ratio", float64(p.after.store.Bytes-p.before.store.Bytes), user, "bytes put"),
	)
	return ms, nil
}

// Server ops that serve each Store call a client makes: a chunk-synced
// Put negotiates, uploads and commits by root; a chunk-synced Value
// fetches with Want.
var serverOpsFor = map[string][]string{
	"get":   {"get"},
	"put":   {"put", "put_chunked", "chunk_have", "chunk_send"},
	"value": {"value", "chunk_want"},
	"apply": {"apply"},
	"track": {"track"},
}

var storeSpan = map[string]spanName{"get": spGet, "put": spPut, "value": spValue, "apply": spApply, "track": spTrack}

// perLayer computes the per-layer metrics from the traced phase t;
// the untraced phases around it give the tracing overhead.
func perLayer(name string, t *phase, untraced []*phase, agg [numSpanNames]spanAgg) []metric {
	ops := float64(t.ops())
	b, a := t.before, t.after
	srv := func(key string) float64 { return float64(counterDelta(b.server, a.server, key)) }
	srvSum := func(key string) float64 { return float64(sumDelta(b.server, a.server, key)) }
	cli := func(key string) float64 { return float64(counterDelta(b.client, a.client, key)) }
	meanUS := func(n spanName) metric {
		return scaled(spanNames[n]+"_us", "us", float64(agg[n].total), float64(agg[n].count), 1e-3, "spans (num in ns)")
	}
	var ms []metric

	// client: Store calls as the application sees them.
	var calls float64
	for k, s := range a.client {
		if s.Name == "forkbase_client_requests_total" {
			calls += float64(s.Value - b.client[k].Value)
		}
	}
	ms = append(ms, ratio("client.calls_per_op", "count", calls, ops, "ops"))
	for _, op := range []string{"get", "put", "value", "apply", "track"} {
		m := meanUS(storeSpan[op])
		m.name = "client." + op + "_us"
		ms = append(ms, m)
	}

	// server: time the server spent serving each kind of Store call,
	// per call; wire: what the client saw beyond that.
	serverUS := map[string]metric{}
	for _, op := range []string{"get", "put", "value", "apply", "track"} {
		var ns float64
		for _, sop := range serverOpsFor[op] {
			ns += srvSum(`forkbase_server_latency_ns{op="` + sop + `"}`)
		}
		serverUS[op] = scaled("server."+op+"_us", "us", ns, float64(agg[storeSpan[op]].count), 1e-3, "client calls (num in ns)")
	}
	for _, op := range []string{"get", "put", "value"} {
		c := agg[storeSpan[op]]
		clientUS := 0.0
		if c.count > 0 {
			clientUS = float64(c.total) / float64(c.count) / 1e3
		}
		ms = append(ms, plain("wire."+op+"_overhead_us", "us", clientUS-serverUS[op].value))
	}
	ms = append(ms,
		ratio("wire.bytes_out_per_op", "B", cli(`forkbase_client_wire_bytes_total{dir="out"}`), ops, "ops"),
		ratio("wire.bytes_in_per_op", "B", cli(`forkbase_client_wire_bytes_total{dir="in"}`), ops, "ops"),
	)
	for _, op := range []string{"get", "put", "value", "apply", "track"} {
		ms = append(ms, serverUS[op])
	}
	var srvErrs float64
	for k, s := range a.server {
		if s.Name == "forkbase_server_request_errors_total" {
			srvErrs += float64(s.Value - b.server[k].Value)
		}
	}
	ms = append(ms,
		ratio("server.put_batch_size_mean", "count", srvSum("forkbase_server_put_batch_size{}"), srv("forkbase_server_put_batch_size{}"), "batches"),
		scaled("server.errors_per_kop", "1/kop", srvErrs, ops, 1e3, "ops"),
	)

	// chunksync: bytes moved by have/want/send/stream, and how much of
	// the chunkable data read had to be pulled.
	var pulled float64
	for _, dir := range []string{"have", "want", "send", "stream"} {
		v := srv(`forkbase_server_chunksync_bytes_total{op="` + dir + `"}`)
		if dir == "want" || dir == "stream" {
			pulled += v
		}
		ms = append(ms, ratio("chunksync."+dir+"_bytes_per_op", "B", v, ops, "ops"))
	}
	ms = append(ms, ratio("chunksync.read_delta_ratio", "ratio", pulled,
		float64(t.sum(func(st *clientStats) int64 { return st.readBytes })), "bytes read"))

	// postree: the POS-tree calls the wiki makes on the client.
	splice, bytesRead := meanUS(spSplice), meanUS(spBlobBytes)
	splice.name, bytesRead.name = "postree.splice_us", "postree.blob_bytes_us"
	ms = append(ms, splice, bytesRead)

	// store: the server's chunk store.
	puts, gets := float64(a.store.Puts-b.store.Puts), float64(a.store.Gets-b.store.Gets)
	ms = append(ms,
		ratio("store.puts_per_op", "count", puts, ops, "ops"),
		ratio("store.gets_per_op", "count", gets, ops, "ops"),
		ratio("store.dup_ratio", "ratio", float64(a.store.Dups-b.store.Dups), puts, "chunk puts"),
		ratio("store.new_bytes_per_op", "B", float64(a.store.Bytes-b.store.Bytes), ops, "ops"),
		ratio("store.read_bytes_per_op", "B", float64(a.store.ReadBytes-b.store.ReadBytes), ops, "ops"),
	)

	// branch: the metadata journal (on-disk backends only).
	fsyncs := srv("forkbase_journal_fsync_ns{}")
	ms = append(ms,
		ratio("branch.wal_bytes_per_op", "B", srv("forkbase_meta_wal_bytes{}"), ops, "ops"),
		ratio("branch.fsyncs_per_op", "count", fsyncs, ops, "ops"),
		scaled("branch.fsync_us", "us", srvSum("forkbase_journal_fsync_ns{}"), fsyncs, 1e-3, "fsyncs (num in ns)"),
	)

	// blockchain: the ledger's own work between its Store calls.
	// Only the ledger commits blocks; elsewhere these rest on no commits.
	var commits spanAgg
	var scans, scanTrack int64
	if name == "ledger" {
		commits, scans, scanTrack = agg[spOpWrite], agg[spOpScan].count, agg[spTrack].total
	}
	ms = append(ms,
		scaled("blockchain.commit_self_us", "us", float64(commits.self), float64(commits.count), 1e-3, "commits (num in ns)"),
		ratio("blockchain.commit_calls", "count", float64(commits.childCalls), float64(commits.count), "commits"),
		scaled("blockchain.scan_track_us", "us", float64(scanTrack), float64(scans), 1e-3, "scans (num in ns)"),
	)

	// runtime: the whole process, client and server together.
	m0, m1 := &b.mem, &a.mem
	ms = append(ms,
		ratio("runtime.allocs_per_op", "count", float64(m1.Mallocs-m0.Mallocs), ops, "ops"),
		ratio("runtime.alloc_bytes_per_op", "B", float64(m1.TotalAlloc-m0.TotalAlloc), ops, "ops"),
		scaled("runtime.gc_cycles_per_kop", "1/kop", float64(m1.NumGC-m0.NumGC), ops, 1e3, "ops"),
		scaled("runtime.gc_pause_us_per_op", "us", float64(m1.PauseTotalNs-m0.PauseTotalNs), ops, 1e-3, "ops (num in ns)"),
		plain("runtime.heap_inuse_mb", "MiB", float64(m1.HeapInuse)/(1<<20)),
	)

	// trace: what recording spans cost. One operation is in flight at a
	// time, so wall time per operation is the mean operation time.
	var plainWall time.Duration
	var plainOps int64
	for _, p := range untraced {
		plainWall += p.wall
		plainOps += p.ops()
	}
	tracedUS, plainUS := micros(t.wall)/ops, micros(plainWall)/float64(plainOps)
	ms = append(ms,
		plain("trace.overhead_us_per_op", "us", tracedUS-plainUS),
		plain("trace.overhead_pct", "%", (tracedUS/plainUS-1)*100),
	)
	return ms
}
