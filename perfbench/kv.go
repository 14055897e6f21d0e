package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"forkbase"
)

// kvValueLen is the size of every kv value, preloaded or written.
const kvValueLen = 100

// kvConfig sizes the kv workload.
type kvConfig struct {
	keys         int // String keys, preloaded once each
	histKeys     int // keys whose preloaded history the scans read
	histVersions int // versions per history key; a scan reads them all
}

// kvValue is the value client writes to key as its seq-th write: the
// key, writer and sequence number lead, so a read can be checked
// against the reader's own record without keeping values around.
func kvValue(key string, client int, seq uint32) string {
	s := fmt.Sprintf("%s c%d s%010d ", key, client, seq)
	return s + strings.Repeat(".", kvValueLen-len(s))
}

// parseKV splits a kvValue back into key, writer and sequence number.
func parseKV(v string) (key string, client int, seq uint32, err error) {
	f := strings.Fields(v)
	if len(v) != kvValueLen || len(f) != 4 || len(f[1]) < 2 || len(f[2]) < 2 {
		return "", 0, 0, fmt.Errorf("malformed value %.40q", v)
	}
	c, err1 := strconv.Atoi(f[1][1:])
	s, err2 := strconv.ParseUint(f[2][1:], 10, 32)
	if err1 != nil || err2 != nil {
		return "", 0, 0, fmt.Errorf("malformed value %.40q", v)
	}
	return f[0], c, uint32(s), nil
}

func kvHistValue(key string, version int) string {
	s := fmt.Sprintf("%s v%d ", key, version)
	return s + strings.Repeat("-", kvValueLen-len(s))
}

// setupKV preloads an in-memory backend with cfg.keys Strings (key i
// belongs to client i mod clients, its only writer) and cfg.histKeys
// keys of cfg.histVersions versions each, then serves it to clients.
func setupKV(ctx context.Context, e env, cfg kvConfig) (*system, error) {
	const clients = 2
	db := forkbase.Open()
	names := make([]string, cfg.keys)
	for i := range names {
		names[i] = fmt.Sprintf("k%06d", i)
	}
	const batchSize = 1000
	for i := 0; i < cfg.keys; i += batchSize {
		b := forkbase.NewBatch()
		for j := i; j < cfg.keys && j < i+batchSize; j++ {
			b.Put(names[j], forkbase.String(kvValue(names[j], j%clients, 0)))
		}
		if _, err := db.Apply(ctx, b); err != nil {
			db.Close()
			return nil, fmt.Errorf("kv preload: %w", err)
		}
	}
	hist := make([][]string, cfg.histKeys)
	for v := 0; v < cfg.histVersions; v++ {
		b := forkbase.NewBatch()
		for h := range hist {
			key := fmt.Sprintf("h%05d", h)
			hist[h] = append(hist[h], kvHistValue(key, v))
			b.Put(key, forkbase.String(hist[h][v]))
		}
		if _, err := db.Apply(ctx, b); err != nil {
			db.Close()
			return nil, fmt.Errorf("kv history preload: %w", err)
		}
	}
	sys, err := serve(db, clients, forkbase.RemoteConfig{}, e.dir)
	if err != nil {
		return nil, err
	}
	for i := 0; i < clients; i++ {
		sys.clients = append(sys.clients, &kvClient{
			id: i, clients: clients, names: names, hist: hist,
			st:      &tracedStore{Store: sys.remotes[i]},
			rng:     clientRNG(e.seed, i),
			lastSeq: make([]uint32, (cfg.keys+clients-1)/clients),
		})
	}
	return sys, nil
}

// kvClient issues 48% Get, 48% Put and 4% history scans. Gets and
// scans pick any key; Puts pick one of the client's own keys, so the
// client knows the sequence number each of its keys must read back.
type kvClient struct {
	id, clients int
	names       []string   // shared, read-only
	hist        [][]string // shared, read-only: each history key's versions, oldest first
	st          *tracedStore
	rng         *rand.Rand
	lastSeq     []uint32 // per own key (index key/clients): last acknowledged write
}

func (c *kvClient) store() *tracedStore { return c.st }

func (c *kvClient) step(ctx context.Context, st *clientStats) {
	switch r := c.rng.Intn(100); {
	case r < 48:
		c.get(ctx, st)
	case r < 96:
		c.put(ctx, st)
	default:
		c.scan(ctx, st)
	}
}

func (c *kvClient) get(ctx context.Context, st *clientStats) {
	k := c.rng.Intn(len(c.names))
	key := c.names[k]
	t0 := time.Now()
	sp := c.st.tr.begin(spOpRead)
	o, err := c.st.Get(ctx, key)
	var v forkbase.Value
	if err == nil {
		v, err = c.st.Value(ctx, key, o)
	}
	c.st.tr.end(sp)
	d := time.Since(t0)
	if err != nil {
		st.fail(classRead, "get %s: %v", key, err)
		return
	}
	s, ok := v.(forkbase.String)
	if !ok {
		st.fail(classRead, "get %s: value of type %T", key, v)
		return
	}
	gotKey, writer, seq, err := parseKV(string(s))
	switch {
	case err != nil:
		st.fail(classRead, "get %s: %v", key, err)
	case gotKey != key || writer != k%c.clients:
		st.fail(classRead, "get %s: read a value of %s written by client %d", key, gotKey, writer)
	case writer == c.id && seq != c.lastSeq[k/c.clients]:
		st.fail(classRead, "get %s: own write %d read back as %d", key, c.lastSeq[k/c.clients], seq)
	default:
		st.done(classRead, d)
	}
}

func (c *kvClient) put(ctx context.Context, st *clientStats) {
	slot := c.rng.Intn(len(c.lastSeq))
	k := slot*c.clients + c.id
	if k >= len(c.names) {
		slot, k = 0, c.id
	}
	key := c.names[k]
	seq := c.lastSeq[slot] + 1
	val := forkbase.String(kvValue(key, c.id, seq))
	t0 := time.Now()
	sp := c.st.tr.begin(spOpWrite)
	_, err := c.st.Put(ctx, key, val)
	c.st.tr.end(sp)
	d := time.Since(t0)
	if err != nil {
		st.fail(classWrite, "put %s: %v", key, err)
		return
	}
	c.lastSeq[slot] = seq
	st.userBytes += int64(len(val))
	st.done(classWrite, d)
}

func (c *kvClient) scan(ctx context.Context, st *clientStats) {
	h := c.rng.Intn(len(c.hist))
	key := fmt.Sprintf("h%05d", h)
	want := c.hist[h]
	t0 := time.Now()
	sp := c.st.tr.begin(spOpScan)
	objs, err := c.st.Track(ctx, key, 0, len(want)-1)
	got := make([]forkbase.Value, 0, len(objs))
	for _, o := range objs {
		if err != nil {
			break
		}
		var v forkbase.Value
		v, err = c.st.Value(ctx, key, o)
		got = append(got, v)
	}
	c.st.tr.end(sp)
	d := time.Since(t0)
	if err != nil {
		st.fail(classScan, "scan %s: %v", key, err)
		return
	}
	if len(got) != len(want) {
		st.fail(classScan, "scan %s: %d versions, want %d", key, len(got), len(want))
		return
	}
	for i, v := range got {
		// Track returns the newest version first.
		if s, ok := v.(forkbase.String); !ok || string(s) != want[len(want)-1-i] {
			st.fail(classScan, "scan %s: version %d back is wrong", key, i)
			return
		}
	}
	st.done(classScan, d)
}
