package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"forkbase"
	"forkbase/internal/blockchain"
	"forkbase/internal/workload"
)

// ledgerConfig sizes the ledger workload.
type ledgerConfig struct {
	keys      int // state keys
	versions  int // versions preloaded per key
	blockTxs  int // transactions per block
	scanDepth int // versions a StateScan returns
}

const ledgerContract = "kv"

// setupLedger preloads an on-disk backend with cfg.versions blocks
// that each write every state key, then serves it to one peer: a
// ledger over the Native ForkBase backend over a chunk-syncing
// RemoteStore.
func setupLedger(ctx context.Context, e env, cfg ledgerConfig) (*system, error) {
	db, err := forkbase.OpenPath(filepath.Join(e.dir, "server"))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	keys := make([]string, cfg.keys)
	hist := make(map[string][][]byte, cfg.keys)
	pre := blockchain.NewNative(db, ledgerContract)
	for v := 0; v < cfg.versions; v++ {
		for i := range keys {
			keys[i] = workload.Key(i)
			val := append([]byte(fmt.Sprintf("p%08d-", v*cfg.keys+i)), workload.RandText(rng, 90)...)
			pre.BufferWrite(keys[i], val)
			hist[keys[i]] = append(hist[keys[i]], val)
		}
		if _, err := pre.Commit(ctx, uint64(v)); err != nil {
			db.Close()
			return nil, fmt.Errorf("ledger preload: %w", err)
		}
	}
	sys, err := serve(db, 1, forkbase.RemoteConfig{ChunkSync: true}, e.dir)
	if err != nil {
		return nil, err
	}
	st := &tracedStore{Store: sys.remotes[0]}
	be := &recordingBackend{Native: blockchain.NewNative(st, ledgerContract)}
	c := &ledgerClient{
		cfg: cfg, st: st, be: be, keys: keys, hist: hist,
		// Blocks are sealed explicitly every blockTxs transactions, so
		// Submit never commits and read samples never include one.
		ledger:  blockchain.NewLedger(be, math.MaxInt),
		gen:     workload.NewYCSB(workload.YCSBConfig{Seed: e.seed, Keys: cfg.keys, ReadRatio: 0.5, ValueSize: 100}),
		rng:     clientRNG(e.seed, 0),
		pending: map[string][]byte{},
	}
	sys.clients = []client{c}
	sys.finish = c.finish
	return sys, nil
}

// recordingBackend remembers the value of the last Read, so a read
// transaction — which the ledger runs and discards — can be checked.
type recordingBackend struct {
	*blockchain.Native
	last []byte
}

func (b *recordingBackend) Read(ctx context.Context, key string) ([]byte, error) {
	v, err := b.Native.Read(ctx, key)
	b.last = v
	return v, err
}

// ledgerClient is a peer executing YCSB transactions (r = w = 0.5) and
// sealing a block every cfg.blockTxs of them, then running one
// StateScan. Its classes: read = a read transaction, write = a block
// commit, scan = a StateScan, other = a write transaction (buffered).
type ledgerClient struct {
	cfg    ledgerConfig
	st     *tracedStore
	be     *recordingBackend
	ledger *blockchain.Ledger
	gen    *workload.YCSB
	rng    *rand.Rand
	keys   []string
	// hist is the committer's own record: each key's committed values,
	// oldest first, trimmed to the last scanDepth.
	hist     map[string][][]byte
	pending  map[string][]byte // writes in the open block, last one per key
	txs      int
	needScan bool
}

func (c *ledgerClient) store() *tracedStore { return c.st }

func (c *ledgerClient) step(ctx context.Context, st *clientStats) {
	switch {
	case c.needScan:
		c.needScan = false
		c.scan(ctx, st)
	case c.txs == c.cfg.blockTxs:
		c.txs = 0
		c.needScan = true
		c.commit(ctx, st)
	default:
		c.txs++
		c.tx(ctx, st)
	}
}

func (c *ledgerClient) tx(ctx context.Context, st *clientStats) {
	op := c.gen.Next()
	if !op.Read {
		err := c.ledger.Submit(ctx, blockchain.Tx{Contract: ledgerContract, Ops: []blockchain.Op{{Key: op.Key, Value: op.Value}}})
		if err != nil {
			st.fail(classOther, "write tx %s: %v", op.Key, err)
			return
		}
		c.pending[op.Key] = op.Value
		st.done(classOther, 0)
		return
	}
	t0 := time.Now()
	sp := c.st.tr.begin(spOpRead)
	err := c.ledger.Submit(ctx, blockchain.Tx{Contract: ledgerContract, Ops: []blockchain.Op{{Key: op.Key, Read: true}}})
	c.st.tr.end(sp)
	d := time.Since(t0)
	h := c.hist[op.Key]
	switch {
	case err != nil:
		st.fail(classRead, "read tx %s: %v", op.Key, err)
	case !bytes.Equal(c.be.last, h[len(h)-1]):
		st.fail(classRead, "read tx %s: got %.20q, committed %.20q", op.Key, c.be.last, h[len(h)-1])
	default:
		st.readBytes += int64(len(c.be.last))
		st.done(classRead, d)
	}
}

func (c *ledgerClient) commit(ctx context.Context, st *clientStats) {
	t0 := time.Now()
	sp := c.st.tr.begin(spOpWrite)
	err := c.ledger.CommitBlock(ctx)
	c.st.tr.end(sp)
	d := time.Since(t0)
	if err != nil {
		st.fail(classWrite, "commit block %d: %v", c.ledger.Height(), err)
		return
	}
	for k, v := range c.pending {
		h := append(c.hist[k], v)
		if len(h) > c.cfg.scanDepth {
			h = h[len(h)-c.cfg.scanDepth:]
		}
		c.hist[k] = h
		st.userBytes += int64(len(v))
		delete(c.pending, k)
	}
	st.done(classWrite, d)
}

func (c *ledgerClient) scan(ctx context.Context, st *clientStats) {
	key := c.keys[c.rng.Intn(len(c.keys))]
	t0 := time.Now()
	sp := c.st.tr.begin(spOpScan)
	got, err := c.be.StateScan(ctx, key, c.cfg.scanDepth)
	c.st.tr.end(sp)
	d := time.Since(t0)
	if err != nil {
		st.fail(classScan, "state scan %s: %v", key, err)
		return
	}
	want := c.hist[key]
	if len(got) != len(want) {
		st.fail(classScan, "state scan %s: %d versions, want %d", key, len(got), len(want))
		return
	}
	for i, v := range got {
		// StateScan returns the newest version first.
		if !bytes.Equal(v, want[len(want)-1-i]) {
			st.fail(classScan, "state scan %s: version %d back differs from what was committed", key, i)
			return
		}
		st.readBytes += int64(len(v))
	}
	st.done(classScan, d)
}

// finish verifies the hash chain of every block the run sealed.
func (c *ledgerClient) finish(context.Context) error {
	if err := c.ledger.VerifyChain(); err != nil {
		return fmt.Errorf("ledger of %d blocks: %w", c.ledger.Height(), err)
	}
	return nil
}
