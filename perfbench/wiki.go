package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"time"

	"forkbase"
	"forkbase/internal/workload"
)

// wikiConfig sizes the wiki workload.
type wikiConfig struct {
	pages     int // pages in the wiki; each editor owns half
	pageBytes int // initial page size
	versions  int // versions preloaded per page
	editBytes int // bytes an edit writes
	maxBack   int // history reads go 1..maxBack versions back
}

// wikiPage is the SHA-256 oracle of one page: the digest of every
// version ever written, oldest first. Only the page's owner appends,
// and it appends before it puts, so any version another editor can
// read is already listed.
type wikiPage struct {
	name string
	hist [][sha256.Size]byte
}

// check reports whether sum is the digest of the version back versions
// behind the owner's latest write (exact), or, for a reader that does
// not own the page, of any version written so far.
func (p *wikiPage) check(sum [sha256.Size]byte, back int, exact bool) bool {
	if exact {
		i := len(p.hist) - 1 - back
		return i >= 0 && p.hist[i] == sum
	}
	for _, h := range p.hist {
		if h == sum {
			return true
		}
	}
	return false
}

func splice(cur []byte, off, del int, ins []byte) []byte {
	next := make([]byte, 0, len(cur)-del+len(ins))
	next = append(next, cur[:off]...)
	next = append(next, ins...)
	return append(next, cur[off+del:]...)
}

// setupWiki preloads an on-disk backend with cfg.pages pages of
// cfg.versions versions each and serves it to two editors, each with
// its own chunk-syncing RemoteStore and default-sized chunk cache.
func setupWiki(ctx context.Context, e env, cfg wikiConfig) (*system, error) {
	const editors = 2
	db, err := forkbase.OpenPath(filepath.Join(e.dir, "server"))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	pages := make([]*wikiPage, cfg.pages)
	content := make([][]byte, cfg.pages)
	for g := range pages {
		p := &wikiPage{name: fmt.Sprintf("page-%05d", g)}
		pages[g] = p
		content[g] = workload.RandText(rng, cfg.pageBytes)
		if _, err := db.Put(ctx, p.name, forkbase.NewBlob(content[g])); err != nil {
			db.Close()
			return nil, fmt.Errorf("wiki preload: %w", err)
		}
		p.hist = append(p.hist, sha256.Sum256(content[g]))
		for v := 1; v < cfg.versions; v++ {
			off := rng.Intn(len(content[g]) - cfg.editBytes)
			ins := workload.RandText(rng, cfg.editBytes)
			del := 0
			if rng.Intn(2) == 0 {
				del = len(ins)
			}
			if err := preloadEdit(ctx, db, p.name, off, del, ins); err != nil {
				db.Close()
				return nil, fmt.Errorf("wiki preload: %w", err)
			}
			content[g] = splice(content[g], off, del, ins)
			p.hist = append(p.hist, sha256.Sum256(content[g]))
		}
	}
	sys, err := serve(db, editors, forkbase.RemoteConfig{ChunkSync: true}, e.dir)
	if err != nil {
		return nil, err
	}
	for i := 0; i < editors; i++ {
		own := make([][]byte, 0, cfg.pages/editors)
		for g := i; g < cfg.pages; g += editors {
			own = append(own, content[g])
		}
		sys.clients = append(sys.clients, &wikiEditor{
			id: i, editors: editors, cfg: cfg, pages: pages, content: own,
			st:    &tracedStore{Store: sys.remotes[i]},
			rng:   clientRNG(e.seed, i),
			trace: workload.NewWikiTrace(e.seed*31+int64(i), len(own), cfg.editBytes, 0.5, 0),
		})
	}
	return sys, nil
}

func preloadEdit(ctx context.Context, db *forkbase.DB, page string, off, del int, ins []byte) error {
	o, err := db.Get(ctx, page)
	if err != nil {
		return err
	}
	v, err := db.Value(ctx, page, o)
	if err != nil {
		return err
	}
	b, err := forkbase.AsBlob(v)
	if err != nil {
		return err
	}
	if err := b.Splice(uint64(off), uint64(del), ins); err != nil {
		return err
	}
	_, err = db.Put(ctx, page, b)
	return err
}

// wikiEditor reads any page and edits only its own: page g belongs to
// editor g mod editors. 60% head reads, 30% edits, 10% history reads.
type wikiEditor struct {
	id, editors int
	cfg         wikiConfig
	pages       []*wikiPage // shared oracle
	content     [][]byte    // current text of own pages, by slot
	st          *tracedStore
	rng         *rand.Rand
	trace       *workload.WikiTrace
}

func (c *wikiEditor) store() *tracedStore { return c.st }

func (c *wikiEditor) step(ctx context.Context, st *clientStats) {
	switch r := c.rng.Intn(100); {
	case r < 60:
		c.read(ctx, st, classRead, c.rng.Intn(len(c.pages)), 0)
	case r < 90:
		c.edit(ctx, st)
	default:
		c.read(ctx, st, classScan, c.rng.Intn(len(c.pages)), 1+c.rng.Intn(c.cfg.maxBack))
	}
}

// warm reads every page once, filling the editor's chunk cache.
func (c *wikiEditor) warm(ctx context.Context, st *clientStats) {
	for g := range c.pages {
		c.read(ctx, st, classRead, g, 0)
	}
}

// read fetches page g's head (back 0) or the version back versions
// behind it, materializes it and checks it against the oracle.
func (c *wikiEditor) read(ctx context.Context, st *clientStats, class opClass, g, back int) {
	p := c.pages[g]
	t0 := time.Now()
	sp := c.st.tr.begin(opSpan(class))
	var o *forkbase.FObject
	var err error
	if back == 0 {
		o, err = c.st.Get(ctx, p.name)
	} else {
		var objs []*forkbase.FObject
		objs, err = c.st.Track(ctx, p.name, back, back)
		if err == nil && len(objs) != 1 {
			err = fmt.Errorf("track %d back returned %d versions", back, len(objs))
		}
		if err == nil {
			o = objs[0]
		}
	}
	var data []byte
	if err == nil {
		data, err = c.blobBytes(ctx, p.name, o)
	}
	c.st.tr.end(sp)
	d := time.Since(t0)
	if err != nil {
		st.fail(class, "read %s %d back: %v", p.name, back, err)
		return
	}
	st.readBytes += int64(len(data))
	if !p.check(sha256.Sum256(data), back, g%c.editors == c.id) {
		st.fail(class, "read %s %d back: content matches no version written", p.name, back)
		return
	}
	st.done(class, d)
}

func (c *wikiEditor) blobBytes(ctx context.Context, page string, o *forkbase.FObject) ([]byte, error) {
	v, err := c.st.Value(ctx, page, o)
	if err != nil {
		return nil, err
	}
	b, err := forkbase.AsBlob(v)
	if err != nil {
		return nil, err
	}
	sp := c.st.tr.begin(spBlobBytes)
	data, err := b.Bytes()
	c.st.tr.end(sp)
	return data, err
}

// edit splices a WikiTrace edit into one of the editor's own pages and
// puts the new version.
func (c *wikiEditor) edit(ctx context.Context, st *clientStats) {
	e := c.trace.Next(c.cfg.pageBytes) // pages never shrink, so any offset fits
	slot, err := strconv.Atoi(e.Page[len("page-"):])
	if err != nil {
		st.fail(classWrite, "edit: trace page %q: %v", e.Page, err)
		return
	}
	p := c.pages[slot*c.editors+c.id]
	del := 0
	if e.InPlace {
		del = len(e.Content)
	}
	next := splice(c.content[slot], e.Offset, del, e.Content)
	p.hist = append(p.hist, sha256.Sum256(next))

	t0 := time.Now()
	sp := c.st.tr.begin(spOpWrite)
	var b *forkbase.Blob
	o, err := c.st.Get(ctx, p.name)
	if err == nil {
		var v forkbase.Value
		if v, err = c.st.Value(ctx, p.name, o); err == nil {
			b, err = forkbase.AsBlob(v)
		}
	}
	if err == nil {
		ssp := c.st.tr.begin(spSplice)
		err = b.Splice(uint64(e.Offset), uint64(del), e.Content)
		c.st.tr.end(ssp)
	}
	if err == nil {
		_, err = c.st.Put(ctx, p.name, b)
	}
	c.st.tr.end(sp)
	d := time.Since(t0)
	if err != nil {
		st.fail(classWrite, "edit %s: %v", p.name, err)
		return
	}
	if b.Len() != uint64(len(next)) {
		st.fail(classWrite, "edit %s: blob is %d bytes after the splice, want %d", p.name, b.Len(), len(next))
		return
	}
	c.content[slot] = next
	st.userBytes += int64(len(next))
	st.done(classWrite, d)
}
