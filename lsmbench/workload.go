package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pcplsm/internal/lsm"
)

// params is the make-up of one workload at one scale. Every field is
// printed with each run.
type params struct {
	Name    string `json:"name"`
	Backend string `json:"backend"` // mem, hdd or ssd
	// Entries is the number of writes per round (fills, overwrite) or the
	// number of keys preloaded during set-up (readwhilewriting).
	Entries  int `json:"entries"`
	KeySpace int `json:"key_space"`
	// Preload is the number of keys overwrite loads during set-up.
	Preload  int `json:"preload_keys,omitempty"`
	KeyBytes int `json:"key_bytes"`
	ValBytes int `json:"value_bytes"`
	// CacheBytes is the block-cache size; 0 keeps the engine default.
	CacheBytes int64 `json:"block_cache_bytes"`
	// The readwhilewriting phase: one paced writer beside one closed-loop
	// reader for PhaseSeconds.
	PhaseSeconds float64 `json:"phase_seconds,omitempty"`
	WriteRate    int     `json:"writer_ops_per_s,omitempty"`
	DeleteShare  float64 `json:"writer_delete_share,omitempty"`
	ScanShare    float64 `json:"reader_scan_share,omitempty"`
	ScanLen      int     `json:"reader_scan_len,omitempty"`
	ZipfS        float64 `json:"reader_zipf_s,omitempty"`
}

func workloadParams(name string, short bool) (params, error) {
	p := params{Name: name, KeyBytes: keyLen, ValBytes: valueLen}
	switch name {
	case "fillrandom-mem":
		p.Backend, p.Entries = "mem", 100_000
		if short {
			p.Entries = 5_000
		}
		p.KeySpace = 4 * p.Entries
	case "fillrandom-hdd":
		p.Backend, p.Entries = "hdd", 50_000
		if short {
			p.Entries = 3_000
		}
		p.KeySpace = 4 * p.Entries
	case "overwrite-hdd":
		p.Backend, p.Entries, p.Preload = "hdd", 50_000, 40_000
		if short {
			p.Entries, p.Preload = 3_000, 2_000
		}
		p.KeySpace, p.DeleteShare = p.Preload, 0.1
	case "readwhilewriting-ssd":
		p.Backend, p.Entries = "ssd", 80_000
		p.CacheBytes = 1 << 20
		p.PhaseSeconds, p.WriteRate = 3, 8000
		p.DeleteShare, p.ScanShare, p.ScanLen, p.ZipfS = 0.1, 0.02, 16, 1.3
		if short {
			p.Entries, p.PhaseSeconds = 5_000, 1
		}
		p.KeySpace = p.Entries
	default:
		return p, fmt.Errorf("unknown workload %q (want fillrandom-mem, fillrandom-hdd, overwrite-hdd or readwhilewriting-ssd)", name)
	}
	return p, nil
}

// roundResult is what one round measured.
type roundResult struct {
	traced bool

	setupS    float64
	putOpsS   float64
	compMiBS  float64
	writeAmp  float64
	spaceAmp  float64
	getOpsS   float64
	scanKeysS float64
	allocOp   float64

	putLat []int64 // ns
	getLat []int64 // ns
	lateNs []int64 // writer lateness against its schedule (readwhilewriting)

	layers window // the phases the per-layer metrics cover

}

// counts tracks attempted and failed operations from several goroutines.
type counts struct {
	attempted, failed, wrong atomic.Int64
}

// op records one operation: err is the store's error, ok whether its
// result matched the model.
func (c *counts) op(err error, ok bool) {
	c.attempted.Add(1)
	switch {
	case err != nil:
		c.failed.Add(1)
	case !ok:
		c.failed.Add(1)
		c.wrong.Add(1)
	}
}

var errLog = struct {
	sync.Mutex
	n int
}{}

// mismatch reports a wrong result on stderr (the first few only).
func mismatch(format string, args ...any) {
	errLog.Lock()
	defer errLog.Unlock()
	if errLog.n < 10 {
		fmt.Fprintf(os.Stderr, "lsmbench: mismatch: "+format+"\n", args...)
	}
	errLog.n++
}

// runner holds what every round of a run shares.
type runner struct {
	p    params
	seed int64
	tr   *tracer
	c    *counts
	opts lsm.Options // the options of the last store opened, for the report
}

func (r *runner) round(i int, traced bool) (*roundResult, error) {
	r.tr.on = traced
	rs := r.seed*1_000_003 + int64(i)
	if r.p.Name == "readwhilewriting-ssd" {
		return r.readWhileWriting(rs, traced)
	}
	return r.fill(rs, traced)
}

// setupRepeats is how many stores a fill round opens to time its set-up.
const setupRepeats = 9

// fill: one closed-loop writer Puts uniform random keys (overwrite: into a
// store preloaded during set-up, with a share of Deletes), then waits for
// background work to drain. The store is then closed and reopened, and the
// read-back (a Get of every written key and up to a quarter as many
// never-written ones, then a full scan) is both the model check and the
// timed read phase.
func (r *runner) fill(seed int64, traced bool) (*roundResult, error) {
	p := r.p
	rng := rand.New(rand.NewSource(seed))
	n := p.Entries
	verBase := uint64(p.Preload) // preload writes take versions 1..Preload
	idx := make([]uint64, n)
	del := make([]bool, n)
	keys := make([]byte, n*keyLen)
	vals := make([]byte, n*valueLen)
	for i := range idx {
		k := uint64(rng.Intn(p.KeySpace))
		idx[i] = k
		del[i] = rng.Float64() < p.DeleteShare
		putKey(keys[i*keyLen:], k)
		fillValue(vals[i*valueLen:], keys[i*keyLen:(i+1)*keyLen], k, verBase+uint64(i+1))
	}
	res := &roundResult{traced: traced, putLat: make([]int64, n)}
	m := newModel(p.KeySpace)

	st, err := newStack(p.Backend, r.tr)
	if err != nil {
		return nil, err
	}
	r.opts = st.options(p)
	if p.Preload > 0 {
		t0 := time.Now()
		db, err := lsm.Open(r.opts)
		if err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		defer db.Close()
		if err := r.preload(db, m, rng.Perm(p.Preload)); err != nil {
			return nil, err
		}
		res.setupS = time.Since(t0).Seconds()
		return r.fillFrom(db, st, m, res, rng, idx, del, keys, vals)
	}
	// Set-up is opening an empty store, which takes well under a
	// millisecond, so it is repeated on fresh stores and the median kept.
	opens := make([]float64, 0, setupRepeats)
	for i := 1; i < setupRepeats; i++ {
		s, err := newStack(p.Backend, r.tr)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		db, err := lsm.Open(s.options(p))
		if err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		opens = append(opens, time.Since(t0).Seconds())
		if err := db.Close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
	}
	t0 := time.Now()
	db, err := lsm.Open(r.opts)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	defer db.Close()
	res.setupS = median(append(opens, time.Since(t0).Seconds()))
	return r.fillFrom(db, st, m, res, rng, idx, del, keys, vals)
}

// preload Puts every key of order once (versions 1..len(order)) and drains.
func (r *runner) preload(db *lsm.DB, m *model, order []int) error {
	key := make([]byte, keyLen)
	val := make([]byte, valueLen)
	for i, k := range order {
		ver := uint64(i + 1)
		putKey(key, uint64(k))
		fillValue(val, key, uint64(k), ver)
		m.begin(uint64(k), ver, false)
		err := db.Put(key, val)
		m.finish(uint64(k), ver, false, err)
		r.c.op(err, true)
	}
	if err := db.WaitIdle(); err != nil {
		return fmt.Errorf("preload drain: %w", err)
	}
	return nil
}

// fillFrom runs a fill round's measured phases on the open store db: the
// writes of idx/del, the drain, the reopen and the read-back.
func (r *runner) fillFrom(db *lsm.DB, st *stack, m *model, res *roundResult, rng *rand.Rand, idx []uint64, del []bool, keys, vals []byte) (*roundResult, error) {
	p := r.p
	n := len(idx)
	verBase := uint64(p.Preload)
	w := r.tr.register(0)
	defer r.tr.release(w)
	var wr window
	before := st.sample(db)
	wr.start(before)
	res.layers.start(before)
	start := time.Now()
	var puts, dels float64
	for i := 0; i < n; i++ {
		k, ver, key := idx[i], verBase+uint64(i+1), keys[i*keyLen:(i+1)*keyLen]
		m.begin(k, ver, del[i])
		a := time.Now()
		r.tr.begin(w)
		var err error
		op := opPut
		if del[i] {
			op = opDelete
			err = db.Delete(key)
			dels++
		} else {
			err = db.Put(key, vals[i*valueLen:(i+1)*valueLen])
			puts++
		}
		b := time.Now()
		r.tr.end(w, op, a, b)
		res.putLat[i] = int64(b.Sub(a))
		m.finish(k, ver, del[i], err)
		r.c.op(err, true)
	}
	if err := db.WaitIdle(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	elapsed := time.Since(start).Seconds()
	after := st.sample(db)
	wr.stop(after)
	res.layers.stop(after)
	res.putOpsS = float64(n) / elapsed
	r.writeMetrics(res, &wr, puts*(keyLen+valueLen)+dels*keyLen, float64(n))

	live := liveKeys(m, p.KeySpace)
	if err := r.space(res, st, live); err != nil {
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	// Reopen on the same FS and read everything back.
	db, err := lsm.Open(r.opts)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	var order []uint64
	for k := range m.acked {
		if m.acked[k].Load() != 0 {
			order = append(order, uint64(k))
		}
	}
	for extra := min(len(order)/4, p.KeySpace-len(order)); extra > 0; {
		if k := uint64(rng.Intn(p.KeySpace)); m.acked[k].Load() == 0 {
			order = append(order, k)
			extra--
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	res.layers.start(st.sample(db))
	res.getLat = make([]int64, 0, len(order))
	t1 := time.Now()
	key := make([]byte, keyLen)
	for _, k := range order {
		putKey(key, k)
		a := time.Now()
		r.tr.begin(w)
		v, err := db.Get(key)
		b := time.Now()
		r.tr.end(w, opGet, a, b)
		res.getLat = append(res.getLat, int64(b.Sub(a)))
		r.checkQuiescentGet(m, k, key, v, err)
	}
	res.getOpsS = float64(len(order)) / time.Since(t1).Seconds()
	keysSeen, dur, err := r.scanAll(db, w, m, p.KeySpace, live)
	if err != nil {
		return nil, err
	}
	res.scanKeysS = float64(keysSeen) / dur
	res.layers.stop(st.sample(db))
	return res, nil
}

// readWhileWriting: set-up preloads every key and drains. Then one
// closed-loop reader (zipfian Gets and short seek-and-next scans) runs
// beside one open-loop writer that overwrites and deletes at a fixed rate.
// A full-store scan ends the phase; the store is drained, closed, reopened
// and checked key by key.
func (r *runner) readWhileWriting(seed int64, traced bool) (*roundResult, error) {
	p := r.p
	rng := rand.New(rand.NewSource(seed))
	n := p.Entries
	m := newModel(p.KeySpace)
	res := &roundResult{traced: traced}

	order := rng.Perm(n)
	nw := int(float64(p.WriteRate) * p.PhaseSeconds)
	wKeys := make([]uint64, nw)
	wDel := make([]bool, nw)
	for i := range wKeys {
		wKeys[i] = uint64(rng.Intn(p.KeySpace))
		wDel[i] = rng.Float64() < p.DeleteShare
	}
	readerSeed := rng.Int63()

	st, err := newStack(p.Backend, r.tr)
	if err != nil {
		return nil, err
	}
	r.opts = st.options(p)

	// Set-up: open, preload, drain. Preload writes are checked later by
	// the read-back like every other acknowledged write.
	t0 := time.Now()
	db, err := lsm.Open(r.opts)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	defer db.Close()
	if err := r.preload(db, m, order); err != nil {
		return nil, err
	}
	res.setupS = time.Since(t0).Seconds()

	var wr window
	before := st.sample(db)
	wr.start(before)
	res.layers.start(before)
	start := time.Now()
	var stop atomic.Bool
	var wg sync.WaitGroup
	var gets int64
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		r.pacedWriter(db, m, res, start, wKeys, wDel, uint64(n))
	}()
	go func() {
		defer wg.Done()
		gets = r.reader(db, m, res, readerSeed, &stop)
	}()
	wg.Wait()
	phase := time.Since(start).Seconds()
	res.getOpsS = float64(gets) / phase
	res.putOpsS = float64(nw) / phase

	// The final full-store scan: the writer has stopped, so it must equal
	// the model exactly.
	w := r.tr.register(0)
	defer r.tr.release(w)
	live := liveKeys(m, p.KeySpace)
	keysSeen, dur, err := r.scanAll(db, w, m, p.KeySpace, live)
	if err != nil {
		return nil, err
	}
	res.scanKeysS = float64(keysSeen) / dur
	if err := db.WaitIdle(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	after := st.sample(db)
	wr.stop(after)
	res.layers.stop(after)
	userBytes := wr.get("db.puts")*(keyLen+valueLen) + wr.get("db.deletes")*keyLen
	r.writeMetrics(res, &wr, userBytes, float64(nw)+float64(gets)+wr.get("call.seek.calls"))

	if err := r.space(res, st, live); err != nil {
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	db, err = lsm.Open(r.opts)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	key := make([]byte, keyLen)
	for k := 0; k < p.KeySpace; k++ {
		putKey(key, uint64(k))
		v, err := db.Get(key)
		r.checkQuiescentGet(m, uint64(k), key, v, err)
	}
	if _, _, err := r.scanAll(db, w, m, p.KeySpace, live); err != nil {
		return nil, err
	}
	return res, nil
}

// pacedWriter sends write i when it is due, start + i/rate, sleeping
// while it is ahead of schedule. Sleeps end late (the runtime's timers are
// coarse when the process idles), so the writer's own lateness is recorded
// apart, and a write's latency is computed as if every write had been sent
// exactly when due: a single-server queue fed on the schedule with the
// measured service times (the Lindley recursion), so a slow write still
// delays every write due behind it, and a late wake-up delays none.
func (r *runner) pacedWriter(db *lsm.DB, m *model, res *roundResult, start time.Time, keys []uint64, del []bool, verBase uint64) {
	w := r.tr.register(1)
	defer r.tr.release(w)
	interval := time.Second / time.Duration(r.p.WriteRate)
	res.putLat = make([]int64, len(keys))
	res.lateNs = make([]int64, 0, len(keys))
	key := make([]byte, keyLen)
	val := make([]byte, valueLen)
	var queued time.Duration // how long write i would wait behind i-1
	var prevService time.Duration
	for i, k := range keys {
		due := start.Add(time.Duration(i) * interval)
		ver := verBase + uint64(i) + 1
		putKey(key, k)
		if !del[i] {
			fillValue(val, key, k, ver)
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			res.lateNs = append(res.lateNs, int64(time.Since(due)))
		}
		m.begin(k, ver, del[i])
		a := time.Now()
		r.tr.begin(w)
		var err error
		op := opPut
		if del[i] {
			op = opDelete
			err = db.Delete(key)
		} else {
			err = db.Put(key, val)
		}
		b := time.Now()
		r.tr.end(w, op, a, b)
		m.finish(k, ver, del[i], err)
		r.c.op(err, true)
		service := b.Sub(a)
		if i > 0 {
			queued = max(0, queued+prevService-interval)
		}
		res.putLat[i] = int64(queued + service)
		prevService = service
	}
}

// reader issues zipfian point Gets and short seek-and-next scans until
// stop is set, checking every answer against the model on the spot. It
// returns the number of Gets.
func (r *runner) reader(db *lsm.DB, m *model, res *roundResult, seed int64, stop *atomic.Bool) int64 {
	p := r.p
	w := r.tr.register(2)
	defer r.tr.release(w)
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, p.ZipfS, 1, uint64(p.KeySpace-1))
	// Scramble ranks so the hot keys spread over the key space instead of
	// sharing a few blocks at its start.
	const stride = 7919
	key := make([]byte, keyLen)
	lat := make([]int64, 0, 1<<20)
	var gets int64
	for !stop.Load() {
		if rng.Float64() < p.ScanShare {
			r.shortScan(db, w, m, uint64(rng.Intn(p.KeySpace)))
			continue
		}
		k := zipf.Uint64() * stride % uint64(p.KeySpace)
		putKey(key, k)
		before := m.acked[k].Load()
		a := time.Now()
		r.tr.begin(w)
		v, err := db.Get(key)
		b := time.Now()
		r.tr.end(w, opGet, a, b)
		lat = append(lat, int64(b.Sub(a)))
		gets++
		found := err == nil
		if errors.Is(err, lsm.ErrNotFound) {
			err = nil
		}
		ok := true
		if err == nil {
			var ver uint64
			if found {
				ver, ok = checkValue(key, v)
			}
			if ok && !m.readOK(k, before, found, ver) {
				ok = false
			}
			if !ok {
				mismatch("get %s: found=%v version=%d, model before=%#x", key, found, ver, before)
			}
		}
		r.c.op(err, ok)
	}
	res.getLat = lat
	return gets
}

// shortScan seeks to k and reads up to ScanLen keys, checking order and
// that every value is one the writer wrote for its key.
func (r *runner) shortScan(db *lsm.DB, w *worker, m *model, k uint64) {
	key := make([]byte, keyLen)
	putKey(key, k)
	// Model bounds are loaded before the iterator's snapshot is taken.
	lo := make([]uint64, r.p.ScanLen)
	for i := range lo {
		if kk := k + uint64(i); kk < uint64(r.p.KeySpace) {
			lo[i] = m.acked[kk].Load()
		}
	}
	it, err := db.NewIterator()
	if err != nil {
		r.c.op(err, true)
		return
	}
	defer it.Close()
	ok := true
	var prev []byte
	a := time.Now()
	r.tr.begin(w)
	valid := it.Seek(key)
	r.tr.end(w, opSeek, a, time.Now())
	for i := 0; valid && i < r.p.ScanLen; i++ {
		kk, kok := parseKey(it.Key())
		ver, vok := checkValue(it.Key(), it.Value())
		if !kok || !vok || bytes.Compare(it.Key(), key) < 0 || (prev != nil && bytes.Compare(prev, it.Key()) >= 0) {
			mismatch("scan from %s: bad entry %q", key, it.Key())
			ok = false
			break
		}
		// A scan may see any version at least as new as the one acked
		// before the iterator was created — for keys the writer has not
		// touched since, that is exactly the acked one.
		if kk-k < uint64(len(lo)) && !m.readOK(kk, lo[kk-k], true, ver) {
			mismatch("scan from %s: %s version %d, model before=%#x", key, it.Key(), ver, lo[kk-k])
			ok = false
			break
		}
		prev = append(prev[:0], it.Key()...)
		a := time.Now()
		r.tr.begin(w)
		valid = it.Next()
		r.tr.end(w, opNext, a, time.Now())
	}
	if err := it.Err(); err != nil {
		r.c.op(err, true)
		return
	}
	r.c.op(nil, ok)
}

// checkQuiescentGet checks a Get made while no write is in flight: an
// acknowledged key must return its last value and a deleted or unwritten
// key ErrNotFound.
func (r *runner) checkQuiescentGet(m *model, k uint64, key, v []byte, err error) {
	found, want, uncertain := m.expect(k)
	if err != nil && !errors.Is(err, lsm.ErrNotFound) {
		r.c.op(err, true)
		return
	}
	ok := true
	switch {
	case uncertain:
	case err != nil:
		ok = !found
	default:
		ver, vok := checkValue(key, v)
		ok = vok && found && ver == want
	}
	if !ok {
		mismatch("get %s after drain: err=%v, model found=%v version=%d", key, err, found, want)
	}
	r.c.op(nil, ok)
}

// scanAll scans the whole store, which must equal the model: strictly
// ordered, every live key present with its last value, nothing else. It
// returns the keys seen and the scan's duration in seconds.
func (r *runner) scanAll(db *lsm.DB, w *worker, m *model, keySpace int, live int64) (int64, float64, error) {
	it, err := db.NewIterator()
	if err != nil {
		return 0, 0, fmt.Errorf("scan: %w", err)
	}
	defer it.Close()
	ok := true
	var seen int64
	next := uint64(0) // every model key below next has been accounted for
	a := time.Now()
	r.tr.begin(w)
	valid := it.First()
	r.tr.end(w, opFirst, a, time.Now())
	for valid {
		k, kok := parseKey(it.Key())
		if !kok || k < next || k >= uint64(keySpace) {
			mismatch("full scan: out of order or foreign key %q", it.Key())
			ok = false
			break
		}
		for ; next < k; next++ {
			if found, _, unc := m.expect(next); found && !unc {
				mismatch("full scan: key %d missing", next)
				ok = false
			}
		}
		next = k + 1
		found, want, unc := m.expect(k)
		ver, vok := checkValue(it.Key(), it.Value())
		if !unc && (!found || !vok || ver != want) {
			mismatch("full scan: key %d version %d, model found=%v version=%d", k, ver, found, want)
			ok = false
		}
		seen++
		b := time.Now()
		r.tr.begin(w)
		valid = it.Next()
		r.tr.end(w, opNext, b, time.Now())
	}
	dur := time.Since(a).Seconds()
	if err := it.Err(); err != nil {
		r.c.op(err, true)
		return seen, dur, nil
	}
	for ; ok && next < uint64(keySpace); next++ {
		if found, _, unc := m.expect(next); found && !unc {
			mismatch("full scan: key %d missing", next)
			ok = false
		}
	}
	if ok && seen != live {
		mismatch("full scan: %d keys, model has %d", seen, live)
		ok = false
	}
	r.c.op(nil, ok)
	return seen, dur, nil
}

// liveKeys counts the keys the model says are present.
func liveKeys(m *model, keySpace int) int64 {
	var n int64
	for k := 0; k < keySpace; k++ {
		if found, _, _ := m.expect(uint64(k)); found {
			n++
		}
	}
	return n
}

// writeMetrics fills the write-side end-to-end metrics from the window of
// the write phase.
func (r *runner) writeMetrics(res *roundResult, w *window, userBytes, userOps float64) {
	res.compMiBS = ratio(w.get("db.comp_in"), w.get("db.comp_wall_s")) / (1 << 20)
	var written float64
	for k := fileKind(0); k < nKinds; k++ {
		written += w.get("fs." + kindNames[k] + ".write.bytes")
	}
	res.writeAmp = ratio(written, userBytes)
	res.allocOp = ratio(w.get("go.alloc_bytes"), userOps)
}

// space sets space_amp: the store's file bytes after the drain over the
// logical bytes of the live keys.
func (r *runner) space(res *roundResult, st *stack, live int64) error {
	b, err := st.liveBytes()
	if err != nil {
		return fmt.Errorf("sizing store: %w", err)
	}
	res.spaceAmp = ratio(float64(b), float64(live)*(keyLen+valueLen))
	return nil
}
