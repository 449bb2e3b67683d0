package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The tracer records one span per call the benchmark can see from outside
// the engine: every DB call the benchmark makes, every storage.FS and
// storage.File call (keyed by file kind), and every Codec.Compress call.
// Counters are always kept; spans and timings only in a traced run.
//
// A storage or codec call made on a benchmark goroutine while that
// goroutine is inside a DB call is a child of that call, so the call's
// self time is its duration minus its children's. A call that cannot be
// tied to a foreground call (flushes, compactions, the scheduler) counts
// as background.

type dbOp uint8

const (
	opPut dbOp = iota
	opDelete
	opGet
	opSeek
	opNext
	opFirst
	nDBOps
)

var dbOpNames = [nDBOps]string{"put", "delete", "get", "seek", "next", "first"}

type fileKind uint8

const (
	kindLog fileKind = iota
	kindTable
	kindManifest
	kindOther
	nKinds
)

var kindNames = [nKinds]string{"log", "sst", "manifest", "other"}

type fsOp uint8

const (
	fsCreate fsOp = iota
	fsOpen
	fsRemove
	fsRename
	fsList
	fsStat
	fsRead
	fsWrite
	fsSync
	fsClose
	nFSOps
)

var fsOpNames = [nFSOps]string{"create", "open", "remove", "rename", "list", "stat", "read", "write", "sync", "close"}

// Span layers in the dump.
const (
	layerDB    = "db"
	layerFS    = "fs"
	layerCodec = "codec"
)

type span struct {
	id, parent uint32 // parent 0: no foreground caller (background work)
	layer      string
	op         string
	kind       string
	start, dur int64 // ns since the tracer's epoch
	bytes      int64
}

// counter is a call count, a byte count and a time total.
type counter struct{ calls, bytes, ns atomic.Int64 }

// tally is a plain snapshot of a counter.
type tally struct{ calls, bytes, ns int64 }

func (c *counter) add(n int, d time.Duration) {
	c.calls.Add(1)
	c.bytes.Add(int64(n))
	if d != 0 {
		c.ns.Add(int64(d))
	}
}

func (c *counter) load() tally {
	return tally{c.calls.Load(), c.bytes.Load(), c.ns.Load()}
}

// maxWorkers bounds the benchmark's own foreground goroutines (a workload
// uses at most two: a reader and a writer).
const maxWorkers = 4

// worker is one foreground goroutine of the benchmark. In a traced round
// it is locked to its own OS thread, so the thread id identifies it: a
// storage or codec call running on that thread is the worker's own. open
// and child are touched only by the worker (directly, or through the
// wrappers it calls into); tid is read by every goroutine that makes a
// storage call.
type worker struct {
	tid   atomic.Int64
	open  uint32 // id of the DB call in progress, 0 if none
	child int64  // ns of child spans under the open call, tracing cost included
}

// tracer owns the counters and, when on, the span buffer.
type tracer struct {
	on    bool
	epoch time.Time

	workers [maxWorkers]worker
	nextID  atomic.Uint32
	inCalls atomic.Int64 // workers inside a DB call

	db       [nDBOps]counter // ns: whole call
	dbOwn    [nDBOps]atomic.Int64
	fs       [nKinds][nFSOps]counter
	codec    counter // bytes: input; see codecOut
	codecOut atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
}

// maxSpans caps the spans kept in memory; later spans still feed the
// counters but are not written out.
const maxSpans = 200_000

func newTracer(on bool) *tracer {
	t := &tracer{on: on, epoch: time.Now()}
	if on {
		t.spans = make([]span, 0, 4096)
	}
	return t
}

// register claims a worker slot for the calling goroutine. In a traced
// round it locks the goroutine to its thread until release.
func (t *tracer) register(slot int) *worker {
	w := &t.workers[slot]
	if t.on {
		runtime.LockOSThread()
		w.tid.Store(int64(syscall.Gettid()))
	}
	return w
}

// release frees the slot; the goroutine that registered must call it.
func (t *tracer) release(w *worker) {
	if w.tid.Swap(0) != 0 {
		runtime.UnlockOSThread()
	}
}

// begin opens a foreground span on w.
func (t *tracer) begin(w *worker) {
	if t.on {
		w.open = t.nextID.Add(1)
		w.child = 0
		t.inCalls.Add(1)
	}
}

// end closes w's open span for a call that ran from t0 to t1.
func (t *tracer) end(w *worker, op dbOp, t0, t1 time.Time) {
	d := t1.Sub(t0)
	t.db[op].add(0, d)
	if !t.on {
		return
	}
	t.inCalls.Add(-1)
	t.dbOwn[op].Add(int64(d) - w.child)
	t.record(span{id: w.open, layer: layerDB, op: dbOpNames[op], start: int64(t0.Sub(t.epoch)), dur: int64(d)})
	w.open = 0
}

// parent returns the foreground worker whose DB call the current goroutine
// is inside, or nil for background work.
func (t *tracer) parent() *worker {
	if t.inCalls.Load() == 0 {
		return nil
	}
	tid := int64(syscall.Gettid())
	for i := range t.workers {
		w := &t.workers[i]
		if w.tid.Load() == tid {
			if w.open == 0 {
				return nil
			}
			return w
		}
	}
	return nil
}

// child records a storage or codec span that ran from t0 for d. The
// parent is charged from t0 to the end of the recording, so the tracing
// cost lands in the child and not in the parent's self time.
func (t *tracer) child(layer, op, kind string, t0 time.Time, d time.Duration, n int) {
	w := t.parent()
	var pid uint32
	if w != nil {
		pid = w.open
	}
	t.record(span{id: t.nextID.Add(1), parent: pid, layer: layer, op: op, kind: kind,
		start: int64(t0.Sub(t.epoch)), dur: int64(d), bytes: int64(n)})
	if w != nil {
		w.child += int64(time.Since(t0))
	}
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// fsCall accounts one storage call of n bytes on a file of kind k. In a
// traced run the caller passes the call's start time; otherwise only the
// counts are kept.
func (t *tracer) fsCall(k fileKind, op fsOp, n int, t0 time.Time) {
	if !t.on {
		t.fs[k][op].add(n, 0)
		return
	}
	d := time.Since(t0)
	t.fs[k][op].add(n, d)
	t.child(layerFS, fsOpNames[op], kindNames[k], t0, d, n)
}

// start returns the start time for a timed call, or the zero time when
// the run is untraced.
func (t *tracer) start() time.Time {
	if t.on {
		return time.Now()
	}
	return time.Time{}
}

// writeSpans writes the kept spans as tab-separated lines to path.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\tparent\tlayer\top\tkind\tstart_ns\tdur_ns\tbytes")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%s\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.layer, s.op, s.kind, s.start, s.dur, s.bytes)
	}
	if t.dropped > 0 {
		fmt.Fprintf(bw, "# %d later spans dropped (cap %d)\n", t.dropped, maxSpans)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
