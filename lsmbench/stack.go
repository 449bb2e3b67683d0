package main

import (
	"fmt"
	"runtime"
	"time"

	"pcplsm/internal/compress"
	"pcplsm/internal/device"
	"pcplsm/internal/lsm"
	"pcplsm/internal/storage"
)

// stack is one store's storage: the in-memory bytes, the optional
// simulated device that charges time for them, and the interposer the
// store is opened on.
type stack struct {
	base storage.FS     // holds the bytes
	fs   storage.FS     // what lsm.Open sees: the interposer
	dev  *device.Device // nil on MemFS
	tr   *tracer
}

func newStack(backend string, tr *tracer) (*stack, error) {
	s := &stack{base: storage.NewMemFS(), tr: tr}
	inner := s.base
	switch backend {
	case "mem":
	case "hdd", "ssd":
		m, err := device.ByName(backend)
		if err != nil {
			return nil, err
		}
		s.dev = device.New(m, 1)
		inner = storage.NewSimFS(s.base, []*device.Device{s.dev}, storage.PlaceStripe, 0)
	default:
		return nil, fmt.Errorf("unknown backend %q", backend)
	}
	s.fs = &tracedFS{inner: inner, tr: tr}
	return s, nil
}

// options returns the engine defaults with only the storage backend and
// the scaled-down tree geometry changed, plus the block-cache size where a
// workload sets one.
func (s *stack) options(p params) lsm.Options {
	o := lsm.Options{
		FS:                  s.fs,
		MemtableSize:        128 << 10,
		TableSize:           128 << 10,
		BaseLevelSize:       512 << 10,
		LevelMultiplier:     4,
		L0CompactionTrigger: 4,
		L0StallTrigger:      8,
		BlockCacheBytes:     p.CacheBytes,
	}
	if s.tr.on {
		o.Codec = &tracedCodec{inner: compress.MustByKind(compress.Snappy), tr: s.tr}
	}
	return o
}

// liveBytes sums the sizes of every file in the store.
func (s *stack) liveBytes() (int64, error) {
	names, err := s.base.List()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range names {
		sz, err := s.base.Size(n)
		if err != nil {
			return 0, err
		}
		total += sz
	}
	return total, nil
}

// sample is a snapshot of every cumulative counter the benchmark reads: the
// store's Stats, the interposers' counters and the device's Stats. The
// difference of two samples is the activity between them.
type sample map[string]float64

func (s *stack) sample(db *lsm.DB) sample {
	m := sample{}
	st := db.Stats()
	for k, v := range map[string]int64{
		"db.puts":            st.Puts,
		"db.deletes":         st.Deletes,
		"db.gets":            st.Gets,
		"db.filter_skips":    st.FilterSkips,
		"db.cache_hits":      st.BlockCacheHits,
		"db.cache_misses":    st.BlockCacheMisses,
		"db.cache_evictions": st.BlockCacheEvictions,
		"db.cache_prewarmed": st.BlockCachePrewarmed,
		"db.flushes":         st.Flushes,
		"db.compactions":     st.Compactions,
		"db.trivial_moves":   st.TrivialMoves,
		"db.comp_in":         st.CompactionInputBytes,
		"db.comp_out":        st.CompactionOutputBytes,
		"db.stalls":          st.StallCount,
		"db.write_groups":    st.WriteGroups,
		"db.grouped_writes":  st.GroupedWrites,
		"db.policy_switches": st.PolicySwitches,
		"db.governor_grows":  st.GovernorGrows,
		"db.governor_denied": st.GovernorDenials,
	} {
		m[k] = float64(v)
	}
	for k, d := range map[string]time.Duration{
		"db.flush_s":      st.FlushWall,
		"db.comp_wall_s":  st.CompactionWall,
		"db.stall_s":      st.StallTime,
		"db.s1_s":         st.CompactionSteps.ReadTime(),
		"db.s2_6_s":       st.CompactionSteps.ComputeTime(),
		"db.s7_s":         st.CompactionSteps.WriteTime(),
		"db.busy_read_s":  st.CompactionStageBusy.Read,
		"db.busy_comp_s":  st.CompactionStageBusy.Compute,
		"db.busy_write_s": st.CompactionStageBusy.Write,
		"db.idle_read_s":  st.CompactionStageIdle.Read,
		"db.idle_comp_s":  st.CompactionStageIdle.Compute,
		"db.idle_write_s": st.CompactionStageIdle.Write,
	} {
		m[k] = d.Seconds()
	}
	s.sampleLayers(m)
	return m
}

// sampleLayers adds the counters that outlive one DB (interposers and
// device) to m.
func (s *stack) sampleLayers(m sample) {
	tr := s.tr
	for k := fileKind(0); k < nKinds; k++ {
		for op := fsOp(0); op < nFSOps; op++ {
			t := tr.fs[k][op].load()
			p := "fs." + kindNames[k] + "." + fsOpNames[op]
			m[p+".calls"] = float64(t.calls)
			m[p+".bytes"] = float64(t.bytes)
			m[p+".s"] = float64(t.ns) / 1e9
		}
	}
	for op := dbOp(0); op < nDBOps; op++ {
		t := tr.db[op].load()
		p := "call." + dbOpNames[op]
		m[p+".calls"] = float64(t.calls)
		m[p+".s"] = float64(t.ns) / 1e9
		m[p+".own_s"] = float64(tr.dbOwn[op].Load()) / 1e9
	}
	c := tr.codec.load()
	m["codec.calls"] = float64(c.calls)
	m["codec.in"] = float64(c.bytes)
	m["codec.out"] = float64(tr.codecOut.Load())
	m["codec.s"] = float64(c.ns) / 1e9
	if s.dev != nil {
		ds := s.dev.Stats()
		m["dev.busy_read_s"] = ds.BusyRead.Seconds()
		m["dev.busy_write_s"] = ds.BusyWrite.Seconds()
		m["dev.queue_s"] = ds.QueueWait.Seconds()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["go.alloc_bytes"] = float64(ms.TotalAlloc)
}

// window accumulates the activity of one or more measured phases.
type window struct {
	sum   sample
	begin sample
}

func (w *window) start(s sample) { w.begin = s }

func (w *window) stop(s sample) {
	if w.sum == nil {
		w.sum = sample{}
	}
	for k, v := range s {
		w.sum[k] += v - w.begin[k]
	}
	w.begin = nil
}

func (w *window) get(k string) float64 { return w.sum[k] }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
