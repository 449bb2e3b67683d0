package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"

	"pcplsm/internal/lsm"
	"pcplsm/internal/storage"
)

var workloads = []string{"fillrandom-mem", "fillrandom-hdd", "overwrite-hdd", "readwhilewriting-ssd"}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := workloadParams(w.Name, true); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", w.Name, err)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestShortScale runs every workload at short scale, untraced and traced,
// with all of its model checks, and checks the result line against the
// metrics BENCHMARK.json declares. readwhilewriting-ssd is not in the
// standing set (see README.md) but stays runnable, so it is checked too.
func TestShortScale(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := run(w, 7, 0, traced, true, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			res := out.result
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: %s unit %q, declared %q", w, traced, name, m.Unit, unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
				}
			}
		}
	}
}

func TestValuesCertifyThemselves(t *testing.T) {
	key, other := make([]byte, keyLen), make([]byte, keyLen)
	putKey(key, 42)
	putKey(other, 43)
	v := make([]byte, valueLen)
	fillValue(v, key, 42, 9)
	if ver, ok := checkValue(key, v); !ok || ver != 9 {
		t.Fatalf("checkValue = %d, %v; want 9, true", ver, ok)
	}
	if _, ok := checkValue(other, v); ok {
		t.Error("value accepted under another key")
	}
	v[20] ^= 1
	if _, ok := checkValue(key, v); ok {
		t.Error("corrupted value accepted")
	}
	if k, ok := parseKey(key); !ok || k != 42 {
		t.Errorf("parseKey = %d, %v", k, ok)
	}
}

func TestModelBoundsConcurrentReads(t *testing.T) {
	m := newModel(4)
	m.begin(1, 5, false)
	m.finish(1, 5, false, nil)
	before := m.acked[1].Load()
	m.begin(1, 6, false) // in flight while a read runs
	for _, c := range []struct {
		found bool
		ver   uint64
		ok    bool
	}{{true, 5, true}, {true, 6, true}, {true, 4, false}, {true, 7, false}, {false, 0, false}} {
		if got := m.readOK(1, before, c.found, c.ver); got != c.ok {
			t.Errorf("readOK(found=%v, ver=%d) = %v, want %v", c.found, c.ver, got, c.ok)
		}
	}
	m.begin(1, 8, true) // a delete issued during the read makes a miss legal
	if !m.readOK(1, before, false, 0) {
		t.Error("miss rejected although a delete was in flight")
	}
	if !m.readOK(2, m.acked[2].Load(), false, 0) {
		t.Error("miss of a never-written key rejected")
	}
}

// TestChecksCatchWrongAnswers gives the read-back checks a model that
// disagrees with the store and expects every disagreement counted.
func TestChecksCatchWrongAnswers(t *testing.T) {
	db, err := lsm.Open(lsm.Options{FS: storage.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := &runner{p: params{KeySpace: 4}, tr: newTracer(false), c: &counts{}}
	m := newModel(4)
	key, val := make([]byte, keyLen), make([]byte, valueLen)
	for k := uint64(0); k < 3; k++ {
		putKey(key, k)
		fillValue(val, key, k, k+1)
		if err := db.Put(key, val); err != nil {
			t.Fatal(err)
		}
		m.begin(k, k+1, false)
		m.finish(k, k+1, false, nil)
	}
	m.finish(0, 9, false, nil) // the model expects a newer version of key 0
	m.finish(1, 2, true, nil)  // and key 1 deleted
	m.finish(3, 4, false, nil) // and key 3, never written, present
	for k := uint64(0); k < 4; k++ {
		putKey(key, k)
		v, err := db.Get(key)
		if err != nil && !errors.Is(err, lsm.ErrNotFound) {
			t.Fatal(err)
		}
		r.checkQuiescentGet(m, k, key, v, err)
	}
	if got := r.c.wrong.Load(); got != 3 {
		t.Errorf("Get checks flagged %d wrong answers, want 3", got)
	}
	w := r.tr.register(0)
	defer r.tr.release(w)
	if _, _, err := r.scanAll(db, w, m, 4, liveKeys(m, 4)); err != nil {
		t.Fatal(err)
	}
	if got := r.c.wrong.Load(); got != 4 {
		t.Errorf("the full scan was not flagged: %d wrong answers, want 4", got)
	}
}
