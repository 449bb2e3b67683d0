// Command lsmbench is the standing benchmark of the pcplsm store. It runs
// one named workload against internal/lsm at its default options (only the
// storage backend and a scaled-down tree geometry differ), checks every
// answer against a model it keeps itself, and prints the end-to-end
// metrics, or with --trace 1 the per-layer metrics, as the last line of
// standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	workload := flag.String("workload", "", "fillrandom-mem, fillrandom-hdd or readwhilewriting-ssd")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "rounds are started until this many seconds have passed")
	trace := flag.Int("trace", 0, "1: alternate untraced and traced rounds and print the per-layer metrics")
	scale := flag.String("scale", "full", "full, or short: every workload in a few seconds with all its checks")
	spans := flag.String("spans-dir", ".bench_out", "where a traced run writes its spans")
	flag.Parse()

	res, err := run(*workload, *seed, *seconds, *trace == 1, *scale == "short", *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmbench:", err)
		os.Exit(1)
	}
	info, err := json.Marshal(res.info)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(info))
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOutput is what run returns: the result line and the information line
// printed before it.
type runOutput struct {
	result result
	info   map[string]any
}

func run(workload string, seed int64, seconds float64, traced, short bool, spansDir string) (*runOutput, error) {
	p, err := workloadParams(workload, short)
	if err != nil {
		return nil, err
	}
	r := &runner{p: p, seed: seed, tr: newTracer(false), c: &counts{}}
	begin := time.Now()
	var rounds []*roundResult
	for i := 0; ; i++ {
		// A traced run alternates untraced and traced rounds so it can
		// report the tracing overhead.
		rr, err := r.round(i, traced && i%2 == 1)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", workload, i, err)
		}
		rounds = append(rounds, rr)
		minRounds := 1
		if traced {
			minRounds = 2
		}
		if i+1 >= minRounds && time.Since(begin).Seconds() >= seconds {
			break
		}
	}

	out := &runOutput{result: result{
		Correct:   r.c.wrong.Load() == 0,
		Attempted: r.c.attempted.Load(),
		Failed:    r.c.failed.Load(),
	}}
	var plain, tracedRounds []*roundResult
	for _, rr := range rounds {
		if rr.traced {
			tracedRounds = append(tracedRounds, rr)
		} else {
			plain = append(plain, rr)
		}
	}
	if traced {
		out.result.Metrics = layerMetrics(p, plain, tracedRounds)
		path := filepath.Join(spansDir, fmt.Sprintf("spans-%s-seed%d.tsv", p.Name, seed))
		if err := r.tr.writeSpans(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	} else {
		out.result.Metrics = endToEnd(plain)
	}

	var late []int64
	for _, rr := range rounds {
		late = append(late, rr.lateNs...)
	}
	o := r.opts
	o.FS, o.Codec = nil, nil
	perRound := make([]map[string]any, len(rounds))
	for i, rr := range rounds {
		perRound[i] = map[string]any{
			"traced": rr.traced, "setup_s": rr.setupS, "put_ops_s": rr.putOpsS,
			"compaction_mib_s": rr.compMiBS, "write_amp": rr.writeAmp, "space_amp": rr.spaceAmp,
			"get_ops_s": rr.getOpsS, "scan_keys_s": rr.scanKeysS, "alloc_bytes_per_op": rr.allocOp,
			"put_p50_us": pct(rr.putLat, 0.5) / 1e3, "put_p999_us": pct(rr.putLat, 0.999) / 1e3,
			"get_p50_us": pct(rr.getLat, 0.5) / 1e3, "get_p99_us": pct(rr.getLat, 0.99) / 1e3,
			"put_samples": len(rr.putLat), "get_samples": len(rr.getLat),
		}
	}
	out.info = map[string]any{
		"host": map[string]any{
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"num_cpu":    runtime.NumCPU(),
			"go":         runtime.Version(),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
		},
		"seed":     seed,
		"scale":    map[bool]string{false: "full", true: "short"}[short],
		"workload": p,
		// Zero-valued fields select the engine's defaults; the codec is
		// snappy (wrapped by the benchmark's interposer in traced rounds).
		"lsm_options":        fmt.Sprintf("%+v", o),
		"rounds":             perRound,
		"elapsed_s":          time.Since(begin).Seconds(),
		"writer_late_p50_us": pct(late, 0.5) / 1e3,
		"writer_late_p99_us": pct(late, 0.99) / 1e3,
	}
	return out, nil
}

// endToEnd reduces untraced rounds to the end-to-end metrics: the median
// over rounds of each per-round figure. Latency percentiles are taken per
// round and their median reported: a tail set by a handful of stalls moves
// less that way than when the rounds' samples are pooled.
func endToEnd(rounds []*roundResult) map[string]metric {
	med := func(f func(*roundResult) float64) float64 {
		v := make([]float64, len(rounds))
		for i, rr := range rounds {
			v[i] = f(rr)
		}
		return median(v)
	}
	return map[string]metric{
		"setup_s":            {med(func(r *roundResult) float64 { return r.setupS }), "s"},
		"put_ops_s":          {med(func(r *roundResult) float64 { return r.putOpsS }), "ops/s"},
		"put_p50_us":         {med(func(r *roundResult) float64 { return pct(r.putLat, 0.5) / 1e3 }), "us"},
		"put_p999_us":        {med(func(r *roundResult) float64 { return pct(r.putLat, 0.999) / 1e3 }), "us"},
		"compaction_mib_s":   {med(func(r *roundResult) float64 { return r.compMiBS }), "MiB/s"},
		"write_amp":          {med(func(r *roundResult) float64 { return r.writeAmp }), "bytes/byte"},
		"space_amp":          {med(func(r *roundResult) float64 { return r.spaceAmp }), "bytes/byte"},
		"get_ops_s":          {med(func(r *roundResult) float64 { return r.getOpsS }), "ops/s"},
		"get_p50_us":         {med(func(r *roundResult) float64 { return pct(r.getLat, 0.5) / 1e3 }), "us"},
		"get_p99_us":         {med(func(r *roundResult) float64 { return pct(r.getLat, 0.99) / 1e3 }), "us"},
		"scan_keys_s":        {med(func(r *roundResult) float64 { return r.scanKeysS }), "keys/s"},
		"alloc_bytes_per_op": {med(func(r *roundResult) float64 { return r.allocOp }), "B/op"},
	}
}

// layerMetrics reduces the traced rounds to the per-layer metrics (median
// over traced rounds) and adds the tracing overhead: how much slower the
// workload's headline throughput ran traced than untraced.
func layerMetrics(p params, plain, traced []*roundResult) map[string]metric {
	out := map[string]metric{}
	per := make([]map[string]metric, len(traced))
	for i, rr := range traced {
		per[i] = layersOf(&rr.layers)
	}
	for name, m := range per[0] {
		v := make([]float64, len(per))
		for i := range per {
			v[i] = per[i][name].Value
		}
		out[name] = metric{median(v), m.Unit}
	}
	headline := func(rs []*roundResult) float64 {
		v := make([]float64, len(rs))
		for i, rr := range rs {
			v[i] = rr.putOpsS
			if p.Name == "readwhilewriting-ssd" {
				v[i] = rr.getOpsS
			}
		}
		return median(v)
	}
	out["trace.overhead_pct"] = metric{(ratio(headline(plain), headline(traced)) - 1) * 100, "%"}
	return out
}

// layersOf computes the per-layer metrics of one traced round.
func layersOf(w *window) map[string]metric {
	g := w.get
	mib := func(b float64) float64 { return b / (1 << 20) }
	fsS := func(kind, op string) float64 { return g("fs." + kind + "." + op + ".s") }
	return map[string]metric{
		"lsm.put_self_us":      {ratio(g("call.put.own_s"), g("call.put.calls")) * 1e6, "us"},
		"lsm.get_self_us":      {ratio(g("call.get.own_s"), g("call.get.calls")) * 1e6, "us"},
		"lsm.stall_s":          {g("db.stall_s"), "s"},
		"lsm.stalls":           {g("db.stalls"), "count"},
		"lsm.flushes":          {g("db.flushes"), "count"},
		"lsm.flush_s":          {g("db.flush_s"), "s"},
		"lsm.writes_per_group": {ratio(g("db.grouped_writes"), g("db.write_groups")), "writes/group"},
		"lsm.compactions":      {g("db.compactions"), "count"},
		"lsm.trivial_moves":    {g("db.trivial_moves"), "count"},
		"lsm.policy_switches":  {g("db.policy_switches"), "count"},

		"wal.writes":    {g("fs.log.write.calls"), "count"},
		"wal.write_mib": {mib(g("fs.log.write.bytes")), "MiB"},
		"wal.write_s":   {fsS("log", "write") + fsS("log", "sync"), "s"},

		"core.s2_6_compute_s":   {g("db.s2_6_s"), "s"},
		"core.busy_compute_s":   {g("db.busy_comp_s"), "s"},
		"core.idle_compute_s":   {g("db.idle_comp_s"), "s"},
		"core.s1_read_s":        {g("db.s1_s"), "s"},
		"core.s7_write_s":       {g("db.s7_s"), "s"},
		"core.busy_read_s":      {g("db.busy_read_s"), "s"},
		"core.busy_write_s":     {g("db.busy_write_s"), "s"},
		"core.idle_read_s":      {g("db.idle_read_s"), "s"},
		"core.idle_write_s":     {g("db.idle_write_s"), "s"},
		"core.input_mib":        {mib(g("db.comp_in")), "MiB"},
		"core.output_mib":       {mib(g("db.comp_out")), "MiB"},
		"core.wall_s":           {g("db.comp_wall_s"), "s"},
		"core.governor_grows":   {g("db.governor_grows"), "count"},
		"core.governor_denials": {g("db.governor_denied"), "count"},

		"compress.calls":  {g("codec.calls"), "count"},
		"compress.in_mib": {mib(g("codec.in")), "MiB"},
		"compress.ratio":  {ratio(g("codec.in"), g("codec.out")), "ratio"},
		"compress.s":      {g("codec.s"), "s"},

		"sstable.write_mib": {mib(g("fs.sst.write.bytes")), "MiB"},
		"sstable.write_s":   {fsS("sst", "write") + fsS("sst", "sync"), "s"},
		"sstable.reads":     {g("fs.sst.read.calls"), "count"},
		"sstable.read_mib":  {mib(g("fs.sst.read.bytes")), "MiB"},
		"sstable.read_s":    {fsS("sst", "read"), "s"},

		"manifest.syncs": {g("fs.manifest.sync.calls"), "count"},

		"cache.hit_ratio":      {ratio(g("db.cache_hits"), g("db.cache_hits")+g("db.cache_misses")), "ratio"},
		"cache.misses_per_get": {ratio(g("db.cache_misses"), g("db.gets")), "misses/get"},
		"cache.evictions":      {g("db.cache_evictions"), "count"},
		"cache.prewarmed":      {g("db.cache_prewarmed"), "count"},

		"bloom.skips_per_get": {ratio(g("db.filter_skips"), g("db.gets")), "skips/get"},

		"device.busy_read_s":  {g("dev.busy_read_s"), "s"},
		"device.busy_write_s": {g("dev.busy_write_s"), "s"},
		"device.queue_wait_s": {g("dev.queue_s"), "s"},
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// pct returns the q-quantile of samples by nearest rank (0 when empty).
func pct(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}
