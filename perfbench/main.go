// Command perfbench is the repository's benchmark. It runs one named
// workload against the real BlobSeer stack in this process, checks every
// output against a model built from the seeded generator, and prints one
// JSON result line: the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a separate traced run.
//
//	go build -o perfbench . && ./perfbench -workload read_versions -seed 1 -seconds 10 -trace 0
//
// Workloads: append_durable, read_versions, update_gc, paper_append_sim
// (see BENCHMARK.json for what each one exercises and why).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the gated metrics of an untraced run. Every workload
// reports each of them. They are the costs a user of the system pays
// per payload byte or operation, plus set-up time: figures that do not
// move with the host's speed. Wall-clock throughput and latency are
// reported with the per-layer metrics and on standard error, not gated:
// on a shared two-core host they drift up to twofold within minutes.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"space_amp", "ratio"},
	{"peak_rss_mb", "MB"},
	{"alloc_b_per_b", "B/B"},
	{"rpcs_per_op", "count"},
	{"wire_b_per_b", "B/B"},
}

// wallClock lists the time-based figures: wall-clock on the real-clock
// workloads, and virtual time (link-model output) on paper_append_sim.
var wallClock = []metricDef{
	{"wall.mb_s", "MB/s"},
	{"wall.ops_s", "1/s"},
	{"wall.p50_ms", "ms"},
	{"wall.p99_ms", "ms"},
	{"wall.cpu_s_per_gb", "s/GB"},
	{"virtual.mb_s", "MB/s"},
	{"virtual.ops_s", "1/s"},
	{"virtual.p50_ms", "ms"},
	{"virtual.p99_ms", "ms"},
}

// perLayer lists the metrics of a traced run, in output order.
func perLayer() []metricDef {
	defs := append([]metricDef(nil), wallClock...)
	defs = append(defs, []metricDef{
		{"client.self_ms_per_op", "ms"},
		{"client.rpcs_per_op", "count"},
		{"client.page_cache_hit_ratio", "ratio"},
		{"client.pages_per_fetch_rpc", "count"},
		{"client.gc_listed_versions_per_gc", "count"},
		{"client.gc_walked_nodes_per_deleted_page", "ratio"},
	}...)
	for _, op := range opNames {
		defs = append(defs, metricDef{"client." + op + ".p50_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"meta.cache_hit_ratio", "ratio"},
		metricDef{"core.nodes_per_update", "count"},
	)
	for _, k := range rpcKinds {
		defs = append(defs,
			metricDef{"rpc." + k.name + ".calls_per_op", "count"},
			metricDef{"rpc." + k.name + ".p50_ms", "ms"},
			metricDef{"rpc." + k.name + ".bytes_per_call", "B"},
		)
	}
	return append(defs,
		metricDef{"transport.bytes_per_payload_byte", "B/B"},
		metricDef{"pagestore.put_us_per_page", "us"},
		metricDef{"pagestore.get_us_per_call", "us"},
		metricDef{"pagestore.delete_us_per_page", "us"},
		metricDef{"pagestore.busy_frac", "frac"},
		metricDef{"seglog.page_fsyncs_per_record", "ratio"},
		metricDef{"seglog.wal_records_per_update", "count"},
		metricDef{"dht.log_bytes_per_payload_byte", "B/B"},
		metricDef{"runtime.alloc_bytes_per_payload_byte", "B/B"},
		metricDef{"runtime.gc_cycles_per_gb", "1/GB"},
		metricDef{"runtime.gc_cpu_frac", "frac"},
		metricDef{"trace.overhead_frac", "frac"},
	)
}

// runCfg is what every workload is given.
type runCfg struct {
	seed    uint64
	seconds float64
	setups  int    // how many times set-up runs; the fastest is setup_s
	dir     string // where durable state lives; removed after the run
	small   bool   // small preloads, for the package tests
	tr      *tracer
}

func (c runCfg) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// outcome is what one workload run measured.
type outcome struct {
	rec      *recorder
	primary  string          // operation whose latency percentiles are reported
	setups   []time.Duration // wall time of each set-up
	window   time.Duration   // measured wall time
	proc     procDelta       // process counters over the window
	spaceAmp float64
	// virtual, when set, holds the throughput in virtual time
	// (paper_append_sim, whose recorded latencies are virtual too).
	virtual *virtualFigures
	layers  map[string]float64 // counter-derived per-layer metrics
	err     error              // a failed correctness check
}

// virtualFigures are throughput figures in virtual time.
type virtualFigures struct{ mbps, opsps float64 }

// wallMBps is payload throughput over the measured wall time.
func (o *outcome) wallMBps() float64 {
	_, _, _, payload := o.rec.totals()
	return float64(payload) / o.window.Seconds() / 1e6
}

func (o *outcome) endToEnd(tr *tracer) (map[string]float64, error) {
	_, _, completed, payload := o.rec.totals()
	if completed == 0 || payload == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rpcs, wire := tr.rpcFigures(completed, payload)
	return map[string]float64{
		"setup_s":       setupSeconds(o.setups),
		"space_amp":     o.spaceAmp,
		"peak_rss_mb":   rss,
		"alloc_b_per_b": o.allocPerByte(),
		"rpcs_per_op":   rpcs,
		"wire_b_per_b":  wire,
	}, nil
}

// allocPerByte is the Go heap bytes allocated per payload byte.
func (o *outcome) allocPerByte() float64 {
	_, _, _, payload := o.rec.totals()
	return float64(o.proc.allocBytes) / float64(payload)
}

// timeFigures are the throughput and latency of the primary operation,
// in wall-clock time, or in virtual time for a simulated workload.
func (o *outcome) timeFigures() map[string]float64 {
	_, _, completed, payload := o.rec.totals()
	prim := o.rec.op(o.primary).lat
	m := map[string]float64{
		"wall.mb_s":         o.wallMBps(),
		"wall.cpu_s_per_gb": o.proc.cpu.Seconds() / (float64(payload) / 1e9),
	}
	if v := o.virtual; v != nil {
		m["virtual.mb_s"], m["virtual.ops_s"] = v.mbps, v.opsps
		m["virtual.p50_ms"] = ms(quantile(prim, 0.5))
		m["virtual.p99_ms"] = ms(quantile(prim, 0.99))
		return m
	}
	m["wall.ops_s"] = float64(completed) / o.window.Seconds()
	m["wall.p50_ms"] = ms(quantile(prim, 0.5))
	m["wall.p99_ms"] = ms(quantile(prim, 0.99))
	return m
}

// runtimeLayers derives the Go runtime's per-layer metrics.
func (o *outcome) runtimeLayers() map[string]float64 {
	_, _, _, payload := o.rec.totals()
	gb := float64(payload) / 1e9
	return map[string]float64{
		"runtime.alloc_bytes_per_payload_byte": o.allocPerByte(),
		"runtime.gc_cycles_per_gb":             float64(o.proc.numGC) / gb,
		"runtime.gc_cpu_frac":                  o.proc.gcCPUFrac,
	}
}

var workloads = map[string]func(runCfg) (*outcome, error){
	"append_durable":   runAppendDurable,
	"read_versions":    runReadVersions,
	"update_gc":        runUpdateGC,
	"paper_append_sim": runPaperAppendSim,
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// bench runs one workload and assembles its result line: the end-to-end
// metrics, or with traced the per-layer metrics of a traced run made
// after an untraced one of the same length.
func bench(name string, cfg runCfg, traced bool) (*result, error) {
	run, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if traced {
		cfg.setups = 1
	}
	cfg.tr = newTracer(false)
	base, err := run(cfg)
	if err != nil {
		return nil, err
	}
	if base.err != nil {
		return assemble(base, nil, nil)
	}
	figures := base.timeFigures()
	if !traced {
		printFigures(figures)
		vals, err := base.endToEnd(cfg.tr)
		if err != nil {
			return nil, err
		}
		return assemble(base, endToEnd, vals)
	}

	cfg.tr = newTracer(true)
	o, err := run(cfg)
	if err != nil {
		return nil, err
	}
	_, _, completed, payload := o.rec.totals()
	vals := cfg.tr.spanMetrics(o.window)
	vals["client.rpcs_per_op"], vals["transport.bytes_per_payload_byte"] = cfg.tr.rpcFigures(completed, payload)
	for _, src := range []map[string]float64{o.layers, o.runtimeLayers(), figures} {
		for k, v := range src {
			vals[k] = v
		}
	}
	vals["trace.overhead_frac"] = 1 - o.wallMBps()/base.wallMBps()
	attempted, failed, _, _ := base.rec.totals()
	res, err := assemble(o, perLayer(), vals)
	if res != nil {
		res.Attempted += attempted
		res.Failed += failed
	}
	return res, err
}

// printFigures reports the time-based figures on standard error.
func printFigures(m map[string]float64) {
	for _, d := range wallClock {
		if v, ok := m[d.name]; ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s = %.4g %s\n", d.name, v, d.unit)
		}
	}
}

// assemble checks that every named metric was measured and builds the
// result line; a failed correctness check yields correct=false.
func assemble(o *outcome, defs []metricDef, vals map[string]float64) (*result, error) {
	attempted, failed, _, _ := o.rec.totals()
	o.rec.report()
	res := &result{Correct: o.err == nil, Attempted: attempted, Failed: failed, Metrics: map[string]metricOut{}}
	if o.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: correctness check failed: %v\n", o.err)
		return res, nil
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			v = 0 // the layer did no work of this kind in this workload
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	dir := flag.String("dir", ".bench_build/run", "directory for durable state (removed afterwards)")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: -workload must be one of %v\n", names)
		os.Exit(2)
	}
	cfg := runCfg{seed: *seed, seconds: *seconds, setups: 5, dir: *dir}
	res, err := bench(*workload, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
