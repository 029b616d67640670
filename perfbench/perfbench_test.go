package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"blobseer/internal/wire"
)

func shortCfg(t *testing.T) runCfg {
	return runCfg{seed: 7, seconds: 0.3, setups: 1, dir: t.TempDir(), small: true}
}

// TestShortModeEmitsEveryMetric runs every workload briefly, untraced
// and traced, and checks that each run is correct, fails nothing and
// reports every named metric with its unit.
func TestShortModeEmitsEveryMetric(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := bench(name, shortCfg(t), traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
				}
				defs := endToEnd
				if traced {
					defs = perLayer()
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, d.name, m, d.unit)
					}
					if !traced && (m.Value <= 0 || math.IsNaN(m.Value)) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			}
		})
	}
}

// TestTracedRunSpansEveryLayer checks that a traced run records spans at
// each boundary: client operations, rpcs to the data providers, the
// version manager and the metadata DHT, and the page stores.
func TestTracedRunSpansEveryLayer(t *testing.T) {
	cfg := shortCfg(t)
	cfg.seconds = 0.5
	cfg.tr = newTracer(true)
	o, err := runUpdateGC(cfg)
	if err != nil || o.err != nil {
		t.Fatalf("run: %v %v", err, o.err)
	}
	tr := cfg.tr
	kinds := map[wire.Kind]int{}
	for _, r := range tr.rpcs {
		kinds[wire.Kind(r.kind)]++
		if r.end < r.start || r.bytes <= frameHeaderLen*2 {
			t.Fatalf("bad rpc span %+v", r)
		}
	}
	for _, k := range []wire.Kind{wire.KindPutPageReq, wire.KindGetPagesReq, wire.KindDeletePagesReq, // provider
		wire.KindAssignReq, wire.KindCompleteReq, wire.KindGCInfoReq, // version manager
		wire.KindDHTMultiPutReq, wire.KindDHTMultiGetReq, wire.KindDHTDeleteReq} { // DHT
		if kinds[k] == 0 {
			t.Errorf("no rpc span of kind %v", k)
		}
	}
	var ops [numOps]int
	for _, s := range tr.ops {
		ops[s.kind]++
	}
	if ops[opWrite] == 0 || ops[opRead] == 0 {
		t.Errorf("op spans: %v", ops)
	}
	var store [3]int
	for _, s := range tr.store {
		store[s.kind]++
	}
	if store[storePut] == 0 || store[storeGet] == 0 {
		t.Errorf("store spans: %v", store)
	}
	m := tr.spanMetrics(o.window)
	if m["client.self_ms_per_op"] <= 0 || m["client.self_ms_per_op"] >= m["client.write.p50_ms"]*10 {
		t.Errorf("client self time %v ms per op is implausible", m["client.self_ms_per_op"])
	}
}

// TestSimSameSeed checks that paper_append_sim repeats for one seed:
// two simulations of the same plan make the same appends and rpcs,
// store the same bytes and end at the same size (checked inside
// simulate). Virtual time itself agrees only to within 0.1%: when
// several goroutines wake at the same virtual instant, the Go scheduler
// picks their order, and with it the order of link transfers.
func TestSimSameSeed(t *testing.T) {
	if newSimPlan(3, true) != newSimPlan(3, true) || newSimPlan(3, true) == newSimPlan(4, true) {
		t.Fatal("plans do not follow the seed")
	}
	type run struct {
		f          simFigures
		rpcs, wire int64
	}
	var runs []run
	for i := 0; i < 2; i++ {
		tr := newTracer(false)
		f, err := simulate(newSimPlan(3, true), tr)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{f, tr.rpcCount.Load(), tr.rpcBytes.Load()})
	}
	a, b := runs[0], runs[1]
	if len(a.f.lat) != len(b.f.lat) || a.rpcs != b.rpcs || a.wire != b.wire {
		t.Errorf("appends, rpcs, rpc bytes: %d %d %d vs %d %d %d", len(a.f.lat), a.rpcs, a.wire, len(b.f.lat), b.rpcs, b.wire)
	}
	if a.f.spaceAmp != b.f.spaceAmp || !reflect.DeepEqual(a.f.layers, b.f.layers) {
		t.Errorf("stored bytes or layer counters differ: %v %v vs %v %v", a.f.spaceAmp, a.f.layers, b.f.spaceAmp, b.f.layers)
	}
	if d := math.Abs(a.f.virtual.mbps/b.f.virtual.mbps - 1); d > 1e-3 {
		t.Errorf("virtual throughput differs by %.3f%%: %v vs %v", d*100, a.f.virtual, b.f.virtual)
	}
}

// TestFrameParser feeds two frames one byte at a time and checks that
// each completes once, with its id, kind and body length.
func TestFrameParser(t *testing.T) {
	frame := func(id uint64, kind wire.Kind, body int) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(body))
		b = binary.LittleEndian.AppendUint64(b, id)
		return append(append(b, byte(kind)), make([]byte, body)...)
	}
	stream := append(frame(9, wire.KindAssignReq, 5), frame(10, wire.KindRecentReq, 0)...)
	var p frameParser
	var got []uint64
	for i := range stream {
		p.feed(stream[i:i+1], func(id uint64, kind wire.Kind, n uint32) {
			got = append(got, id, uint64(kind), uint64(n))
		})
	}
	want := []uint64{9, uint64(wire.KindAssignReq), 5, 10, uint64(wire.KindRecentReq), 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frames %v, want %v", got, want)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this program runs and reports.
func TestBenchmarkJSON(t *testing.T) {
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
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %+v, want %s %s", kind, i, got[i], d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}
