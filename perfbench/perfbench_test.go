package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/consistency"
	"repro/internal/durable"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
)

// tiny shrinks a workload's run to a few dozen operations.
func tiny(t *testing.T, name, storeName string, seed int64) params {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return params{w: w, store: storeName, seed: seed, maxOps: 40, setupReps: 1, maxJoins: 1, preload: 200, dir: t.TempDir()}
}

// TestGateFlagsInvisibleReadViolation runs a short read-heavy leg against
// the kbuffer store, whose reads change replica state by design: the gate
// must report the Definition 16 violation, so a read path that stopped
// checking it could not pass as a pure speed-up.
func TestGateFlagsInvisibleReadViolation(t *testing.T) {
	l, err := runLeg(tiny(t, "read-heavy", "kbuffer", 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range l.problems {
		if strings.Contains(p, "invisible reads") {
			return
		}
	}
	t.Fatalf("kbuffer leg passed the gate without an invisible-read violation; problems: %q", l.problems)
}

// TestTracedStoreKeepsTraits checks that the traced wrappers forward the
// optional store and replica traits the cluster consults, and the name.
func TestTracedStoreKeepsTraits(t *testing.T) {
	for _, name := range []string{"causal", "kbuffer", "lww"} {
		st, err := store.Open(name, spec.MVRTypes(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := traceStore(st, newRecorder(1, 1, true), 1)
		if ts.Name() != st.Name() {
			t.Errorf("%s: traced name %q", name, ts.Name())
		}
		if store.PreferredWireCodec(ts) != store.PreferredWireCodec(st) {
			t.Errorf("%s: traced codec %q, want %q", name, store.PreferredWireCodec(ts), store.PreferredWireCodec(st))
		}
		inner, traced := st.NewReplica(0, 1), ts.NewReplica(0, 1)
		_, iv := inner.(store.VisReporter)
		_, tv := traced.(store.VisReporter)
		_, id := inner.(store.DotReporter)
		_, td := traced.(store.DotReporter)
		if iv != tv || id != td {
			t.Errorf("%s: traits vis/dot %v/%v, traced %v/%v", name, iv, id, tv, td)
		}
	}
}

// TestTracedRunMatchesUntraced runs the same seed with and without the
// wrappers: the negotiated codec, the recorded events per op, the sends per
// write and whether do events carry frontiers must agree.
func TestTracedRunMatchesUntraced(t *testing.T) {
	base := tiny(t, "write-heavy", "causal", 7)
	plain, err := runLeg(base)
	if err != nil {
		t.Fatal(err)
	}
	base.traced, base.dir = true, t.TempDir()
	traced, err := runLeg(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []*leg{plain, traced} {
		if len(l.problems) > 0 {
			t.Fatalf("gate failed: %q", l.problems)
		}
	}
	if plain.codec != traced.codec || plain.frontiers != traced.frontiers {
		t.Errorf("codec/frontiers %s/%v untraced, %s/%v traced", plain.codec, plain.frontiers, traced.codec, traced.frontiers)
	}
	for _, m := range []string{"history.events_per_op", "repl.sends_per_write"} {
		if plain.layer[m] != traced.layer[m] {
			t.Errorf("%s: %v untraced, %v traced", m, plain.layer[m], traced.layer[m])
		}
	}
	if traced.layer["store.do_us_per_op"] <= 0 || traced.layer["livecheck.observe_us_per_op"] <= 0 {
		t.Errorf("traced run recorded no store or livecheck spans: %v", traced.layer)
	}
}

// TestWorkloadsAuditClean runs every workload's generator at a tiny size
// and replays each shard's merged histories through the offline audit:
// well-formed executions whose derived abstract executions are causal.
func TestWorkloadsAuditClean(t *testing.T) {
	// Journal with the cluster's defaults here, fsync and compaction on:
	// the timed runs leave both off.
	defer func(o durable.Options) { journalOpts = o }(journalOpts)
	journalOpts = durable.Options{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p := tiny(t, w.name, "causal", 3)
			p.keepHistories = true
			l, err := runLeg(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(l.problems) > 0 {
				t.Fatalf("gate failed: %q", l.problems)
			}
			if len(l.histories) != w.shards {
				t.Fatalf("got histories for %d shards, want %d", len(l.histories), w.shards)
			}
			for s, hists := range l.histories {
				audit, err := cluster.BuildAudit(hists)
				if err != nil {
					t.Fatalf("shard %d: %v", s, err)
				}
				if err := audit.Exec.CheckWellFormed(); err != nil {
					t.Fatalf("shard %d not well-formed: %v", s, err)
				}
				if err := consistency.CheckCausal(audit.Abstract, spec.MVRTypes()); err != nil {
					t.Fatalf("shard %d not causal: %v", s, err)
				}
			}
		})
	}
}

func TestOpStreamIsSeeded(t *testing.T) {
	a, b := newOpStream(5, 1, keys, 0.5), newOpStream(5, 1, keys, 0.5)
	for i := 0; i < 100; i++ {
		oa, pa := a.next()
		ob, pb := b.next()
		if oa != ob || pa != pb {
			t.Fatalf("op %d differs: %s %v vs %s %v", i, oa, pa, ob, pb)
		}
	}
	a, c := newOpStream(5, 1, keys, 0.5), newOpStream(6, 1, keys, 0.5)
	same := true
	for i := 0; i < 20; i++ {
		oa, _ := a.next()
		oc, _ := c.next()
		same = same && oa == oc
	}
	if same {
		t.Fatal("different seeds gave the same keys")
	}
	if got := preloadOps(1, 2, 10, 10); len(got) != 5 || got[0] != model.ObjectID("k000001") {
		t.Fatalf("preload share %v", got)
	}
}

// TestBenchmarkJSONMatchesProgram keeps the metric lists the program prints
// and the ones BENCHMARK.json declares identical, names and units alike.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(printed))
			return
		}
		for i, m := range printed {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s %d: declared %s (%s), printed %s (%s)", kind, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %s, program %s", i, b.Workloads[i].Name, w.name)
		}
	}
}
