// Command perfbench times an in-process cluster of this repository's TCP
// nodes on four workloads and prints every end-to-end metric by name and
// unit, or, with -trace 1, every per-layer metric from a traced run plus
// the tracing overhead. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A run whose
// cluster fails the correctness gate prints correct=false and exits 1.
//
// Usage (from the repository root, see README.md in this directory):
//
//	python3 perfbench/run.py --workload write-heavy --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the cluster sees, reported by every
// workload (BENCHMARK.json's end_to_end list).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"visible_p50_ms", "ms"},
	{"wire_bytes_per_op", "B/op"},
}

// perLayer are the traced run's layer metrics (BENCHMARK.json's per_layer
// list). A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"client.self_us_per_op", "us"},
	{"client.syscalls_per_op", "count"},
	{"client.frames_out_per_op", "count"},
	{"store.do_us_per_op", "us"},
	{"store.digest_us_per_op", "us"},
	{"store.digest_calls_per_op", "count"},
	{"store.digest_bytes_per_call", "B"},
	{"store.sees_calls_per_op", "count"},
	{"store.receive_us_per_update", "us"},
	{"durable.append_us_per_op", "us"},
	{"durable.append_p50_us", "us"},
	{"durable.append_p99_us", "us"},
	{"durable.appends_per_op", "count"},
	{"durable.disk_write_bytes_per_op", "B/op"},
	{"livecheck.observe_us_per_op", "us"},
	{"livecheck.events_per_op", "count"},
	{"repl.sends_per_write", "count"},
	{"repl.frames_per_write", "count"},
	{"repl.retransmits_per_write", "count"},
	{"repl.useful_frac", "frac"},
	{"history.events_per_op", "count"},
	{"sync.pulled_updates", "count"},
	{"sync.reoffered_updates", "count"},
	{"sync.pulled_frac", "frac"},
	{"sync.served_updates", "count"},
	{"proc.cpu_us_per_op", "us"},
	{"proc.alloc_bytes_per_op", "B/op"},
	{"proc.mallocs_per_op", "count"},
	{"proc.heap_retained_bytes_per_op", "B/op"},
	{"trace.spans_per_op", "count"},
	{"trace.ops_overhead_frac", "frac"},
	{"trace.p50_overhead_frac", "frac"},
}

type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]metricOutcome `json:"metrics"`
}

type metricOutcome struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: read-heavy, write-heavy, write-durable, join-catchup")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "timed phase length (join-catchup: catch-up time to accumulate)")
	trace := flag.Int("trace", 0, "1 runs an untraced and a traced leg and reports per-layer metrics")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "directory for journals and the span dump")
	flag.Parse()
	p := params{store: "causal", seed: *seed, seconds: *seconds, setupReps: 9, preload: joinPreload}
	if err := run(*name, p, *trace == 1, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run(name string, p params, traced bool, work string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	dir := filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid()))
	defer removeAll(dir)
	p.w, p.dir = w, filepath.Join(dir, "untraced")
	base, err := runLeg(p)
	if err != nil {
		return err
	}
	res := result{Correct: len(base.problems) == 0, Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metricOutcome{}}
	report("untraced", base)
	base.recs = nil // free the untraced leg's lanes before the traced leg
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricOutcome{base.e2e[m.name], m.unit}
		}
	} else {
		p.traced, p.dir = true, filepath.Join(dir, "traced")
		tr, err := runLeg(p)
		if err != nil {
			return err
		}
		report("traced", tr)
		tr.layer["trace.ops_overhead_frac"] = 1 - tr.e2e["ops_per_s"]/base.e2e["ops_per_s"]
		tr.layer["trace.p50_overhead_frac"] = tr.e2e["p50_ms"]/base.e2e["p50_ms"] - 1
		res.Correct = res.Correct && len(tr.problems) == 0
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		for _, m := range perLayer {
			res.Metrics[m.name] = metricOutcome{tr.layer[m.name], m.unit}
			fmt.Printf("%-34s %14.4f %s\n", m.name, tr.layer[m.name], m.unit)
		}
		path := filepath.Join(work, fmt.Sprintf("trace-%s.tsv.gz", w.name))
		if err := dumpSpans(path, tr.recs); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// report prints one leg's end-to-end metrics, extra figures and gate
// verdict for humans.
func report(label string, l *leg) {
	fmt.Printf("== %s leg: %d attempted, %d failed, codec %s, do frontiers %v\n", label, l.attempted, l.failed, l.codec, l.frontiers)
	for _, m := range endToEnd {
		fmt.Printf("%-34s %14.4f %s\n", m.name, l.e2e[m.name], m.unit)
	}
	var extra []string
	for k := range l.info {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Printf("  %-32s %14.4f\n", k, l.info[k])
	}
	if len(l.problems) == 0 {
		fmt.Println("gate: ok (quiesced, converged on 64 sampled keys, 0 violations, livecheck clean)")
	}
	for _, pr := range l.problems {
		fmt.Println("gate: FAIL:", pr)
	}
}

// dumpSpans writes every recorded span as gzipped TSV: lane, layer, event
// kind, start and duration in nanoseconds, and the causal link.
func dumpSpans(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "cluster\tlane\tlayer\tevent\tstart_ns\tdur_ns\tlink")
	write := func(ci int, laneName string, l *lane) {
		for _, s := range l.spans {
			fmt.Fprintf(bw, "%d\t%s\t%s\t%s\t%d\t%d\t%d\n", ci, laneName, spanNames[s.kind], s.event, s.start, s.dur, s.link)
		}
	}
	for ci, r := range recs {
		for i, l := range r.clients {
			write(ci, fmt.Sprintf("client%d", i), l)
		}
		for node, shards := range r.nodes {
			for s, l := range shards {
				write(ci, fmt.Sprintf("r%d.s%d", node, s), l)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
