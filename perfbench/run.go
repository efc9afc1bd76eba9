package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/model"
)

// params are one run's inputs. The command line fills them for real runs;
// tests shrink them.
type params struct {
	w     workload
	store string
	seed  int64
	// seconds is how long the timed phase lasts (load workloads) or how
	// much catch-up time join-catchup accumulates over its repetitions.
	seconds float64
	// maxOps, when positive, stops each client after that many operations
	// instead of at the deadline.
	maxOps int
	// setupReps is how many times a load workload sets its cluster up; the
	// last set-up cluster is the one timed, and setup_s is their median.
	setupReps int
	// maxJoins caps join-catchup's repetitions (0: until seconds is spent).
	maxJoins int
	// preload is join-catchup's preloaded write count.
	preload int
	dir     string
	traced  bool
	// keepHistories makes the leg capture every shard's per-node histories
	// before shutdown (the audited test leg).
	keepHistories bool
}

// sample is one completed client operation.
type sample struct {
	lat  int64
	read bool
}

// leg is one measured phase: its metrics and its correctness verdict.
type leg struct {
	e2e       map[string]float64
	layer     map[string]float64
	info      map[string]float64 // printed for humans, not part of the JSON contract
	attempted int64
	failed    int64
	problems  []string
	codec     string
	frontiers bool
	histories [][]cluster.History // [shard][node], when keepHistories
	recs      []*recorder         // every measured cluster's lanes
}

// layerAcc accumulates the raw sums the per-layer metrics divide.
type layerAcc struct {
	clientSelf, clientOps    int64
	doNs, digestNs           int64
	digestCalls, digestBytes int64
	seesCalls                int64
	recvNs, recvN            int64
	journal                  []int64
	observeNs, observeN      int64
	spans                    int64
}

func runLeg(p params) (*leg, error) {
	if p.w.join {
		return runJoin(p)
	}
	return runLoad(p)
}

// runLoad sets the cluster up setupReps times, drives the last one with the
// closed loop for the timed phase, and gates the result.
func runLoad(p params) (*leg, error) {
	var setups []float64
	var bc *benchCluster
	defer func() {
		if bc != nil {
			bc.close()
		}
	}()
	for i := 0; i < max(p.setupReps, 1); i++ {
		if bc != nil {
			bc.close()
		}
		t0 := time.Now()
		bc = newBenchCluster(p, p.seed, filepath.Join(p.dir, fmt.Sprintf("setup%d", i)))
		if err := bc.boot(p.w.nodes); err != nil {
			return nil, err
		}
		if err := bc.preload(keys); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	heap0 := liveHeap() - bc.rec.footprint()
	proc0 := sampleProc()
	tot0 := bc.totals()
	bc.rec.on.Store(true)
	start := bc.rec.now()
	samples, attempted, failed, bad := drive(bc, p)
	end := bc.rec.now()
	quiesced := cluster.WaitQuiesced(bc.nodes, quiesceTimeout)
	bc.rec.on.Store(false)
	heap1 := liveHeap() - bc.rec.footprint() - int64(cap(samples))*int64(unsafe.Sizeof(sample{}))
	proc1 := sampleProc()
	tot1 := bc.totals()

	l := &leg{attempted: attempted, failed: failed, info: map[string]float64{}}
	if !quiesced {
		l.problems = append(l.problems, "cluster did not quiesce after the timed phase")
	}
	if bad > 0 {
		l.problems = append(l.problems, fmt.Sprintf("%d replies were not valid answers to their operations", bad))
	}
	l.problems = append(l.problems, bc.gate(tot1)...)
	l.codec, l.frontiers = bc.nodes[0].Stats().Codec, doFrontiers(bc)
	if p.keepHistories {
		l.histories = bc.histories()
	}
	bc.close()
	l.recs = []*recorder{bc.rec}
	bc = nil

	var lats, reads, writes []int64
	for _, s := range samples {
		lats = append(lats, s.lat)
		if s.read {
			reads = append(reads, s.lat)
		} else {
			writes = append(writes, s.lat)
		}
	}
	ops := int64(len(lats))
	if ops == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	d := tot1.minus(tot0)
	pd := procDelta(proc0, proc1)
	vis := visibleDelays(l.recs[0], start, end)

	heapPerOp := float64(heap1-heap0) / float64(ops)
	l.e2e = map[string]float64{
		"setup_s":           median(setups),
		"ops_per_s":         float64(ops) / (float64(end-start) / 1e9),
		"p50_ms":            pct(lats, 0.50) / 1e6,
		"p95_ms":            pct(lats, 0.95) / 1e6,
		"visible_p50_ms":    pct(vis, 0.50) / 1e6,
		"wire_bytes_per_op": float64(d.bytesOut) / float64(ops),
	}
	l.info["p99_ms"] = pct(lats, 0.99) / 1e6
	l.info["visible_p99_ms"] = pct(vis, 0.99) / 1e6
	l.info["read_p50_ms"] = pct(reads, 0.50) / 1e6
	l.info["read_p99_ms"] = pct(reads, 0.99) / 1e6
	l.info["write_p50_ms"] = pct(writes, 0.50) / 1e6
	l.info["write_p99_ms"] = pct(writes, 0.99) / 1e6
	l.info["reads"] = float64(len(reads))
	l.info["writes"] = float64(len(writes))
	l.info["visible_samples"] = float64(len(vis))
	l.info["error_frac"] = float64(failed) / float64(max(attempted, 1))
	l.info["heap_retained_bytes_per_op"] = heapPerOp
	l.info["disk_write_bytes_per_op"] = float64(pd.writeBytes) / float64(ops)

	var acc layerAcc
	acc.add(l.recs[0])
	l.layer = layerMetrics(acc, d, pd, ops, int64(len(writes)))
	l.layer["proc.heap_retained_bytes_per_op"] = heapPerOp
	return l, nil
}

// drive runs the closed loop: each client issues its seeded stream, one
// operation outstanding, until the deadline (or maxOps).
func drive(bc *benchCluster, p params) (samples []sample, attempted, failed, bad int64) {
	deadline := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	per := make([][]sample, len(bc.clients))
	counts := make([][3]int64, len(bc.clients))
	var wg sync.WaitGroup
	for ci, c := range bc.clients {
		wg.Add(1)
		go func(ci int, c *cluster.Client) {
			defer wg.Done()
			s := newOpStream(p.seed, ci, keys, p.w.readFrac)
			lane := bc.rec.clients[ci]
			for n := 0; p.maxOps <= 0 || n < p.maxOps; n++ {
				if p.maxOps <= 0 && !time.Now().Before(deadline) {
					break
				}
				obj, op := s.next()
				t0 := bc.rec.now()
				resp, err := c.Do(obj, op)
				t1 := bc.rec.now()
				counts[ci][0]++
				if err != nil {
					counts[ci][1]++
					continue
				}
				if !validReply(op, resp) {
					counts[ci][2]++
				}
				per[ci] = append(per[ci], sample{lat: t1 - t0, read: op.Kind == model.OpRead})
				if bc.rec.traced {
					lane.add(span{kind: spClient, event: model.ActDo, start: t0, dur: t1 - t0, link: int64(n)})
				}
			}
		}(ci, c)
	}
	wg.Wait()
	for ci := range per {
		samples = append(samples, per[ci]...)
		attempted += counts[ci][0]
		failed += counts[ci][1]
		bad += counts[ci][2]
	}
	return samples, attempted, failed, bad
}

// validReply checks a reply against its operation: writes are
// acknowledged, and reads — every key was written in setup — return at
// least one value, each one some client's write.
func validReply(op model.Operation, resp model.Response) bool {
	if op.Kind != model.OpRead {
		return resp.OK
	}
	if len(resp.Values) == 0 {
		return false
	}
	for _, v := range resp.Values {
		if !strings.HasPrefix(string(v), "c") && !strings.HasPrefix(string(v), "p") {
			return false
		}
	}
	return true
}

// runJoin repeats set-up and join until the catch-ups add up to the
// run's seconds: each repetition boots nodes 0 and 1 of a 3-node
// population, preloads them, then times node 2 joining through node 0
// until all three report quiesced.
func runJoin(p params) (*leg, error) {
	l := &leg{info: map[string]float64{}}
	var setups, catchups []float64
	var lats []int64
	var acc layerAcc
	var d nodeTotals
	var pd procSample
	var heap, joinerRecv, joinerPulled int64
	total := 0.0
	for rep := 0; (p.maxJoins <= 0 || rep < p.maxJoins) && (rep == 0 || total < p.seconds); rep++ {
		t0 := time.Now()
		bc := newBenchCluster(p, p.seed+int64(rep), filepath.Join(p.dir, fmt.Sprintf("join%d", rep)))
		err := bc.boot(2)
		if err == nil {
			err = bc.preload(p.preload)
		}
		if err != nil {
			bc.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())

		heap0 := liveHeap() - bc.rec.footprint()
		proc0 := sampleProc()
		tot0 := bc.totals()
		bc.rec.on.Store(true)
		start := bc.rec.now()
		l.attempted++
		if err := bc.join(2); err != nil {
			bc.close()
			return nil, err
		}
		quiesced := cluster.WaitQuiesced(bc.nodes, quiesceTimeout)
		end := bc.rec.now()
		bc.rec.on.Store(false)
		heap1 := liveHeap() - bc.rec.footprint()
		proc1 := sampleProc()
		tot1 := bc.totals()
		js := bc.nodes[2].Stats()

		if !quiesced {
			l.problems = append(l.problems, "cluster did not quiesce after the join")
		}
		l.problems = append(l.problems, bc.gate(tot1)...)
		if js.Receives != int64(p.preload) {
			l.problems = append(l.problems, fmt.Sprintf("joiner applied %d updates, want the %d preloaded", js.Receives, p.preload))
		}
		l.codec, l.frontiers = js.Codec, doFrontiers(bc)
		if p.keepHistories {
			l.histories = bc.histories()
		}
		bc.close()

		catchups = append(catchups, float64(end-start)/1e9)
		total += float64(end-start) / 1e9
		for _, r := range bc.rec.nodes[2][0].recvs {
			lats = append(lats, r.at-start)
		}
		d = d.plus(tot1.minus(tot0))
		pd = pd.plus(procDelta(proc0, proc1))
		heap += heap1 - heap0
		joinerRecv += js.Receives
		joinerPulled += js.SyncPulled
		acc.add(bc.rec)
		l.recs = append(l.recs, bc.rec)
	}
	if joinerRecv == 0 {
		return nil, fmt.Errorf("the joiner applied no updates")
	}
	ops := joinerRecv
	l.e2e = map[string]float64{
		"setup_s":           median(setups),
		"ops_per_s":         float64(ops) / total,
		"p50_ms":            pct(lats, 0.50) / 1e6,
		"p95_ms":            pct(lats, 0.95) / 1e6,
		"visible_p50_ms":    pct(lats, 0.50) / 1e6,
		"wire_bytes_per_op": float64(d.bytesOut) / float64(ops),
	}
	l.info["p99_ms"] = pct(lats, 0.99) / 1e6
	l.info["heap_retained_bytes_per_op"] = float64(heap) / float64(ops)
	l.info["catchup_s"] = median(catchups)
	l.info["joins"] = float64(len(catchups))
	l.info["error_frac"] = 0
	l.layer = layerMetrics(acc, d, pd, ops, 0)
	l.layer["sync.pulled_updates"] = float64(joinerPulled) / float64(len(catchups))
	l.layer["sync.reoffered_updates"] = float64(joinerRecv-joinerPulled) / float64(len(catchups))
	l.layer["sync.pulled_frac"] = float64(joinerPulled) / float64(joinerRecv)
	l.layer["sync.served_updates"] = float64(d.syncServed) / float64(len(catchups))
	l.layer["proc.heap_retained_bytes_per_op"] = l.info["heap_retained_bytes_per_op"]
	return l, nil
}

// gate is the correctness check every run must pass: the cluster is
// quiescent (the caller waited), a seeded 64-key sample reads the same at
// every node, no node's property checker reported a violation, and every
// node's streaming checker is clean.
func (bc *benchCluster) gate(t nodeTotals) []string {
	var problems []string
	rng := rand.New(rand.NewSource(gen.SplitSeed(bc.seed, 1<<20)))
	var objs []model.ObjectID
	for _, i := range rng.Perm(keys)[:64] {
		objs = append(objs, key(i))
	}
	doers := make([]cluster.Doer, len(bc.nodes))
	for i, nd := range bc.nodes {
		doers[i] = nd
	}
	if err := cluster.CheckConverged(doers, objs); err != nil {
		problems = append(problems, err.Error())
	}
	if t.violations > 0 {
		for _, nd := range bc.nodes {
			for _, v := range nd.Violations() {
				problems = append(problems, v.Error())
			}
		}
	}
	for i, ck := range bc.checks {
		if err := ck.Err(); err != nil {
			problems = append(problems, fmt.Sprintf("r%d livecheck: %v", i, err))
		}
	}
	return problems
}

// doFrontiers reports whether the recorded do events carry visibility
// frontiers (node 0, shard 0's first do event).
func doFrontiers(bc *benchCluster) bool {
	h := bc.nodes[0].History()
	for _, ev := range h.Events {
		if ev.Kind == model.ActDo {
			return ev.Frontier != nil
		}
	}
	return false
}

// histories snapshots every shard's per-node histories.
func (bc *benchCluster) histories() [][]cluster.History {
	out := make([][]cluster.History, bc.w.shards)
	for s := range out {
		for _, nd := range bc.nodes {
			h, err := nd.ShardHistory(s)
			if err == nil {
				out[s] = append(out[s], h)
			}
		}
	}
	return out
}

// visibleDelays returns, for every update sent during [start, end], the
// delay from its send event at the origin until its receive event at the
// last of the other replicas: the time a write takes to become visible
// everywhere.
func visibleDelays(rec *recorder, start, end int64) []int64 {
	type id struct {
		shard  int
		origin model.ReplicaID
		seq    uint64
	}
	sent := make(map[id]int64)
	for _, shards := range rec.nodes {
		for s, l := range shards {
			for _, st := range l.sends {
				if st.at >= start && st.at <= end {
					sent[id{s, st.origin, st.seq}] = st.at
				}
			}
		}
	}
	type seen struct {
		last int64
		n    int
	}
	got := make(map[id]seen, len(sent))
	for _, shards := range rec.nodes {
		for s, l := range shards {
			for _, r := range l.recvs {
				k := id{s, r.origin, r.seq}
				if _, ok := sent[k]; ok {
					g := got[k]
					got[k] = seen{max(g.last, r.at), g.n + 1}
				}
			}
		}
	}
	var out []int64
	for k, at := range sent {
		if g := got[k]; g.n == len(rec.nodes)-1 {
			out = append(out, g.last-at)
		}
	}
	return out
}

// add folds one cluster's spans into the accumulator. A client's self time
// is its Do span minus the spans its node's event loop recorded for that
// operation (store do, read-check digests, journal and livecheck of the do
// and send events), which all fall inside the client's span because the
// client is the only one driving its node.
func (a *layerAcc) add(rec *recorder) {
	for node, shards := range rec.nodes {
		var doPath []span
		for _, l := range shards {
			a.digestCalls += l.digestCalls
			a.digestBytes += l.digestBytes
			a.seesCalls += l.seesCalls
			a.spans += int64(len(l.spans))
			for _, s := range l.spans {
				switch s.kind {
				case spDo:
					a.doNs += s.dur
				case spDigest:
					a.digestNs += s.dur
				case spReceive:
					a.recvNs += s.dur
					a.recvN++
				case spJournal:
					a.journal = append(a.journal, s.dur)
				case spObserve:
					a.observeNs += s.dur
					a.observeN++
				}
				if s.kind != spReceive && s.event != model.ActReceive {
					doPath = append(doPath, s)
				}
			}
		}
		if node >= len(rec.clients) {
			continue
		}
		sort.Slice(doPath, func(i, j int) bool { return doPath[i].start < doPath[j].start })
		k := 0
		for _, c := range rec.clients[node].spans {
			a.spans++
			child := int64(0)
			for k < len(doPath) && doPath[k].start < c.start {
				k++
			}
			for k < len(doPath) && doPath[k].start <= c.start+c.dur {
				child += doPath[k].dur
				k++
			}
			a.clientSelf += c.dur - child
			a.clientOps++
		}
	}
}

// layerMetrics divides the accumulated sums into the per-layer metrics.
// ops is the run's unit of work (client operations, or updates caught up by
// a joiner); writes the client writes among them.
func layerMetrics(a layerAcc, d nodeTotals, pd procSample, ops, writes int64) map[string]float64 {
	per := func(x int64) float64 { return float64(x) / float64(ops) }
	perW := func(x int64) float64 {
		if writes == 0 {
			return 0
		}
		return float64(x) / float64(writes)
	}
	m := map[string]float64{
		"client.self_us_per_op":           0,
		"client.syscalls_per_op":          per(pd.syscalls),
		"client.frames_out_per_op":        per(d.framesOut),
		"store.do_us_per_op":              per(a.doNs) / 1e3,
		"store.digest_us_per_op":          per(a.digestNs) / 1e3,
		"store.digest_calls_per_op":       per(a.digestCalls),
		"store.digest_bytes_per_call":     0,
		"store.sees_calls_per_op":         per(a.seesCalls),
		"store.receive_us_per_update":     0,
		"durable.append_us_per_op":        0,
		"durable.append_p50_us":           pct(a.journal, 0.50) / 1e3,
		"durable.append_p99_us":           pct(a.journal, 0.99) / 1e3,
		"durable.appends_per_op":          per(int64(len(a.journal))),
		"durable.disk_write_bytes_per_op": per(pd.writeBytes),
		"livecheck.observe_us_per_op":     per(a.observeNs) / 1e3,
		"livecheck.events_per_op":         per(a.observeN),
		"repl.sends_per_write":            perW(d.sends),
		"repl.frames_per_write":           perW(d.framesOut - d.ops),
		"repl.retransmits_per_write":      perW(d.retransmits),
		"repl.useful_frac":                0,
		"history.events_per_op":           per(d.events),
		"sync.pulled_updates":             0,
		"sync.reoffered_updates":          0,
		"sync.pulled_frac":                0,
		"sync.served_updates":             0,
		"proc.cpu_us_per_op":              per(pd.cpu.Nanoseconds()) / 1e3,
		"proc.alloc_bytes_per_op":         per(int64(pd.alloc)),
		"proc.mallocs_per_op":             per(int64(pd.mallocs)),
		"trace.spans_per_op":              per(a.spans),
	}
	if a.clientOps > 0 {
		m["client.self_us_per_op"] = float64(a.clientSelf) / float64(a.clientOps) / 1e3
	}
	if a.digestCalls > 0 {
		m["store.digest_bytes_per_call"] = float64(a.digestBytes) / float64(a.digestCalls)
	}
	if a.recvN > 0 {
		m["store.receive_us_per_update"] = float64(a.recvNs) / float64(a.recvN) / 1e3
	}
	var jsum int64
	for _, j := range a.journal {
		jsum += j
	}
	m["durable.append_us_per_op"] = per(jsum) / 1e3
	if useful := d.receives + d.dupFrames + d.gapFrames; useful > 0 {
		m["repl.useful_frac"] = float64(d.receives) / float64(useful)
	}
	return m
}

func procDelta(a, b procSample) procSample {
	return procSample{
		syscalls: b.syscalls - a.syscalls, writeBytes: b.writeBytes - a.writeBytes,
		cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc, mallocs: b.mallocs - a.mallocs,
	}
}

func (a procSample) plus(b procSample) procSample {
	return procSample{
		syscalls: a.syscalls + b.syscalls, writeBytes: a.writeBytes + b.writeBytes,
		cpu: a.cpu + b.cpu, alloc: a.alloc + b.alloc, mallocs: a.mallocs + b.mallocs,
	}
}

// pct is the nearest-rank q-quantile of xs (0 when empty); xs is sorted in
// place.
func pct(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.5) - 1
	i = min(max(i, 0), len(xs)-1)
	return float64(xs[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// removeAll deletes a run's scratch data, reporting failures on stderr.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
