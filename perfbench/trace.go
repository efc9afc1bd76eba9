package main

import (
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/livecheck"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spClient  spanKind = iota // cluster.Client.Do round trip
	spDo                      // store Replica.Do
	spDigest                  // store Replica.StateDigest (the read check)
	spReceive                 // store Replica.Receive
	spJournal                 // durable journal append, group-commit fsync included
	spObserve                 // livecheck observe of one tapped event
)

var spanNames = [...]string{"client", "store.do", "store.digest", "store.receive", "durable.append", "livecheck.observe"}

// span is one timed call into a layer. Start is nanoseconds since the
// recorder's base. Link ties the span to its cause: the client op index for
// client spans, (origin<<40 | seq) for spans of send and receive events.
type span struct {
	kind  spanKind
	event model.Action
	start int64
	dur   int64
	link  int64
}

// stamp is a tapped send or receive, kept for update visibility latency.
type stamp struct {
	origin model.ReplicaID
	seq    uint64
	at     int64
}

// lane holds what one goroutine records: a shard's event loop (node,
// shard) or one client. Each lane has a single writer, so recording takes
// no lock; lanes are read only after the cluster has shut down.
type lane struct {
	spans       []span
	sends       []stamp
	recvs       []stamp
	digestCalls int64
	digestBytes int64
	seesCalls   int64
}

func (l *lane) add(s span) { l.spans = append(l.spans, s) }

// recorder owns every lane of one benchmarked cluster. Timestamps (tapped
// sends and receives) are always recorded, because update visibility is an
// end-to-end metric; spans only when traced, and only while on is set.
type recorder struct {
	base    time.Time
	traced  bool
	on      atomic.Bool
	nodes   [][]*lane // [node][shard]
	clients []*lane
}

func newRecorder(nodes, shards int, traced bool) *recorder {
	r := &recorder{base: time.Now(), traced: traced}
	r.nodes = make([][]*lane, nodes)
	for i := range r.nodes {
		r.nodes[i] = make([]*lane, shards)
		for s := range r.nodes[i] {
			r.nodes[i][s] = &lane{}
		}
	}
	r.clients = make([]*lane, clients)
	for i := range r.clients {
		r.clients[i] = &lane{}
	}
	return r
}

// footprint is the heap the recorder's own buffers hold, which the
// retained-heap metric subtracts so it measures the cluster alone.
func (r *recorder) footprint() int64 {
	var n int64
	for _, l := range append(r.clients, r.flat()...) {
		n += int64(cap(l.spans))*int64(unsafe.Sizeof(span{})) + int64(cap(l.sends)+cap(l.recvs))*int64(unsafe.Sizeof(stamp{}))
	}
	return n
}

func (r *recorder) flat() []*lane {
	var out []*lane
	for _, shards := range r.nodes {
		out = append(out, shards...)
	}
	return out
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// spanning reports whether spans are being recorded right now.
func (r *recorder) spanning() bool { return r.traced && r.on.Load() }

func link(origin model.ReplicaID, seq uint64) int64 { return int64(origin)<<40 | int64(seq) }

// tap is the benchmark-owned Config.Tap of one node: it stamps sends and
// receives for visibility latency and tees every event into the node's
// livecheck observer, timing the observe call when traced.
func (r *recorder) tap(ck *livecheck.ShardSet) func(int, livecheck.Event) {
	return func(shard int, ev livecheck.Event) {
		l := r.nodes[ev.Node][shard]
		at := r.now()
		switch ev.Kind {
		case model.ActSend:
			l.sends = append(l.sends, stamp{ev.Origin, ev.Seq, at})
		case model.ActReceive:
			l.recvs = append(l.recvs, stamp{ev.Origin, ev.Seq, at})
		}
		ck.Observe(shard, ev)
		if r.spanning() {
			l.add(span{kind: spObserve, event: ev.Kind, start: at, dur: r.now() - at, link: link(ev.Origin, ev.Seq)})
		}
	}
}

// newChecker builds the node-local streaming checker cmd/served runs: one
// per shard, observing only the node's own stream.
func newChecker(id model.ReplicaID, n, shards int) *livecheck.ShardSet {
	return livecheck.NewShardSet(n, shards, livecheck.Options{
		Observed: []model.ReplicaID{id},
		Types:    spec.MVRTypes(),
	})
}

// tracedStore wraps a store so every replica it builds records spans into
// its shard's lane. The node's shards call NewReplica in shard order, which
// is how a replica learns its shard index.
type tracedStore struct {
	inner  store.Store
	rec    *recorder
	shards int
	built  int
}

// tracedCodecStore is tracedStore for stores that declare a wire codec.
type tracedCodecStore struct{ *tracedStore }

func (s tracedCodecStore) WireCodec() string { return s.inner.(store.PayloadCodec).WireCodec() }

// traceStore wraps st for the traced run, keeping the store's optional
// traits visible to the cluster.
func traceStore(st store.Store, rec *recorder, shards int) store.Store {
	ts := &tracedStore{inner: st, rec: rec, shards: shards}
	if _, ok := st.(store.PayloadCodec); ok {
		return tracedCodecStore{ts}
	}
	return ts
}

func (s *tracedStore) Name() string      { return s.inner.Name() }
func (s *tracedStore) Types() spec.Types { return s.inner.Types() }
func (s *tracedStore) NewReplica(id model.ReplicaID, n int) store.Replica {
	shard := s.built % s.shards
	s.built++
	r := &tracedReplica{inner: s.inner.NewReplica(id, n), rec: s.rec, lane: s.rec.nodes[id][shard]}
	_, vis := r.inner.(store.VisReporter)
	_, dot := r.inner.(store.DotReporter)
	switch {
	case vis && dot:
		return visDotReplica{r}
	case vis:
		return visReplica{r}
	case dot:
		return dotReplica{r}
	}
	return r
}

// tracedReplica times the replica calls the node's event loop makes.
type tracedReplica struct {
	inner store.Replica
	rec   *recorder
	lane  *lane
}

func (r *tracedReplica) ID() model.ReplicaID    { return r.inner.ID() }
func (r *tracedReplica) PendingMessage() []byte { return r.inner.PendingMessage() }
func (r *tracedReplica) OnSend()                { r.inner.OnSend() }

func (r *tracedReplica) Do(obj model.ObjectID, op model.Operation) model.Response {
	if !r.rec.spanning() {
		return r.inner.Do(obj, op)
	}
	t := r.rec.now()
	resp := r.inner.Do(obj, op)
	r.lane.add(span{kind: spDo, event: model.ActDo, start: t, dur: r.rec.now() - t})
	return resp
}

func (r *tracedReplica) Receive(payload []byte) {
	if !r.rec.spanning() {
		r.inner.Receive(payload)
		return
	}
	t := r.rec.now()
	r.inner.Receive(payload)
	r.lane.add(span{kind: spReceive, event: model.ActReceive, start: t, dur: r.rec.now() - t})
}

func (r *tracedReplica) StateDigest() string {
	if !r.rec.spanning() {
		return r.inner.StateDigest()
	}
	t := r.rec.now()
	d := r.inner.StateDigest()
	r.lane.add(span{kind: spDigest, event: model.ActDo, start: t, dur: r.rec.now() - t})
	r.lane.digestCalls++
	r.lane.digestBytes += int64(len(d))
	return d
}

func (r *tracedReplica) sees(d model.Dot) bool {
	if r.rec.spanning() {
		r.lane.seesCalls++
	}
	return r.inner.(store.VisReporter).Sees(d)
}

func (r *tracedReplica) lastDot() (model.Dot, bool) { return r.inner.(store.DotReporter).LastDot() }

type visReplica struct{ *tracedReplica }

func (r visReplica) Sees(d model.Dot) bool { return r.sees(d) }

type dotReplica struct{ *tracedReplica }

func (r dotReplica) LastDot() (model.Dot, bool) { return r.lastDot() }

type visDotReplica struct{ *tracedReplica }

func (r visDotReplica) Sees(d model.Dot) bool      { return r.sees(d) }
func (r visDotReplica) LastDot() (model.Dot, bool) { return r.lastDot() }

// tracedStorage wraps a cluster.NodeStorage so each journal append — the
// WAL write plus its (group-commit) fsync — records a span.
type tracedStorage struct {
	inner cluster.NodeStorage
	rec   *recorder
}

func (s tracedStorage) Open(id model.ReplicaID, n int, storeName string, shard, shards int) (func(cluster.Event) error, *cluster.History, *membership.Forest, func() error, error) {
	journal, hist, tree, closeLog, err := s.inner.Open(id, n, storeName, shard, shards)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	l := s.rec.nodes[id][shard]
	traced := func(ev cluster.Event) error {
		if !s.rec.spanning() {
			return journal(ev)
		}
		t := s.rec.now()
		err := journal(ev)
		l.add(span{kind: spJournal, event: ev.Kind, start: t, dur: s.rec.now() - t, link: link(ev.Origin, ev.Seq)})
		return err
	}
	return traced, hist, tree, closeLog, nil
}
