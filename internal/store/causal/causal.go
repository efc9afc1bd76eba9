// Package causal implements the repository's flagship data store: a
// causally consistent and eventually consistent replicated store in the
// style of Ahamad et al.'s causal memory and of the practical systems the
// paper cites (Dynamo-style MVRs, COPS-style causal propagation).
//
// The store is write-propagating in the paper's sense: reads are invisible
// (Definition 16 — a read never changes replica state) and messages are
// op-driven (Definition 15 — only client mutators create pending messages;
// receives never do). It supports all four object types of internal/spec:
// multi-valued registers, last-writer-wins registers, observed-remove sets,
// and PN-counters.
//
// Mechanics: every mutator mints a dot (origin, seq) and records its causal
// dependencies as the replica's vector clock at invocation time. Local
// updates apply immediately (high availability) and accumulate in an outbox;
// the pending message relays the whole outbox. Remote updates are buffered
// until causally ready — all their dependencies applied — which yields
// causal consistency; eventual delivery of messages then yields eventual
// consistency. Concurrent MVR writes survive side by side as versions whose
// dependency clocks are incomparable, exactly the concurrency the MVR
// specification exposes.
package causal

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"sort"
	"strconv"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Options tune representation choices called out for ablation in DESIGN.md.
type Options struct {
	// SparseDeps encodes dependency clocks sparsely (index/value pairs for
	// non-zero entries) instead of densely.
	SparseDeps bool
	// PerUpdateMessages caps each broadcast at a single update instead of
	// relaying the entire outbox, trading message count for size.
	PerUpdateMessages bool
}

// Store is the causal data store factory.
type Store struct {
	types spec.Types
	opts  Options
}

var _ store.Store = (*Store)(nil)

// New returns a causal store serving the given object types.
func New(types spec.Types) *Store { return &Store{types: types} }

// NewWithOptions returns a causal store with ablation options.
func NewWithOptions(types spec.Types, opts Options) *Store {
	return &Store{types: types, opts: opts}
}

// Name implements store.Store.
func (s *Store) Name() string {
	name := "causal"
	if s.opts.SparseDeps {
		name += "+sparse"
	}
	if s.opts.PerUpdateMessages {
		name += "+perupdate"
	}
	return name
}

// Types implements store.Store.
func (s *Store) Types() spec.Types { return s.types }

// WireCodec implements store.PayloadCodec: payloads are the varint update
// batches encodePayload produces, safe for binary wire framing.
func (s *Store) WireCodec() string { return "binary" }

// NewReplica implements store.Store.
func (s *Store) NewReplica(id model.ReplicaID, n int) store.Replica {
	return &Replica{
		id:      id,
		n:       n,
		types:   s.types,
		opts:    s.opts,
		clock:   vclock.New(n),
		objects: make(map[model.ObjectID]*objState),
		hasher:  fnv.New128a(),
	}
}

// update is one replicated mutator: the unit of propagation.
type update struct {
	Dot     model.Dot
	Lamport uint64
	Obj     model.ObjectID
	Kind    model.OpKind
	Value   model.Value
	Delta   int64
	// Deps is the originating replica's clock when the update was invoked:
	// its causal dependencies. Deps[origin] == Dot.Seq-1 by construction.
	Deps vclock.VC
	// Removed lists the add-dots an ORset remove observed.
	Removed []model.Dot
}

// version is one surviving MVR write.
type version struct {
	Value model.Value
	Dot   model.Dot
	Deps  vclock.VC
}

// objState holds per-object replica state for whichever type the object has.
type objState struct {
	id  model.ObjectID
	typ spec.ObjectType

	// hash is this object's current term in Replica.sum: the 128-bit
	// FNV-1a hash of its rendering, as of the last digest. stale marks an
	// object created or changed since then, queued in Replica.stale.
	hash  [16]byte
	stale bool

	versions []version // MVR

	regValue  model.Value // register (LWW)
	regTS     uint64
	regOrigin model.ReplicaID
	regSet    bool

	adds map[model.Value]map[model.Dot]bool // ORset: live add-dots per value

	total int64 // counter
}

// Replica is one causal store replica.
type Replica struct {
	id      model.ReplicaID
	n       int
	types   spec.Types
	opts    Options
	clock   vclock.VC
	lamport uint64
	objects map[model.ObjectID]*objState
	buffer  []update // remote updates awaiting causal readiness
	outbox  []update // local updates not yet broadcast

	// sum is the XOR of every object's hash: StateDigest's fingerprint of
	// the object map, brought up to date by rehashing only the stale
	// objects. object() and apply() — the only writers of object state —
	// queue what they touch; reads queue nothing.
	sum    [16]byte
	stale  []*objState
	hasher hash.Hash

	// applyLog records the local application order of updates:
	// observational metadata (not part of the state digest) used by the
	// total-order comparison experiments — write-propagating replicas apply
	// concurrent updates in different orders, unlike a sequencer protocol.
	applyLog []model.Dot
}

var (
	_ store.Replica     = (*Replica)(nil)
	_ store.VisReporter = (*Replica)(nil)
	_ store.DotReporter = (*Replica)(nil)
)

// ID implements store.Replica.
func (r *Replica) ID() model.ReplicaID { return r.id }

// Clock returns a copy of the replica's vector clock (its visible causal
// past).
func (r *Replica) Clock() vclock.VC { return r.clock.Clone() }

// Sees implements store.VisReporter: an update is visible once applied,
// i.e. once the clock covers its dot.
func (r *Replica) Sees(d model.Dot) bool { return r.clock.Sees(d) }

// LastDot implements store.DotReporter.
func (r *Replica) LastDot() (model.Dot, bool) {
	seq := r.clock.Get(r.id)
	if seq == 0 {
		return model.Dot{}, false
	}
	return model.Dot{Origin: r.id, Seq: seq}, true
}

func (r *Replica) object(id model.ObjectID) *objState {
	st, ok := r.objects[id]
	if !ok {
		st = &objState{id: id, typ: r.types.Of(id)}
		if st.typ == spec.TypeORSet {
			st.adds = make(map[model.Value]map[model.Dot]bool)
		}
		r.objects[id] = st
		r.markStale(st)
	}
	return st
}

// markStale queues st for rehashing at the next StateDigest.
func (r *Replica) markStale(st *objState) {
	if !st.stale {
		st.stale = true
		r.stale = append(r.stale, st)
	}
}

// Do implements store.Replica: reads evaluate local state without modifying
// it; mutators mint an update, apply it locally, and enqueue it for
// broadcast.
func (r *Replica) Do(obj model.ObjectID, op model.Operation) model.Response {
	if op.Kind == model.OpRead {
		// Reads must not materialize object state: lazily creating the
		// entry would make reads visible (Definition 16).
		if st, ok := r.objects[obj]; ok {
			return r.read(st)
		}
		return r.read(&objState{typ: r.types.Of(obj)})
	}
	st := r.object(obj)
	if !spec.ForType(st.typ).Allows(op.Kind) {
		return model.Response{} // unsupported operation: empty response
	}
	u := update{
		Obj:   obj,
		Kind:  op.Kind,
		Value: op.Arg,
		Delta: op.Delta,
		Deps:  r.clock.Clone(),
	}
	if op.Kind == model.OpRemove {
		for dot := range st.adds[op.Arg] {
			u.Removed = append(u.Removed, dot)
		}
		sortDots(u.Removed)
	}
	r.lamport++
	u.Lamport = r.lamport
	u.Dot = model.Dot{Origin: r.id, Seq: r.clock.Get(r.id) + 1}
	r.apply(u)
	r.outbox = append(r.outbox, u)
	return model.OKResponse()
}

func (r *Replica) read(st *objState) model.Response {
	switch st.typ {
	case spec.TypeMVR:
		values := make([]model.Value, 0, len(st.versions))
		for _, v := range st.versions {
			values = append(values, v.Value)
		}
		return model.ReadResponse(values)
	case spec.TypeRegister:
		if !st.regSet {
			return model.ReadResponse(nil)
		}
		return model.ReadResponse([]model.Value{st.regValue})
	case spec.TypeORSet:
		var values []model.Value
		for v, dots := range st.adds {
			if len(dots) > 0 {
				values = append(values, v)
			}
		}
		return model.ReadResponse(values)
	case spec.TypeCounter:
		return model.CountResponse(st.total)
	default:
		return model.Response{}
	}
}

// apply integrates a causally ready update into object state and advances
// the clock past its dot.
func (r *Replica) apply(u update) {
	if u.Lamport > r.lamport {
		r.lamport = u.Lamport
	}
	r.applyLog = append(r.applyLog, u.Dot)
	r.clock.Set(u.Dot.Origin, u.Dot.Seq)
	st := r.object(u.Obj)
	r.markStale(st)
	switch u.Kind {
	case model.OpWrite:
		switch st.typ {
		case spec.TypeMVR:
			// Keep only versions not in u's causal past; u itself cannot be
			// dominated by a surviving version because updates apply in
			// causal order.
			kept := st.versions[:0]
			for _, v := range st.versions {
				if !u.Deps.Sees(v.Dot) {
					kept = append(kept, v)
				}
			}
			st.versions = append(kept, version{Value: u.Value, Dot: u.Dot, Deps: u.Deps})
		case spec.TypeRegister:
			if !st.regSet || u.Lamport > st.regTS ||
				(u.Lamport == st.regTS && u.Dot.Origin > st.regOrigin) {
				st.regValue, st.regTS, st.regOrigin, st.regSet = u.Value, u.Lamport, u.Dot.Origin, true
			}
		}
	case model.OpAdd:
		dots := st.adds[u.Value]
		if dots == nil {
			dots = make(map[model.Dot]bool)
			st.adds[u.Value] = dots
		}
		dots[u.Dot] = true
	case model.OpRemove:
		dots := st.adds[u.Value]
		for _, d := range u.Removed {
			delete(dots, d)
		}
		if len(dots) == 0 {
			delete(st.adds, u.Value)
		}
	case model.OpInc:
		st.total += u.Delta
	}
}

// ready reports whether the update's full causal past is applied.
func (r *Replica) ready(u update) bool {
	return u.Dot.Seq == r.clock.Get(u.Dot.Origin)+1 && u.Deps.LessEq(r.clock)
}

// Receive implements store.Replica: decode, deduplicate, buffer, and drain
// everything that became causally ready.
func (r *Replica) Receive(payload []byte) {
	updates, err := decodePayload(payload, r.n, r.opts.SparseDeps)
	if err != nil {
		// A corrupt payload is ignored: well-formed executions never produce
		// one, and dropping it is indistinguishable from a message drop.
		return
	}
	for _, u := range updates {
		if u.Kind == model.OpRead || !spec.ForType(r.types.Of(u.Obj)).Allows(u.Kind) {
			return // Do never mints such an update: the payload is corrupt
		}
	}
	for _, u := range updates {
		if r.clock.Sees(u.Dot) || r.buffered(u.Dot) {
			continue // duplicate delivery
		}
		r.buffer = append(r.buffer, u)
	}
	r.drain()
}

func (r *Replica) buffered(d model.Dot) bool {
	for _, u := range r.buffer {
		if u.Dot == d {
			return true
		}
	}
	return false
}

// drain applies buffered updates until no more are causally ready.
func (r *Replica) drain() {
	for {
		applied := false
		kept := r.buffer[:0]
		for _, u := range r.buffer {
			if r.ready(u) {
				r.apply(u)
				applied = true
			} else {
				kept = append(kept, u)
			}
		}
		r.buffer = kept
		if !applied {
			return
		}
	}
}

// PendingMessage implements store.Replica: the outbox encoding, or nil.
func (r *Replica) PendingMessage() []byte {
	if len(r.outbox) == 0 {
		return nil
	}
	batch := r.outbox
	if r.opts.PerUpdateMessages {
		batch = r.outbox[:1]
	}
	return encodePayload(batch, r.opts.SparseDeps)
}

// OnSend implements store.Replica.
func (r *Replica) OnSend() {
	if r.opts.PerUpdateMessages && len(r.outbox) > 1 {
		r.outbox = r.outbox[1:]
		return
	}
	r.outbox = nil
}

// StateDigest implements store.Replica with a fingerprint of the full state
// σ whose cost is independent of the number of objects: the clock and
// Lamport header, the object count, the XOR of every object's rendering
// hash, and the buffered and outbox dots. Only objects changed since the
// previous digest are rehashed. Equal states give equal digests regardless
// of the order in which their updates were applied, since each object's
// rendering is canonical and XOR is order-independent. Render is the
// human-readable reference the digest is checked against.
func (r *Replica) StateDigest() string {
	r.refreshSum()
	b := r.appendHeader(make([]byte, 0, 128))
	b = append(b, "objects="...)
	b = strconv.AppendInt(b, int64(len(r.objects)), 10)
	b = append(b, " sum="...)
	b = hex.AppendEncode(b, r.sum[:])
	b = append(b, '\n')
	return string(r.appendQueues(b))
}

// Render returns a deterministic rendering of the full state σ, one line
// per object in ID order: the reference StateDigest fingerprints.
func (r *Replica) Render() string {
	b := bytes.NewBuffer(r.appendHeader(nil))
	objIDs := make([]string, 0, len(r.objects))
	for id := range r.objects {
		objIDs = append(objIDs, string(id))
	}
	sort.Strings(objIDs)
	for _, id := range objIDs {
		r.objects[model.ObjectID(id)].render(b)
	}
	b.Write(r.appendQueues(nil))
	return b.String()
}

// appendHeader appends the "clock=[1 0 3] lamport=5" line that opens both
// StateDigest and Render.
func (r *Replica) appendHeader(b []byte) []byte {
	b = append(b, "clock=["...)
	for i, x := range r.clock {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, x, 10)
	}
	b = append(b, "] lamport="...)
	b = strconv.AppendUint(b, r.lamport, 10)
	return append(b, '\n')
}

// appendQueues appends the buffered and outbox dots that close both
// StateDigest and Render.
func (r *Replica) appendQueues(b []byte) []byte {
	b = appendDots(append(b, "buffer="...), r.buffer)
	b = appendDots(append(b, "\noutbox="...), r.outbox)
	return append(b, '\n')
}

// appendDots appends the updates' dots as fmt renders a []model.Dot:
// "[(r0,1) (r2,4)]".
func appendDots(b []byte, us []update) []byte {
	b = append(b, '[')
	for i, u := range us {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, "(r"...)
		b = strconv.AppendInt(b, int64(u.Dot.Origin), 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, u.Dot.Seq, 10)
		b = append(b, ')')
	}
	return append(b, ']')
}

// refreshSum rehashes the stale objects, swapping each one's old term in
// r.sum for its new one.
func (r *Replica) refreshSum() {
	for _, st := range r.stale {
		r.hasher.Reset()
		st.render(r.hasher)
		old := st.hash
		r.hasher.Sum(st.hash[:0]) // in place: st.hash has room
		for i := range r.sum {
			r.sum[i] ^= old[i] ^ st.hash[i]
		}
		st.stale = false
	}
	r.stale = r.stale[:0]
}

// render writes the object's canonical one-line rendering: its ID, type,
// and type-specific state with every set sorted.
func (st *objState) render(w io.Writer) {
	fmt.Fprintf(w, "obj %s (%s):", st.id, st.typ)
	switch st.typ {
	case spec.TypeMVR:
		vs := make([]string, 0, len(st.versions))
		for _, v := range st.versions {
			vs = append(vs, fmt.Sprintf("%s@%s%s", v.Value, v.Dot, v.Deps))
		}
		sort.Strings(vs)
		fmt.Fprintf(w, " %v", vs)
	case spec.TypeRegister:
		fmt.Fprintf(w, " %s ts=%d origin=%d set=%v", st.regValue, st.regTS, st.regOrigin, st.regSet)
	case spec.TypeORSet:
		vals := make([]string, 0, len(st.adds))
		for v, dots := range st.adds {
			ds := make([]model.Dot, 0, len(dots))
			for d := range dots {
				ds = append(ds, d)
			}
			sortDots(ds)
			vals = append(vals, fmt.Sprintf("%s:%v", v, ds))
		}
		sort.Strings(vals)
		fmt.Fprintf(w, " %v", vals)
	case spec.TypeCounter:
		fmt.Fprintf(w, " %d", st.total)
	}
	io.WriteString(w, "\n")
}

// BufferedUpdates returns the number of remote updates awaiting causal
// readiness (exposed for tests and diagnostics).
func (r *Replica) BufferedUpdates() int { return len(r.buffer) }

// ApplyOrder returns the order in which this replica applied updates.
// Concurrent updates generally apply in different orders at different
// replicas — the contrast with gsp.Replica.Log in the open-question
// experiment.
func (r *Replica) ApplyOrder() []model.Dot {
	out := make([]model.Dot, len(r.applyLog))
	copy(out, r.applyLog)
	return out
}

func sortDots(ds []model.Dot) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Origin != ds[j].Origin {
			return ds[i].Origin < ds[j].Origin
		}
		return ds[i].Seq < ds[j].Seq
	})
}

// encodePayload serializes a batch of updates.
func encodePayload(batch []update, sparse bool) []byte {
	w := wire.NewWriter()
	w.Uvarint(uint64(len(batch)))
	for _, u := range batch {
		w.Dot(u.Dot)
		w.Uvarint(u.Lamport)
		w.String(string(u.Obj))
		w.Uvarint(uint64(u.Kind))
		w.String(string(u.Value))
		w.Varint(u.Delta)
		if sparse {
			w.SparseVC(u.Deps)
		} else {
			w.VC(u.Deps)
		}
		w.Uvarint(uint64(len(u.Removed)))
		for _, d := range u.Removed {
			w.Dot(d)
		}
	}
	return w.Bytes()
}

// decodePayload parses a batch of updates.
func decodePayload(payload []byte, n int, sparse bool) ([]update, error) {
	rd := wire.NewReader(payload)
	count := rd.Uvarint()
	if count > uint64(len(payload)) {
		return nil, fmt.Errorf("causal: implausible update count %d", count)
	}
	updates := make([]update, 0, count)
	for i := uint64(0); i < count; i++ {
		var u update
		u.Dot = rd.Dot()
		u.Lamport = rd.Uvarint()
		u.Obj = model.ObjectID(rd.String())
		u.Kind = model.OpKind(rd.Uvarint())
		u.Value = model.Value(rd.String())
		u.Delta = rd.Varint()
		if sparse {
			u.Deps = rd.SparseVC(n)
		} else {
			u.Deps = rd.VC()
		}
		removed := rd.Uvarint()
		if removed > uint64(len(payload)) {
			return nil, fmt.Errorf("causal: implausible removed-dot count %d", removed)
		}
		for j := uint64(0); j < removed; j++ {
			u.Removed = append(u.Removed, rd.Dot())
		}
		if err := rd.Err(); err != nil {
			return nil, err
		}
		updates = append(updates, u)
	}
	return updates, nil
}
