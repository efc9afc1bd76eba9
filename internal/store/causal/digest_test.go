package causal

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
)

// mixedTypes serves all four object types: MVRs by default, plus one
// register, one ORset and one counter.
func mixedTypes() spec.Types {
	return spec.MVRTypes().
		With("g", spec.TypeRegister).
		With("s", spec.TypeORSet).
		With("c", spec.TypeCounter)
}

// scratchDigest recomputes StateDigest without the incremental cache: the
// object sum is rebuilt from every object's rendering.
func scratchDigest(r *Replica) string {
	var sum [16]byte
	for _, st := range r.objects {
		var b strings.Builder
		st.render(&b)
		h := fnv.New128a()
		h.Write([]byte(b.String()))
		for i, x := range h.Sum(nil) {
			sum[i] ^= x
		}
	}
	b := r.appendHeader(nil)
	b = fmt.Appendf(b, "objects=%d sum=%x\n", len(r.objects), sum)
	return string(r.appendQueues(b))
}

func checkIncremental(t *testing.T, r *Replica, when string) {
	t.Helper()
	if got, want := r.StateDigest(), scratchDigest(r); got != want {
		t.Fatalf("%s: r%d incremental digest\n%s\nwant (from scratch)\n%s", when, r.id, got, want)
	}
}

// randomOp picks an operation valid for obj's type (or, rarely, one its
// type rejects, which still materializes the object).
func randomOp(rng *rand.Rand, types spec.Types, obj model.ObjectID, step int) model.Operation {
	if rng.Intn(3) == 0 {
		return model.Read()
	}
	if rng.Intn(20) == 0 {
		return model.Inc(1) // unsupported except on counters
	}
	v := model.Value(fmt.Sprintf("v%d", rng.Intn(4)))
	switch types.Of(obj) {
	case spec.TypeORSet:
		if rng.Intn(2) == 0 {
			return model.Remove(v)
		}
		return model.Add(v)
	case spec.TypeCounter:
		return model.Inc(int64(rng.Intn(7) - 3))
	default:
		return model.Write(model.Value(fmt.Sprintf("w%d", step)))
	}
}

// TestIncrementalDigestMatchesScratch drives seeded random executions over
// all four object types, with reordered and duplicated deliveries, and
// checks after every event that the incremental digest equals one
// recomputed from scratch and that reads leave it unchanged. At the end,
// after full delivery, replicas that applied concurrent updates in
// different orders must agree on both the digest and the reference
// rendering.
func TestIncrementalDigestMatchesScratch(t *testing.T) {
	types := mixedTypes()
	objects := []model.ObjectID{"m0", "m1", "g", "s", "c"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 3
		st := New(types)
		rs := make([]*Replica, n)
		for i := range rs {
			rs[i] = st.NewReplica(model.ReplicaID(i), n).(*Replica)
		}
		// inflight[i] holds payloads sent but not yet (or only once)
		// delivered to replica i.
		inflight := make([][][]byte, n)
		send := func(i int) {
			p := rs[i].PendingMessage()
			if p == nil {
				return
			}
			rs[i].OnSend()
			for j := range rs {
				if j != i {
					inflight[j] = append(inflight[j], append([]byte(nil), p...))
				}
			}
		}
		for step := 0; step < 300; step++ {
			i := rng.Intn(n)
			r := rs[i]
			var when string
			switch k := rng.Intn(4); {
			case k == 0:
				send(i)
				when = "send"
			case k == 1 && len(inflight[i]) > 0:
				q := rng.Intn(len(inflight[i]))
				r.Receive(inflight[i][q])
				if rng.Intn(4) != 0 { // else keep it for a duplicate delivery
					inflight[i] = append(inflight[i][:q], inflight[i][q+1:]...)
				}
				when = "receive"
			default:
				obj := objects[rng.Intn(len(objects))]
				op := randomOp(rng, types, obj, step)
				before := r.StateDigest()
				r.Do(obj, op)
				if op.Kind == model.OpRead && r.StateDigest() != before {
					t.Fatalf("seed %d step %d: read of %s changed the digest", seed, step, obj)
				}
				when = "do " + string(obj)
			}
			checkIncremental(t, r, fmt.Sprintf("seed %d step %d %s", seed, step, when))
		}
		for i := range rs {
			send(i)
		}
		for i, r := range rs {
			for _, p := range inflight[i] {
				r.Receive(p)
			}
			checkIncremental(t, r, fmt.Sprintf("seed %d final delivery", seed))
		}
		for _, r := range rs[1:] {
			if r.StateDigest() != rs[0].StateDigest() || r.Render() != rs[0].Render() {
				t.Fatalf("seed %d: r%d and r0 did not converge to one digest:\n%s\nvs\n%s",
					seed, r.id, r.Render(), rs[0].Render())
			}
		}
	}
}

// TestRenderFormat pins the reference rendering byte for byte, including a
// buffered update waiting on its causal past.
func TestRenderFormat(t *testing.T) {
	types := mixedTypes()
	src := New(types).NewReplica(0, 3).(*Replica)
	src.Do("m0", model.Write("a"))
	first := src.PendingMessage()
	src.OnSend()
	src.Do("s", model.Add("b"))
	src.Do("c", model.Inc(-2))
	second := src.PendingMessage()
	src.OnSend()
	r := New(types).NewReplica(2, 3).(*Replica)
	r.Do("g", model.Write("z"))
	r.Receive(second) // buffered until first arrives
	want := "clock=[0 0 1] lamport=1\n" +
		"obj g (register): z ts=1 origin=2 set=true\n" +
		"buffer=[(r0,2) (r0,3)]\noutbox=[(r2,1)]\n"
	if got := r.Render(); got != want {
		t.Fatalf("Render =\n%s\nwant\n%s", got, want)
	}
	r.Receive(first)
	want = "clock=[3 0 1] lamport=3\n" +
		"obj c (counter): -2\n" +
		"obj g (register): z ts=1 origin=2 set=true\n" +
		"obj m0 (mvr): [a@(r0,1)[0 0 0]]\n" +
		"obj s (orset): [b:[(r0,2)]]\n" +
		"buffer=[]\noutbox=[(r2,1)]\n"
	if got := r.Render(); got != want {
		t.Fatalf("Render =\n%s\nwant\n%s", got, want)
	}
	checkIncremental(t, r, "after delivery")
}

// TestCheckerFlagsMaterializingRead is a mutant read that creates the
// object's entry, the visible-read bug Do avoids: the checker must flag it
// through the incremental digest.
func TestCheckerFlagsMaterializingRead(t *testing.T) {
	r := New(mixedTypes()).NewReplica(0, 2).(*Replica)
	r.Do("m0", model.Write("a"))
	r.OnSend()
	c := store.NewPropertyChecker(r)
	c.CheckDo("fresh", model.Read(), func() model.Response {
		r.object("fresh")
		return r.Do("fresh", model.Read())
	})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "invisible reads") {
		t.Fatalf("materializing read not flagged: %v", err)
	}
}

// TestReadCheckCostIndependentOfObjects builds two replicas with the same
// clock and Lamport time, one holding 1k objects and the other 100k, and
// checks that the digest and a checked read cost the same on both.
func TestReadCheckCostIndependentOfObjects(t *testing.T) {
	const writes = 100_000
	build := func(objects int) *Replica {
		r := New(spec.MVRTypes()).NewReplica(0, 2).(*Replica)
		for i := 0; i < writes; i++ {
			r.Do(model.ObjectID(fmt.Sprintf("k%06d", i%objects)), model.Write("v"))
		}
		r.OnSend()
		r.StateDigest() // hash the initial objects outside the measurement
		return r
	}
	small, big := build(1_000), build(100_000)
	ds, db := small.StateDigest(), big.StateDigest()
	// The digests differ in length only by the object count's digits.
	if len(db)-len(ds) != len("100000")-len("1000") {
		t.Fatalf("digest length grows with objects:\n%q\n%q", ds, db)
	}
	if len(db) > 256 {
		t.Fatalf("digest is %d bytes: %q", len(db), db)
	}
	allocs := func(r *Replica) float64 {
		c := store.NewPropertyChecker(r)
		read := func() model.Response { return r.Do("k000007", model.Read()) }
		a := testing.AllocsPerRun(50, func() { c.CheckDo("k000007", model.Read(), read) })
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	if as, ab := allocs(small), allocs(big); as != ab {
		t.Fatalf("checked read allocates %v at 1k objects, %v at 100k", as, ab)
	}
}
