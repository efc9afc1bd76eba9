package causal

import (
	"testing"

	"repro/internal/model"
)

// FuzzReceive feeds arbitrary bytes to a replica: Receive must never panic,
// the incremental digest must match one recomputed from scratch, and a read
// must leave it unchanged.
func FuzzReceive(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// Genuine payloads as seeds: one per object type, and one batch
	// touching all four.
	src := New(mixedTypes()).NewReplica(0, 2)
	for _, do := range []struct {
		obj model.ObjectID
		op  model.Operation
	}{
		{"m0", model.Write("a")},
		{"g", model.Write("b")},
		{"s", model.Add("c")},
		{"s", model.Remove("c")},
		{"c", model.Inc(-4)},
	} {
		src.Do(do.obj, do.op)
		f.Add(src.PendingMessage())
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		r := New(mixedTypes()).NewReplica(1, 2).(*Replica)
		r.Receive(payload)
		checkIncremental(t, r, "receive")
		for _, obj := range []model.ObjectID{"m0", "g", "s", "c"} {
			before := r.StateDigest()
			_ = r.Do(obj, model.Read())
			if r.StateDigest() != before {
				t.Fatalf("read of %s changed the digest", obj)
			}
		}
	})
}
