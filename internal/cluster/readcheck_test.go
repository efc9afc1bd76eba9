package cluster

import (
	"testing"
	"time"

	"repro/internal/model"

	_ "repro/internal/store/kbuffer"
)

// TestReadCheckFlagsKBufferOverTCP checks that the invisible-reads check
// still runs on the client read path of a live node. The kbuffer store
// withholds a received update for k local reads, so a client read at a node
// holding such an update changes its state (Definition 16 fails by design),
// and the node must report it.
func TestReadCheckFlagsKBufferOverTCP(t *testing.T) {
	nodes := startCluster(t, "kbuffer", 2)
	if _, err := nodes[0].Do("x", model.Write("a")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for nodes[1].Stats().Receives == 0 {
		if time.Now().After(deadline) {
			t.Fatal("r1 never received r0's write")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := nodes[1].Violations(); len(v) != 0 {
		t.Fatalf("violations before the read: %v", v)
	}

	c, err := Dial(nodes[1].Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do("x", model.Read())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Values) != 0 {
		t.Fatalf("read after one delivery = %s; k=2 should still withhold the write", resp)
	}

	var found bool
	for _, v := range nodes[1].Violations() {
		found = found || (v.Property == "invisible reads" && v.Replica == 1)
	}
	if !found {
		t.Fatalf("r1 reported no invisible-reads violation: %v", nodes[1].Violations())
	}
}
