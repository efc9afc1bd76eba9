package main

import (
	"fmt"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/model"
)

// workload is one traffic mix the benchmark drives through the cluster.
// Every workload uses the same key space, written once during setup, so
// replica state size stays flat while the timed phase runs.
type workload struct {
	name string
	// nodes is the cluster population; clients drive nodes 0..clients-1,
	// one closed-loop client per node.
	nodes   int
	shards  int
	durable bool
	// readFrac is the share of client operations that are reads.
	readFrac float64
	// join makes the timed phase a Merkle catch-up: two linked nodes are
	// preloaded with joinPreload writes, then node 2 joins through node 0
	// with no client load.
	join bool
}

const (
	// clients is the closed loop's size: one synchronous client per node
	// (nproc of the reference box), each with one connection.
	clients = 2
	// keys is the key space every workload writes once during setup.
	keys = 1000
	// joinPreload is how many writes join-catchup preloads before the join.
	joinPreload = 20000
)

var workloads = []workload{
	{name: "read-heavy", nodes: 3, shards: 1, readFrac: 0.9},
	{name: "write-heavy", nodes: 3, shards: 1},
	{name: "write-durable", nodes: 3, shards: 2, durable: true},
	{name: "join-catchup", nodes: 3, shards: 1, join: true},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// key names the i-th object of the key space.
func key(i int) model.ObjectID { return model.ObjectID(fmt.Sprintf("k%06d", i)) }

// opStream is one client's seeded operation sequence: uniform keys, reads
// with probability readFrac, and writes of values unique to the client.
// The same (seed, client) always yields the same sequence; how much of it a
// run consumes depends on how fast the cluster answers.
type opStream struct {
	rng      *rand.Rand
	client   int
	keys     int
	readFrac float64
	n        int
}

func newOpStream(seed int64, client, keys int, readFrac float64) *opStream {
	return &opStream{rng: rand.New(rand.NewSource(gen.SplitSeed(seed, client))), client: client, keys: keys, readFrac: readFrac}
}

func (s *opStream) next() (model.ObjectID, model.Operation) {
	obj := key(s.rng.Intn(s.keys))
	// Draw the coin even when readFrac is 0 so the key sequence does not
	// depend on the mix.
	if s.rng.Float64() < s.readFrac {
		return obj, model.Read()
	}
	s.n++
	return obj, model.Write(model.Value(fmt.Sprintf("c%d.%d", s.client, s.n)))
}

// preloadOps returns the setup writes for client c of clients: every key
// of the key space exactly once (client c takes keys c, c+clients, ...),
// then total writes overall when total exceeds the key space.
func preloadOps(c, clients, keySpace, total int) []model.ObjectID {
	var objs []model.ObjectID
	for i := c; i < total; i += clients {
		objs = append(objs, key(i%keySpace))
	}
	return objs
}
