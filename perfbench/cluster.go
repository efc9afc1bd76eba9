package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/livecheck"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/store"
)

// quiesceTimeout bounds every wait for the cluster to drain.
const quiesceTimeout = 60 * time.Second

// benchCluster is one in-process cluster configured the way cmd/served
// configures its nodes: the named store, one livecheck.ShardSet tap per
// node observing itself, default timers, codec and compression, and
// durable.Storage when the workload journals.
type benchCluster struct {
	w       workload
	storeNm string
	seed    int64
	dir     string
	rec     *recorder
	nodes   []*cluster.Node
	checks  []*livecheck.ShardSet
	clients []*cluster.Client
}

// journalOpts is how the durable workload journals: records are written to
// the WAL on every append, but neither fsynced nor compacted. On a machine
// whose disk is shared with other tenants, fsync and snapshot-fsync latency
// swings by 2x between runs minutes apart, more than any bound the
// benchmark could gate. The audit test journals with the cluster's
// defaults instead.
var journalOpts = durable.Options{NoSync: true, SnapshotEvery: -1}

func newBenchCluster(p params, seed int64, dir string) *benchCluster {
	return &benchCluster{w: p.w, storeNm: p.store, seed: seed, dir: dir, rec: newRecorder(p.w.nodes, p.w.shards, p.traced)}
}

// config builds node id's configuration; every field left zero takes the
// cluster package's default.
func (bc *benchCluster) config(id int) (cluster.Config, *livecheck.ShardSet, error) {
	st, err := cli.OpenStore(bc.storeNm, spec.MVRTypes(), store.Options{})
	if err != nil {
		return cluster.Config{}, nil, err
	}
	if bc.rec.traced {
		st = traceStore(st, bc.rec, bc.w.shards)
	}
	ck := newChecker(model.ReplicaID(id), bc.w.nodes, bc.w.shards)
	// Each node journals through its own durable.Storage, as each served
	// process does, so its shards share a group committer with each other
	// and not with other nodes.
	var storage cluster.NodeStorage
	if bc.w.durable {
		storage = &durable.Storage{Dir: filepath.Join(bc.dir, "data"), Opts: journalOpts}
		if bc.rec.traced {
			storage = tracedStorage{inner: storage, rec: bc.rec}
		}
	}
	return cluster.Config{
		ID:      model.ReplicaID(id),
		N:       bc.w.nodes,
		Store:   st,
		Listen:  "127.0.0.1:0",
		Seed:    bc.seed,
		Shards:  bc.w.shards,
		Storage: storage,
		Tap:     bc.rec.tap(ck),
	}, ck, nil
}

// boot starts nodes 0..count-1, links them all to each other, and dials
// one client to each of the first `clients` nodes.
func (bc *benchCluster) boot(count int) error {
	for i := 0; i < count; i++ {
		cfg, ck, err := bc.config(i)
		if err != nil {
			return err
		}
		nd, err := cluster.NewNode(cfg)
		if err != nil {
			return fmt.Errorf("boot r%d: %w", i, err)
		}
		bc.nodes = append(bc.nodes, nd)
		bc.checks = append(bc.checks, ck)
	}
	for i, nd := range bc.nodes {
		peers := make(map[model.ReplicaID]string)
		for j, other := range bc.nodes {
			if j != i {
				peers[model.ReplicaID(j)] = other.Addr()
			}
		}
		if err := nd.Connect(peers); err != nil {
			return fmt.Errorf("link r%d: %w", i, err)
		}
	}
	for i := 0; i < clients; i++ {
		c, err := cluster.Dial(bc.nodes[i].Addr(), 0)
		if err != nil {
			return err
		}
		c.SetOpTimeout(30 * time.Second)
		bc.clients = append(bc.clients, c)
	}
	return nil
}

// join boots node id as a fresh in-memory node joining through node 0, and
// returns once NewNode has admitted it (anti-entropy pulls done).
func (bc *benchCluster) join(id int) error {
	cfg, ck, err := bc.config(id)
	if err != nil {
		return err
	}
	cfg.Storage = nil
	cfg.Join = map[model.ReplicaID]string{0: bc.nodes[0].Addr()}
	nd, err := cluster.NewNode(cfg)
	if err != nil {
		return fmt.Errorf("join r%d: %w", id, err)
	}
	bc.nodes = append(bc.nodes, nd)
	bc.checks = append(bc.checks, ck)
	return nil
}

// preload writes total keys through the clients, each client taking an
// interleaved share, and waits for the cluster to quiesce.
func (bc *benchCluster) preload(total int) error {
	errs := make([]error, len(bc.clients))
	var wg sync.WaitGroup
	for ci, c := range bc.clients {
		wg.Add(1)
		go func(ci int, c *cluster.Client) {
			defer wg.Done()
			for i, obj := range preloadOps(ci, len(bc.clients), keys, total) {
				resp, err := c.Do(obj, model.Write(model.Value(fmt.Sprintf("p%d.%d", ci, i))))
				if err == nil && !resp.OK {
					err = fmt.Errorf("preload write of %s answered %s", obj, resp)
				}
				if err != nil {
					errs[ci] = err
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if !cluster.WaitQuiesced(bc.nodes, quiesceTimeout) {
		return fmt.Errorf("cluster did not quiesce after preload")
	}
	return nil
}

// close stops clients and nodes and waits for every goroutine to exit.
func (bc *benchCluster) close() {
	for _, c := range bc.clients {
		c.Close()
	}
	for _, nd := range bc.nodes {
		nd.Close()
	}
}

// nodeTotals sums the Stats counters the metrics are built from.
type nodeTotals struct {
	ops, sends, receives, events       int64
	bytesOut, framesOut, retransmits   int64
	dupFrames, gapFrames               int64
	syncPulled, syncServed, violations int64
}

func (bc *benchCluster) totals() nodeTotals {
	var t nodeTotals
	for _, nd := range bc.nodes {
		s := nd.Stats()
		t.ops += s.Ops
		t.sends += s.Sends
		t.receives += s.Receives
		t.events += s.Events
		t.bytesOut += s.BytesOut
		t.framesOut += s.FramesOut
		t.retransmits += s.Retransmits
		t.dupFrames += s.DupFrames
		t.gapFrames += s.GapFrames
		t.syncPulled += s.SyncPulled
		t.syncServed += s.SyncServed
		t.violations += int64(s.Violations)
	}
	return t
}

func (a nodeTotals) minus(b nodeTotals) nodeTotals {
	return nodeTotals{
		ops: a.ops - b.ops, sends: a.sends - b.sends, receives: a.receives - b.receives, events: a.events - b.events,
		bytesOut: a.bytesOut - b.bytesOut, framesOut: a.framesOut - b.framesOut, retransmits: a.retransmits - b.retransmits,
		dupFrames: a.dupFrames - b.dupFrames, gapFrames: a.gapFrames - b.gapFrames,
		syncPulled: a.syncPulled - b.syncPulled, syncServed: a.syncServed - b.syncServed, violations: a.violations - b.violations,
	}
}

func (a nodeTotals) plus(b nodeTotals) nodeTotals {
	return a.minus(nodeTotals{}.minus(b))
}
