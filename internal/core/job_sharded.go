package core

import (
	"dcgn/internal/bufpool"
	"dcgn/internal/fabric"
	"dcgn/internal/mpi"
	"dcgn/internal/sim"
)

// runShardedSim executes the job on the sharded simulated backend: the
// cluster's nodes are split into Config.Shards contiguous groups, each
// owning its own event loop (sim.Sharded), and the groups advance in
// parallel through conservative lookahead windows bounded by the fabric's
// minimum cross-shard latency. Cross-shard packets are exchanged only at
// window barriers, in a total order independent of the shard count, so a
// sharded run's Report is bit-identical for every Shards value — only the
// wall-clock time changes.
func (j *Job) runShardedSim() (Report, error) {
	shards := j.cfg.Shards // validate() clamped it to [1, Nodes]
	sc := sim.NewSharded(shards)
	sc.SetMaxTime(j.cfg.MaxVirtualTime)

	// Topology-aware node -> shard partition: whole locality groups
	// (fat-tree pods, dragonfly groups) go to one shard, so intra-group
	// traffic — the short-hop majority — stays on the shard's same-shard
	// fast path, and the cross-shard latency (and therefore the lookahead
	// window) is set by the multi-hop inter-group tier instead of the
	// cheapest link. On flat/ungrouped fabrics this degenerates to the
	// legacy contiguous block partition. The partition only changes which
	// event loop owns a node, never event ordering, so Reports stay
	// bit-identical across shard counts either way.
	shardOf := fabric.ShardPartition(j.cfg.Net.Topology, j.cfg.Nodes, shards)
	net := fabric.NewSharded(sc, j.cfg.Nodes, j.cfg.Net, shardOf)
	sc.SetLookahead(net.Lookahead())
	j.pool = bufpool.New()

	nodes := make([]int, j.cfg.Nodes) // one underlying MPI rank per node
	sims := make([]*sim.Sim, j.cfg.Nodes)
	for n := range nodes {
		nodes[n] = n
		sims[n] = sc.Shard(shardOf[n]).Sim()
	}
	mpiCfg := j.cfg.MPI
	mpiCfg.Pool = j.pool
	world := mpi.NewWorldSharded(sims, net, nodes, mpiCfg)
	j.startSim(world, nodes, 0, func(n int) (*sim.Sim, rt) { return sims[n], simRT{s: sims[n]} })

	err := sc.Run()
	pk, by := net.Totals()
	return j.report(sc.Elapsed(), pk, by), err
}
