// Package simmpi adapts internal/mpi's simulated ranks to the
// transport.Transport seam: it is the default progress-engine backend,
// playing MVAPICH2's role from the paper ("DCGN uses MPI as its
// underlying communication library", §3.2.2) on the deterministic
// simulated cluster fabric.
//
// Every node talks through a Group endpoint (tenant.go): a job's view of
// the world over the nodes it was placed on, in its own tag band. Each
// operation forwards to the node's *mpi.Rank on the calling *sim.Proc;
// tags and communicator ids only steer matching, so a job's virtual time
// does not depend on its tenant id or on how many co-tenants share the
// world.
package simmpi

import (
	"fmt"

	"dcgn/internal/mpi"
	"dcgn/internal/sim"
	"dcgn/internal/transport"
)

// dcgnTag is the MPI tag carrying all DCGN point-to-point wire traffic;
// messages are demultiplexed by the DCGN header, not by MPI matching.
const dcgnTag = 770001

// osTag is the MPI tag carrying the one-sided lane: put/get/ack frames
// demultiplexed by the one-sided header. A distinct tag keeps the lane
// out of the two-sided RecvMsg stream, so one-sided traffic can never
// perturb comm-thread matching order (FIFO independence).
const osTag = 770002

// proc recovers the simulated proc a transport call runs under.
func proc(p transport.Proc) *sim.Proc {
	sp, ok := p.(*sim.Proc)
	if !ok {
		panic(fmt.Sprintf("simmpi: call on non-simulated proc %T", p))
	}
	return sp
}

// tenantTagStride separates the tag bands of co-resident tenants: tenant
// (job) i's point-to-point traffic rides dcgnTag + i*tenantTagStride and
// its one-sided lane osTag + i*tenantTagStride. The stride leaves room
// for more per-tenant lanes without re-banding.
const tenantTagStride = 16

// Group is one tenant's view of a shared simulated-MPI world: a placement
// (tenant-local node -> world rank), a private tag band for point-to-point
// and one-sided traffic, and a group communicator over exactly the placed
// ranks for node-level collectives. Endpoints drawn from a Group carry
// only that tenant's frames: co-resident jobs can never match each
// other's traffic. Wire totals are metered by the fabric, per node.
type Group struct {
	world     *mpi.World
	comm      *mpi.Comm
	placement []int
	p2pTag    int
	osTag     int
}

// NewGroup builds tenant id's group over the given placement (strictly
// ascending world ranks; tenant-local node i runs on world rank
// placement[i]).
func NewGroup(w *mpi.World, placement []int, tenant int) *Group {
	if tenant < 0 {
		panic("simmpi: negative tenant id")
	}
	return &Group{
		world:     w,
		comm:      w.NewGroupComm(placement),
		placement: append([]int(nil), placement...),
		p2pTag:    dcgnTag + tenant*tenantTagStride,
		osTag:     osTag + tenant*tenantTagStride,
	}
}

// Endpoint returns the tenant-local node's transport endpoint.
func (g *Group) Endpoint(local int) *Tenant {
	return &Tenant{g: g, rank: g.world.Rank(g.placement[local])}
}

// Tenant is one tenant-local node's endpoint on a shared simulated-MPI
// world, with destinations and collective roots in tenant-local node
// space.
type Tenant struct {
	g    *Group
	rank *mpi.Rank
}

// Send transmits one framed wire message to tenant-local dstNode on the
// tenant's point-to-point tag.
func (t *Tenant) Send(p transport.Proc, dstNode int, msg []byte) error {
	return t.rank.Send(proc(p), msg, t.g.placement[dstNode], t.g.p2pTag)
}

// RecvMsg blocks for the next inbound wire message on the tenant's
// point-to-point tag, taking ownership of the pooled staging buffer.
func (t *Tenant) RecvMsg(p transport.Proc) ([]byte, error) {
	_, msg, err := t.rank.RecvMsg(proc(p), mpi.AnySource, t.g.p2pTag)
	return msg, err
}

// SendOneSided transmits one framed one-sided message to tenant-local
// dstNode on the tenant's one-sided tag.
func (t *Tenant) SendOneSided(p transport.Proc, dstNode int, frame []byte) error {
	return t.rank.Send(proc(p), frame, t.g.placement[dstNode], t.g.osTag)
}

// RecvOneSided blocks for the next inbound one-sided frame on the
// tenant's one-sided tag.
func (t *Tenant) RecvOneSided(p transport.Proc) ([]byte, error) {
	_, frame, err := t.rank.RecvMsg(proc(p), mpi.AnySource, t.g.osTag)
	return frame, err
}

// Barrier runs the tenant-wide barrier on the group communicator.
func (t *Tenant) Barrier(p transport.Proc) error {
	t.g.comm.Barrier(proc(p), t.rank)
	return nil
}

// Bcast runs the tenant-wide broadcast from tenant-local rootNode. The
// group communicator's ranks coincide with tenant-local nodes (both are
// the placement's ascending order), so roots and counts need no
// translation.
func (t *Tenant) Bcast(p transport.Proc, buf []byte, rootNode int) error {
	return t.g.comm.Bcast(proc(p), t.rank, buf, rootNode)
}

// Gatherv runs the tenant-wide vector gather to tenant-local rootNode.
func (t *Tenant) Gatherv(p transport.Proc, sendBuf, recvBuf []byte, counts []int, rootNode int) error {
	return t.g.comm.Gatherv(proc(p), t.rank, sendBuf, recvBuf, counts, rootNode)
}

// Scatterv runs the tenant-wide vector scatter from tenant-local rootNode.
func (t *Tenant) Scatterv(p transport.Proc, sendBuf []byte, counts []int, recvBuf []byte, rootNode int) error {
	return t.g.comm.Scatterv(proc(p), t.rank, sendBuf, counts, recvBuf, rootNode)
}

// Alltoallv runs the tenant-wide vector all-to-all.
func (t *Tenant) Alltoallv(p transport.Proc, sendBuf []byte, sendCounts []int, recvBuf []byte, recvCounts []int) error {
	return t.g.comm.Alltoallv(proc(p), t.rank, sendBuf, sendCounts, recvBuf, recvCounts)
}

// Close is a no-op: a tenant's simulated daemons quiesce with the
// simulation, and the shared world outlives every tenant.
func (t *Tenant) Close() error { return nil }
