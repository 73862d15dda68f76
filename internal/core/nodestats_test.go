package core

import (
	"testing"

	"dcgn/internal/transport/faults"
)

// TestReportNodeStats checks the per-node, per-layer statistics surfaced
// from the intake layer: the split of the event stream into local requests
// and wire messages, the intake high-water mark, and agreement with the
// aggregate counters.
func TestReportNodeStats(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		const n = 8
		job := NewJob(backendConfig(backend, 2, 1))
		job.SetCPUKernel(func(c *CPUCtx) {
			buf := make([]byte, 64)
			for i := 0; i < n; i++ {
				switch c.Rank() {
				case 0:
					if err := c.Send(1, buf); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := c.Recv(0, buf); err != nil {
						t.Error(err)
					}
				}
			}
			c.Barrier()
		})
		rep, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Nodes) != 2 {
			t.Fatalf("want 2 node entries, got %d", len(rep.Nodes))
		}
		sum := 0
		for i, st := range rep.Nodes {
			if st.Node != i {
				t.Errorf("entry %d has node %d", i, st.Node)
			}
			if st.LocalRequests == 0 {
				t.Errorf("node %d reports no local requests", i)
			}
			if st.RequestsHandled != int(st.LocalRequests+st.WireMessages) {
				t.Errorf("node %d: handled %d != local %d + wire %d",
					i, st.RequestsHandled, st.LocalRequests, st.WireMessages)
			}
			if st.PeakIntakeDepth < 1 {
				t.Errorf("node %d: peak intake depth %d", i, st.PeakIntakeDepth)
			}
			sum += st.RequestsHandled
		}
		// Node 1 receives every wire message of the n sends.
		if rep.Nodes[1].WireMessages < n {
			t.Errorf("node 1 saw %d wire messages, want >= %d", rep.Nodes[1].WireMessages, n)
		}
		if sum != rep.Requests {
			t.Errorf("node sum %d != aggregate Requests %d", sum, rep.Requests)
		}
		// The sender never enqueues a receive, so its matching index peak
		// stays small while the engine still reports it per node.
		if rep.Nodes[1].PeakPending == 0 {
			t.Errorf("node 1 matching index never held a pending entry")
		}
	})
}

// TestReportAggregatesMatchNodeSums is the report invariant: every
// job-level aggregate must equal the sum of its per-node entries, and the
// intake split must tile the handled stream (LocalRequests + WireMessages
// == RequestsHandled) node by node. The run uses a lossy reliable wire
// with one corrupted frame so the reliability and decode-error counters
// are all nonzero — summing zeros proves nothing.
func TestReportAggregatesMatchNodeSums(t *testing.T) {
	cfg := cpuOnlyConfig(3, 2)
	cfg.Faults = faults.Config{Seed: 17, Drop: 0.15, Dup: 0.05}
	cfg.WrapTransport = corruptFirstDataHook()
	job := NewJob(cfg)
	job.SetCPUKernel(func(c *CPUCtx) {
		buf := make([]byte, 256)
		total := 6
		next := (c.Rank() + 1) % total
		prev := (c.Rank() + total - 1) % total
		for i := 0; i < 8; i++ {
			if c.Rank()%2 == 0 {
				if err := c.Send(next, buf); err != nil {
					t.Error(err)
				}
				if _, err := c.Recv(prev, buf); err != nil {
					t.Error(err)
				}
			} else {
				if _, err := c.Recv(prev, buf); err != nil {
					t.Error(err)
				}
				if err := c.Send(next, buf); err != nil {
					t.Error(err)
				}
			}
		}
		c.Barrier()
	})
	rep, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retransmits == 0 || rep.AcksSent == 0 || rep.AcksReceived == 0 || rep.DecodeErrors == 0 {
		t.Fatalf("lossy run produced no reliability traffic (retransmits=%d acks=%d/%d decode-errors=%d); invariant test proves nothing",
			rep.Retransmits, rep.AcksSent, rep.AcksReceived, rep.DecodeErrors)
	}

	var sums NodeStats
	var faultSum Report
	requests := 0
	for _, st := range rep.Nodes {
		if st.LocalRequests+st.WireMessages != int64(st.RequestsHandled) {
			t.Errorf("node %d: local %d + wire %d != handled %d",
				st.Node, st.LocalRequests, st.WireMessages, st.RequestsHandled)
		}
		sums.Retransmits += st.Retransmits
		sums.DupWireFrames += st.DupWireFrames
		sums.AcksSent += st.AcksSent
		sums.AcksReceived += st.AcksReceived
		sums.DecodeErrors += st.DecodeErrors
		sums.CollRetries += st.CollRetries
		faultSum.FaultsInjected = faultSum.FaultsInjected.Plus(st.Faults)
		requests += st.RequestsHandled
	}
	if sums.Retransmits != rep.Retransmits {
		t.Errorf("node retransmits sum %d != aggregate %d", sums.Retransmits, rep.Retransmits)
	}
	if sums.DupWireFrames != rep.DupWireFrames {
		t.Errorf("node dup-frame sum %d != aggregate %d", sums.DupWireFrames, rep.DupWireFrames)
	}
	if sums.AcksSent != rep.AcksSent {
		t.Errorf("node acks-sent sum %d != aggregate %d", sums.AcksSent, rep.AcksSent)
	}
	if sums.AcksReceived != rep.AcksReceived {
		t.Errorf("node acks-received sum %d != aggregate %d", sums.AcksReceived, rep.AcksReceived)
	}
	if sums.DecodeErrors != rep.DecodeErrors {
		t.Errorf("node decode-error sum %d != aggregate %d", sums.DecodeErrors, rep.DecodeErrors)
	}
	if sums.CollRetries != rep.CollRetries {
		t.Errorf("node coll-retry sum %d != aggregate %d", sums.CollRetries, rep.CollRetries)
	}
	if faultSum.FaultsInjected != rep.FaultsInjected {
		t.Errorf("node fault sums %+v != aggregate %+v", faultSum.FaultsInjected, rep.FaultsInjected)
	}
	if requests != rep.Requests {
		t.Errorf("node handled sum %d != aggregate Requests %d", requests, rep.Requests)
	}
	// Cross-layer sanity: on a dropping wire some acks vanish in flight.
	if sums.AcksReceived > sums.AcksSent {
		t.Errorf("more acks received (%d) than sent (%d)", sums.AcksReceived, sums.AcksSent)
	}
}
