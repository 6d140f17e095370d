// Package simnet models the interconnect of the staging cluster. The paper
// runs on Titan's Gemini network with RDMA transfers; this package stands in
// for that fabric with a configurable per-message latency plus per-byte
// bandwidth cost, applied as real delays by the in-process transport so that
// queueing and interference effects emerge from actual concurrency.
//
// The model is deliberately simple — CoREC's claims are about the relative
// cost of replication vs encoding traffic, which a latency+bandwidth model
// preserves — but it is calibrated so the synthetic experiments produce the
// same orderings as the paper (see EXPERIMENTS.md).
package simnet

import "time"

// LinkModel describes the cost of moving one message across the fabric.
// The zero value is a free (instantaneous) network, useful in unit tests.
type LinkModel struct {
	// Latency is the fixed per-message cost (the "l" of the paper's model):
	// software stack traversal, matching, completion notification.
	Latency time.Duration
	// BytesPerSecond is the link bandwidth. Zero means infinite bandwidth.
	BytesPerSecond float64
	// Scale multiplies the final delay, letting experiments shrink modelled
	// time to keep wall-clock runtimes short. Zero means 1 (no scaling).
	Scale float64
}

// Delay returns the modelled time to transfer size bytes.
func (m LinkModel) Delay(size int) time.Duration {
	d := m.Latency
	if m.BytesPerSecond > 0 {
		d += time.Duration(float64(size) / m.BytesPerSecond * float64(time.Second))
	}
	if m.Scale > 0 {
		d = time.Duration(float64(d) * m.Scale)
	}
	return d
}

// IsFree reports whether the model introduces no delay at all.
func (m LinkModel) IsFree() bool {
	return m.Latency == 0 && m.BytesPerSecond == 0
}

// Titan returns a link model loosely calibrated to a Gemini-class fabric
// (microseconds of latency, multiple GB/s per link), scaled down so a full
// 20-time-step experiment completes in seconds on one machine.
func Titan(scale float64) LinkModel {
	return LinkModel{
		Latency:        2 * time.Microsecond,
		BytesPerSecond: 4 << 30, // 4 GiB/s
		Scale:          scale,
	}
}

// PFSModel describes a parallel-file-system used by the Checkpoint/Restart
// baseline: much higher latency, much lower effective bandwidth than the
// staging fabric, shared across all writers.
type PFSModel struct {
	// OpenLatency is paid once per checkpoint (metadata ops, file create).
	OpenLatency time.Duration
	// BytesPerSecond is the aggregate PFS bandwidth shared by all servers.
	BytesPerSecond float64
}

// WriteDelay returns the modelled time for one transfer of size bytes to or
// from the PFS at the given concurrency (transfers sharing the aggregate
// bandwidth).
func (p PFSModel) WriteDelay(size int, writers int) time.Duration {
	if writers < 1 {
		writers = 1
	}
	d := p.OpenLatency
	if p.BytesPerSecond > 0 {
		per := p.BytesPerSecond / float64(writers)
		d += time.Duration(float64(size) / per * float64(time.Second))
	}
	return d
}
