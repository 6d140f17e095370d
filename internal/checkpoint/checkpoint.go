// Package checkpoint implements the Checkpoint/Restart baseline the paper
// measures in Figure 2: the staged data of every staging server is
// periodically serialized to a (simulated) parallel file system, and a
// failure forces a global restart of the staging service from the most
// recent checkpoint.
//
// The PFS is modelled by simnet.PFSModel: per-checkpoint open latency plus
// an aggregate bandwidth shared by concurrent writers. The staged bytes are
// actually serialized (so CPU cost is real); only the storage device is
// synthetic.
package checkpoint

import (
	"fmt"
	"sync"
	"time"

	"corec/internal/simnet"
)

// Snapshotter exposes the staged bytes per server; *corec.Cluster adapts
// to it in the harness.
type Snapshotter interface {
	// ServerBytes returns the serialized staged data per live server.
	ServerBytes() [][]byte
}

// Checkpointer captures all staged data to the simulated PFS.
type Checkpointer struct {
	pfs simnet.PFSModel

	mu           sync.Mutex
	checkpoints  int
	totalBytes   int64
	lastSnapshot [][]byte
	totalTime    time.Duration
}

// New builds a checkpointer over the given PFS model.
func New(pfs simnet.PFSModel) *Checkpointer {
	return &Checkpointer{pfs: pfs}
}

// Checkpoint serializes every live server's staged data and blocks for the
// modelled PFS write time (see charge), mirroring a blocking coordinated
// checkpoint of the staging service.
func (c *Checkpointer) Checkpoint(src Snapshotter) time.Duration {
	snap := clone(src.ServerBytes())
	d, total := c.charge(snap)
	time.Sleep(d)

	c.mu.Lock()
	c.checkpoints++
	c.totalBytes += total
	c.lastSnapshot = snap
	c.totalTime += d
	c.mu.Unlock()
	return d
}

// Restart models a global restart of the staging servers from the last
// checkpoint: every server reads its stream back from the PFS. Returns the
// modelled restart time and the restored streams; an error when no
// checkpoint exists.
func (c *Checkpointer) Restart() (time.Duration, [][]byte, error) {
	c.mu.Lock()
	snap := c.lastSnapshot
	c.mu.Unlock()
	if snap == nil {
		return 0, nil, fmt.Errorf("checkpoint: no checkpoint taken yet")
	}
	d, _ := c.charge(snap)
	time.Sleep(d)
	c.mu.Lock()
	c.totalTime += d
	c.mu.Unlock()
	return d, clone(snap), nil
}

// Stats reports checkpoints taken, total bytes written, and cumulative
// modelled PFS time.
func (c *Checkpointer) Stats() (count int, bytes int64, total time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checkpoints, c.totalBytes, c.totalTime
}

// charge is the modelled time to move streams through the PFS, and their
// byte total: one open, then every byte through the aggregate bandwidth.
// The servers share that bandwidth fairly, so the last one finishes when
// all bytes are through; an empty stream adds nothing.
func (c *Checkpointer) charge(streams [][]byte) (time.Duration, int64) {
	var total int64
	for _, s := range streams {
		total += int64(len(s))
	}
	return c.pfs.WriteDelay(int(total), 1), total
}

func clone(streams [][]byte) [][]byte {
	out := make([][]byte, len(streams))
	for i, s := range streams {
		out[i] = append([]byte(nil), s...)
	}
	return out
}
