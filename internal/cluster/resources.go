// Package cluster models the compute resources a KeystoneML pipeline runs
// on. It provides the cluster resource descriptor R from Section 3 of the
// paper (per-node CPU throughput, memory/disk/network bandwidth, node and
// core counts) and microbenchmarks that measure those quantities on the local
// machine.
package cluster

import (
	"fmt"
)

// Resources is the cluster resource descriptor (R in the paper's cost
// model, Eq. 1-2). All throughput figures are per node.
type Resources struct {
	Nodes          int     // number of worker nodes (R_w)
	CoresPerNode   int     // physical cores per node
	GFLOPs         float64 // per-node CPU throughput, GFLOP/s
	MemBandwidthGB float64 // per-node memory bandwidth, GB/s
	DiskBandwidth  float64 // per-node disk bandwidth, GB/s
	NetBandwidthGB float64 // per-link network bandwidth, GB/s
	MemPerNodeGB   float64 // cluster memory available for caching per node
	// StageLatencySec is the fixed cost of launching one distributed
	// stage (task scheduling, barrier): ~1s for a Spark-style cluster
	// engine, microseconds for the in-process goroutine engine.
	StageLatencySec float64
}

// R3_4XLarge models the Amazon EC2 r3.4xlarge instances used for every
// experiment in the paper: 8 physical cores, 122 GB of memory, a 320 GB
// SSD, on 10 GbE networking.
func R3_4XLarge(nodes int) Resources {
	return Resources{
		Nodes:           nodes,
		CoresPerNode:    8,
		GFLOPs:          90,   // 8 cores x ~11 GFLOP/s sustained dgemm
		MemBandwidthGB:  40,   // sustained stream bandwidth
		DiskBandwidth:   0.45, // SSD sequential
		NetBandwidthGB:  1.25, // 10 GbE
		MemPerNodeGB:    122,
		StageLatencySec: 0.8,
	}
}

// Local returns a descriptor for the local machine with the given number
// of simulated nodes, using measured microbenchmark values.
func Local(nodes int) Resources {
	mb := RunMicrobenchmarks()
	return Resources{
		Nodes:           nodes,
		CoresPerNode:    mb.Cores,
		GFLOPs:          mb.GFLOPs,
		MemBandwidthGB:  mb.MemBandwidthGB,
		DiskBandwidth:   0.5,
		NetBandwidthGB:  20, // in-process: partitions share memory
		MemPerNodeGB:    4,
		StageLatencySec: 20e-6, // goroutine fork/join
	}
}

// Loopback returns a descriptor for n keystone/dist worker processes on
// the local host: partitions cross a real process boundary (gob over a
// loopback TCP socket) rather than sharing memory, so network bandwidth
// is the measured loopback codec throughput and stage latency is an RPC
// round-trip — orders of magnitude above Local's goroutine fork/join but
// far below a real cluster's scheduler delay.
func Loopback(workers int) Resources {
	r := Local(workers)
	r.NetBandwidthGB = 2       // gob encode + loopback + decode
	r.StageLatencySec = 300e-6 // framed RPC round-trip
	return r
}

// Validate reports an error if the descriptor is not usable.
func (r Resources) Validate() error {
	switch {
	case r.Nodes <= 0:
		return fmt.Errorf("cluster: Nodes must be positive, got %d", r.Nodes)
	case r.GFLOPs <= 0:
		return fmt.Errorf("cluster: GFLOPs must be positive, got %g", r.GFLOPs)
	case r.NetBandwidthGB <= 0:
		return fmt.Errorf("cluster: NetBandwidthGB must be positive, got %g", r.NetBandwidthGB)
	case r.MemBandwidthGB <= 0:
		return fmt.Errorf("cluster: MemBandwidthGB must be positive, got %g", r.MemBandwidthGB)
	}
	return nil
}

// ExecWeight returns R_exec: seconds per FLOP of local execution across one
// node's cores. Splitting the model into an operator part and a cluster
// part (Eq. 1-2) means this weight is the only place hardware compute speed
// enters the cost.
func (r Resources) ExecWeight() float64 {
	return 1.0 / (r.GFLOPs * 1e9)
}

// CoordWeight returns R_coord: seconds per byte crossing the most loaded
// network link.
func (r Resources) CoordWeight() float64 {
	return 1.0 / (r.NetBandwidthGB * 1e9)
}

// MemWeight returns seconds per byte of memory traffic on one node.
func (r Resources) MemWeight() float64 {
	return 1.0 / (r.MemBandwidthGB * 1e9)
}

// String implements fmt.Stringer.
func (r Resources) String() string {
	return fmt.Sprintf("cluster{nodes=%d cores/node=%d %.0fGFLOP/s mem=%.0fGB/s net=%.2fGB/s cache=%.0fGB/node}",
		r.Nodes, r.CoresPerNode, r.GFLOPs, r.MemBandwidthGB, r.NetBandwidthGB, r.MemPerNodeGB)
}
