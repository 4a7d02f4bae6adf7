package topology

import "fmt"

// HopMatrix returns the matrix of tree hop distances between all pairs of
// PUs: entry (i,j) is HopDistance(PU(i), PU(j)). The matrix is symmetric
// with a zero diagonal and, because it derives from a tree, satisfies the
// ultrametric inequality d(i,k) <= max(d(i,j), d(j,k)).
func (t *Topology) HopMatrix() [][]int {
	n := t.NumPUs()
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
		for j := range m[i] {
			m[i][j] = t.HopDistance(t.pus[i], t.pus[j])
		}
	}
	return m
}

// LatencyCycles returns the load-to-use latency, in cycles, experienced by a
// PU when it reads data that currently resides at the given object level
// relative to it:
//
//   - data in a cache shared with the producer (the innermost shared cache
//     between the two PUs) costs that cache's latency;
//   - data in the local NUMA node costs the node's memory latency;
//   - data in a remote NUMA node costs the local latency plus a per-hop
//     penalty proportional to the tree distance between the two nodes.
//
// The per-hop penalty is one local memory latency per two tree hops, a
// standard first-order model for directory-based ccNUMA interconnects.
func (t *Topology) LatencyCycles(from, to *Object) float64 {
	if from == to {
		l1 := from.Ancestor(L1)
		if l1 != nil {
			return l1.Attr.LatencyCycles
		}
		return 1
	}
	if c := t.SharedCache(from, to); c != nil {
		return c.Attr.LatencyCycles
	}
	nf, nt := t.NUMANodeOf(from), t.NUMANodeOf(to)
	if nf == nil || nt == nil {
		return 0
	}
	base := nf.Attr.LatencyCycles
	if nf == nt {
		return base
	}
	hops := t.HopDistance(nf, nt)
	return base * (1 + float64(float64(hops)/2))
}

// LatencyMatrix returns the PU-to-PU latency matrix in cycles, built with
// LatencyCycles. Entry (i,i) is the L1 latency of PU i.
//
// The matrix is memoized: the topology is immutable, so it is computed on
// first call and every call returns the same backing slices. Callers must
// treat the result as read-only; copy it before modifying.
func (t *Topology) LatencyMatrix() [][]float64 {
	t.latOnce.Do(func() {
		n := t.NumPUs()
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
			for j := range m[i] {
				m[i][j] = t.LatencyCycles(t.pus[i], t.pus[j])
			}
		}
		t.latMatrix = m
	})
	return t.latMatrix
}

// NUMADistanceMatrix returns the node-to-node distance matrix in the style
// of the ACPI SLIT table exposed by hwloc: local distance is normalized to
// 10 and each pair of tree hops adds 10 (so a 2-hop remote node reads 20).
func (t *Topology) NUMADistanceMatrix() [][]int {
	n := len(t.numa)
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
		for j := range m[i] {
			if i == j {
				m[i][j] = 10
			} else {
				m[i][j] = 10 + 5*t.HopDistance(t.numa[i], t.numa[j])
			}
		}
	}
	return m
}

// BandwidthBytesPerSec returns the sustainable bandwidth, in bytes/second,
// seen by a PU streaming from the given NUMA node, before any contention
// scaling: the node's full bandwidth when local, and the node bandwidth
// degraded by the interconnect (halved per two hops, floored at 1/8) when
// remote. The machine simulator divides this further by the number of
// concurrent accessors.
func (t *Topology) BandwidthBytesPerSec(pu, node *Object) float64 {
	if pu == nil || node == nil {
		return 0
	}
	local := t.NUMANodeOf(pu)
	bw := node.Attr.BandwidthBytesPerSec
	if local == node {
		return bw
	}
	hops := t.HopDistance(local, node)
	scale := 1.0
	for h := 0; h < hops; h += 2 {
		scale /= 2
	}
	if scale < 1.0/8 {
		scale = 1.0 / 8
	}
	return bw * scale
}

// CheckUltrametric verifies that the hop-distance matrix satisfies the
// ultrametric inequality; it returns an error naming the violating triple
// otherwise. Used by tests; any tree metric must pass.
func (t *Topology) CheckUltrametric() error {
	m := t.HopMatrix()
	n := len(m)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				lim := m[i][j]
				if m[j][k] > lim {
					lim = m[j][k]
				}
				if m[i][k] > lim {
					return fmt.Errorf("topology: ultrametric violated at (%d,%d,%d): d=%d > max(%d,%d)",
						i, j, k, m[i][k], m[i][j], m[j][k])
				}
			}
		}
	}
	return nil
}
