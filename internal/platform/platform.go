// Package platform models the Heterogeneous Computing Environment (HCE) of
// the paper: a fixed set of fully connected heterogeneous processors, a
// computation-cost matrix W (execution time of every task on every
// processor, Definition 1), and a bandwidth model turning edge data volumes
// into communication times (Definition 2). There is no network contention
// and task execution is non-preemptive, matching Section III.
package platform

import (
	"errors"
	"fmt"
	"math"
)

// Proc identifies a processor (CPU / computing resource) in an HCE.
// Processors are dense indices in [0, Platform.NumProcs()).
type Proc int

// Platform describes the processor set and interconnect of one HCE.
//
// The paper assumes a fully connected, contention-free network. Bandwidth
// may be uniform (the common case: the communication-cost matrix C of the
// paper is then simply the edge data volume) or per-pair.
type Platform struct {
	procs     int
	bandwidth [][]float64 // nil => uniform bandwidth 1.0
	names     []string
}

// NewUniform returns a platform with p processors and uniform unit bandwidth
// between every distinct pair (so communication time == data volume). This
// matches the paper's evaluation, where C is given directly in time units.
func NewUniform(p int) (*Platform, error) {
	if p <= 0 {
		return nil, fmt.Errorf("platform: need at least one processor, got %d", p)
	}
	return &Platform{procs: p}, nil
}

// MustUniform is NewUniform that panics on error, for static configuration.
func MustUniform(p int) *Platform {
	pl, err := NewUniform(p)
	if err != nil {
		panic(err)
	}
	return pl
}

// NewWithBandwidth returns a platform whose pairwise link bandwidths are
// given by the symmetric positive matrix b (b[i][j] = B(m_i, m_j) of Eq. 2).
// Diagonal entries are ignored (intra-processor transfers cost zero).
func NewWithBandwidth(b [][]float64) (*Platform, error) {
	p := len(b)
	if p == 0 {
		return nil, errors.New("platform: empty bandwidth matrix")
	}
	// Check every row's length before any entry: the symmetry check reads
	// b[j][i] for rows not yet visited.
	for i := range b {
		if len(b[i]) != p {
			return nil, fmt.Errorf("platform: bandwidth row %d has %d entries, want %d", i, len(b[i]), p)
		}
	}
	for i := range b {
		for j := range b[i] {
			if i == j {
				continue
			}
			if !(b[i][j] > 0) || math.IsInf(b[i][j], 0) || math.IsNaN(b[i][j]) {
				return nil, fmt.Errorf("platform: bandwidth B(%d,%d)=%g must be finite and positive", i, j, b[i][j])
			}
			if b[i][j] != b[j][i] {
				return nil, fmt.Errorf("platform: bandwidth matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
	cp := make([][]float64, p)
	for i := range b {
		cp[i] = append([]float64(nil), b[i]...)
	}
	return &Platform{procs: p, bandwidth: cp}, nil
}

// NumProcs reports the number of processors in the HCE.
func (p *Platform) NumProcs() int { return p.procs }

// Bandwidth returns B(a, b), the link bandwidth between two processors.
// It returns +Inf for a == b (local transfers are free).
func (p *Platform) Bandwidth(a, b Proc) float64 {
	if a == b {
		return math.Inf(1)
	}
	if p.bandwidth == nil {
		return 1.0
	}
	return p.bandwidth[a][b]
}

// Uniform reports whether every distinct-pair link runs at unit bandwidth
// (the paper's evaluation setting). Hot paths use this to replace the
// per-pair CommTime division with the data volume itself — data/1.0 and
// data are the same float64, so the substitution is bit-exact.
func (p *Platform) Uniform() bool { return p.bandwidth == nil }

// CommTime returns the communication time for shipping data units from
// processor a to processor b: Data / B(a,b) per Eq. 2, zero when a == b.
func (p *Platform) CommTime(data float64, a, b Proc) float64 {
	if a == b || data == 0 {
		return 0
	}
	return data / p.Bandwidth(a, b)
}

// TwoClusters returns a fully connected platform of size1+size2 processors
// split into two clusters: links within a cluster run at intra bandwidth,
// links across clusters at inter bandwidth. This is the classic
// heterogeneous-network model for studying communication-sensitive
// schedulers under non-uniform links (the paper's future work mentions
// "network conditions"; its own evaluation is uniform).
func TwoClusters(size1, size2 int, intra, inter float64) (*Platform, error) {
	if size1 < 1 || size2 < 1 {
		return nil, fmt.Errorf("platform: cluster sizes %d/%d must be positive", size1, size2)
	}
	if !(intra > 0) || !(inter > 0) {
		return nil, fmt.Errorf("platform: bandwidths intra=%g inter=%g must be positive", intra, inter)
	}
	p := size1 + size2
	b := make([][]float64, p)
	for i := range b {
		b[i] = make([]float64, p)
		for j := range b[i] {
			if i == j {
				continue
			}
			if (i < size1) == (j < size1) {
				b[i][j] = intra
			} else {
				b[i][j] = inter
			}
		}
	}
	pl, err := NewWithBandwidth(b)
	if err != nil {
		return nil, err
	}
	for i := 0; i < p; i++ {
		cluster, idx := "A", i+1
		if i >= size1 {
			cluster, idx = "B", i-size1+1
		}
		pl.SetName(Proc(i), fmt.Sprintf("%s%d", cluster, idx))
	}
	return pl, nil
}

// SetName assigns a human-readable name to processor i (used in Gantt output).
func (p *Platform) SetName(i Proc, name string) {
	if p.names == nil {
		p.names = make([]string, p.procs)
	}
	p.names[i] = name
}

// Name returns the display name of processor i ("P1", "P2", ... by default).
func (p *Platform) Name(i Proc) string {
	if p.names != nil && p.names[i] != "" {
		return p.names[i]
	}
	return fmt.Sprintf("P%d", int(i)+1)
}

// String summarises the platform.
func (p *Platform) String() string {
	kind := "uniform-bandwidth"
	if p.bandwidth != nil {
		kind = "per-pair-bandwidth"
	}
	return fmt.Sprintf("platform.Platform{procs: %d, %s}", p.procs, kind)
}
