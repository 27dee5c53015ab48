// Package topo models multi-socket machine topology as a layer over the
// tier palette: cores grouped into shared-LLC domains, domains grouped
// into sockets, and an inter-domain distance matrix in hops. A migration
// that crosses a domain boundary pays a cold-cache penalty — PenaltyCycles
// destination-core cycles per hop — which the kernel charges as extra
// burst time on cross-domain dispatches.
//
// The zero value is the flat topology: one implicit domain containing
// every core, zero distance everywhere, exactly the pre-topology machine
// model. A flat topology leaves fingerprints byte-identical to having no
// topology at all, and the kernel schedules any inactive topology (flat,
// or zero penalty) as one domain, identically to the flat machine.
package topo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// DefaultPenaltyCycles is the committed palettes' cold-cache migration
// penalty: destination-core cycles per distance hop (8000 cycles ≈ 4 µs
// at 2 GHz — the order of refilling a warmed private cache footprint).
const DefaultPenaltyCycles = 8000

// Domain is one shared-LLC core group.
type Domain struct {
	// Socket is the socket index the domain belongs to.
	Socket int
	// Cores lists the member core IDs in ascending order. Domains of one
	// topology partition the machine's core index space.
	Cores []int
}

// Topology describes the socket/LLC-domain layout of a machine. The zero
// value (and any single-domain value) is flat: no distance, no penalty.
type Topology struct {
	// Domains are the LLC domains; nil or a single domain means flat.
	Domains []Domain
	// PenaltyCycles is the cold-cache migration penalty in destination-core
	// cycles per distance hop.
	PenaltyCycles float64
	// Dist optionally overrides the derived inter-domain distance matrix
	// (hops, symmetric, zero diagonal). When nil, distance is derived from
	// the socket layout: 0 within a domain, 1 between domains of one
	// socket, 2 across sockets.
	Dist [][]int
}

// IsFlat reports whether the topology is the flat (single-domain) machine.
func (t Topology) IsFlat() bool { return len(t.Domains) <= 1 }

// Active reports whether the topology affects scheduling: multiple
// domains and a non-zero migration penalty. kernel.NewMachine is its one
// reader: it schedules an inactive topology as one domain holding every
// core, which makes a zero-penalty topology bit-identical to the flat
// machine.
func (t Topology) Active() bool { return !t.IsFlat() && t.PenaltyCycles > 0 }

// NumDomains returns the LLC-domain count (1 for flat topologies).
func (t Topology) NumDomains() int {
	if len(t.Domains) == 0 {
		return 1
	}
	return len(t.Domains)
}

// NumSockets returns the socket count (1 for flat topologies).
func (t Topology) NumSockets() int {
	if len(t.Domains) == 0 {
		return 1
	}
	seen := map[int]bool{}
	for _, d := range t.Domains {
		seen[d.Socket] = true
	}
	return len(seen)
}

// CoreDomains returns the per-core domain index for a machine of n cores:
// out[i] is core i's domain (all zero for flat topologies). The topology
// must be valid for n cores.
func (t Topology) CoreDomains(n int) []int {
	out := make([]int, n)
	for di, d := range t.Domains {
		for _, c := range d.Cores {
			if c >= 0 && c < n {
				out[c] = di
			}
		}
	}
	return out
}

// Distance returns the hop count between domains a and b: the explicit
// Dist matrix when set, otherwise 0 within a domain, 1 between domains of
// one socket and 2 across sockets.
func (t Topology) Distance(a, b int) int {
	if a == b {
		return 0
	}
	if t.Dist != nil {
		return t.Dist[a][b]
	}
	if t.Domains[a].Socket == t.Domains[b].Socket {
		return 1
	}
	return 2
}

// Validate reports structural problems for a machine of numCores cores:
// the domains must partition [0, numCores), socket indices must be
// non-negative, and an explicit distance matrix must be square,
// symmetric, non-negative and zero on the diagonal.
func (t Topology) Validate(numCores int) error {
	if t.PenaltyCycles < 0 {
		return fmt.Errorf("topo: negative migration penalty %g cycles", t.PenaltyCycles)
	}
	if len(t.Domains) == 0 {
		if t.Dist != nil {
			return fmt.Errorf("topo: distance matrix without domains")
		}
		return nil
	}
	seen := make([]bool, numCores)
	total := 0
	for di, d := range t.Domains {
		if d.Socket < 0 {
			return fmt.Errorf("topo: domain %d has negative socket index %d", di, d.Socket)
		}
		if len(d.Cores) == 0 {
			return fmt.Errorf("topo: domain %d has no cores", di)
		}
		for _, c := range d.Cores {
			if c < 0 || c >= numCores {
				return fmt.Errorf("topo: domain %d core %d outside machine of %d cores", di, c, numCores)
			}
			if seen[c] {
				return fmt.Errorf("topo: core %d appears in two domains", c)
			}
			seen[c] = true
			total++
		}
	}
	if total != numCores {
		return fmt.Errorf("topo: domains cover %d of %d cores", total, numCores)
	}
	if t.Dist != nil {
		n := len(t.Domains)
		if len(t.Dist) != n {
			return fmt.Errorf("topo: distance matrix has %d rows for %d domains", len(t.Dist), n)
		}
		for i, row := range t.Dist {
			if len(row) != n {
				return fmt.Errorf("topo: distance row %d has %d entries for %d domains", i, len(row), n)
			}
			for j, v := range row {
				if v < 0 {
					return fmt.Errorf("topo: negative distance %d between domains %d and %d", v, i, j)
				}
				if i == j && v != 0 {
					return fmt.Errorf("topo: non-zero self distance %d for domain %d", v, i)
				}
				if t.Dist[j][i] != v {
					return fmt.Errorf("topo: asymmetric distance between domains %d and %d", i, j)
				}
			}
		}
	}
	return nil
}

// Uniform builds the regular layout the committed NUMA palettes use:
// sockets × domainsPerSocket contiguous LLC domains of coresPerDomain
// cores each, socket-major, with the derived distance matrix.
func Uniform(sockets, domainsPerSocket, coresPerDomain int, penaltyCycles float64) Topology {
	if sockets < 1 || domainsPerSocket < 1 || coresPerDomain < 1 {
		panic(fmt.Sprintf("topo: Uniform(%d, %d, %d) needs positive shape", sockets, domainsPerSocket, coresPerDomain))
	}
	t := Topology{PenaltyCycles: penaltyCycles}
	next := 0
	for s := 0; s < sockets; s++ {
		for d := 0; d < domainsPerSocket; d++ {
			cores := make([]int, coresPerDomain)
			for i := range cores {
				cores[i] = next
				next++
			}
			t.Domains = append(t.Domains, Domain{Socket: s, Cores: cores})
		}
	}
	return t
}

// ---------------------------------------------------------------------------
// Canonical form.

// Canonical renders the topology as its canonical string: "flat" for the
// flat topology, otherwise a deterministic "cost=...;dom=socket:ranges;..."
// form (cores ascending, ranges compressed, '+'-joined) with the explicit
// distance matrix appended when one is set. Equal canonical strings mean
// equal topologies; Parse round-trips the form. Config fingerprints fold
// this string in for non-flat topologies.
func (t Topology) Canonical() string {
	if t.IsFlat() {
		return "flat"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cost=%g", t.PenaltyCycles)
	for _, d := range t.Domains {
		fmt.Fprintf(&b, ";dom=%d:%s", d.Socket, rangesOf(d.Cores))
	}
	if t.Dist != nil {
		b.WriteString(";dist=")
		for i, row := range t.Dist {
			if i > 0 {
				b.WriteByte('/')
			}
			for j, v := range row {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.Itoa(v))
			}
		}
	}
	return b.String()
}

// rangesOf compresses an ascending-sorted copy of ids into "0-3+8+10-11".
func rangesOf(ids []int) string {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	var b strings.Builder
	for i := 0; i < len(sorted); {
		j := i
		for j+1 < len(sorted) && sorted[j+1] == sorted[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte('+')
		}
		if i == j {
			b.WriteString(strconv.Itoa(sorted[i]))
		} else {
			fmt.Fprintf(&b, "%d-%d", sorted[i], sorted[j])
		}
		i = j + 1
	}
	return b.String()
}

// Parse reads a canonical topology string back into a Topology. It
// accepts exactly what Canonical emits ("flat" or the cost/dom[/dist]
// form); Parse(t.Canonical()) reproduces t with core lists sorted.
func Parse(s string) (Topology, error) {
	if s == "flat" {
		return Topology{}, nil
	}
	var t Topology
	sawCost := false
	for _, part := range strings.Split(s, ";") {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Topology{}, fmt.Errorf("topo: malformed field %q (want key=value)", part)
		}
		switch key {
		case "cost":
			if sawCost {
				return Topology{}, fmt.Errorf("topo: duplicate cost field")
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil || v < 0 {
				return Topology{}, fmt.Errorf("topo: bad cost %q", val)
			}
			sawCost = true
			t.PenaltyCycles = v
		case "dom":
			sockStr, coreStr, ok := strings.Cut(val, ":")
			if !ok {
				return Topology{}, fmt.Errorf("topo: malformed domain %q (want socket:ranges)", val)
			}
			sock, err := strconv.Atoi(sockStr)
			if err != nil || sock < 0 {
				return Topology{}, fmt.Errorf("topo: bad socket %q", sockStr)
			}
			cores, err := parseRanges(coreStr)
			if err != nil {
				return Topology{}, err
			}
			t.Domains = append(t.Domains, Domain{Socket: sock, Cores: cores})
		case "dist":
			if t.Dist != nil {
				return Topology{}, fmt.Errorf("topo: duplicate dist field")
			}
			for _, rowStr := range strings.Split(val, "/") {
				var row []int
				for _, cell := range strings.Split(rowStr, ",") {
					v, err := strconv.Atoi(cell)
					if err != nil {
						return Topology{}, fmt.Errorf("topo: bad distance %q", cell)
					}
					row = append(row, v)
				}
				t.Dist = append(t.Dist, row)
			}
		default:
			return Topology{}, fmt.Errorf("topo: unknown field %q", key)
		}
	}
	if !sawCost {
		return Topology{}, fmt.Errorf("topo: missing cost field")
	}
	if len(t.Domains) < 2 {
		return Topology{}, fmt.Errorf("topo: %d domains; a non-flat topology needs at least 2", len(t.Domains))
	}
	return t, nil
}

// parseRanges reads "0-3+8+10-11" into its ascending member list.
func parseRanges(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, "+") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil || a < 0 {
			return nil, fmt.Errorf("topo: bad core range %q", part)
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil || b < a {
				return nil, fmt.Errorf("topo: bad core range %q", part)
			}
		}
		if b-a >= 1<<20 {
			return nil, fmt.Errorf("topo: core range %q too large", part)
		}
		for c := a; c <= b; c++ {
			out = append(out, c)
		}
	}
	return out, nil
}
