// Package fixture injects one read-only violation: verify runs inside
// the stop-the-world window of Scavenge, where raw collector stores are
// legal, but it is annotated read-only and repairs what it checks.
package fixture

type Proc struct{ id int }

type Machine struct{ stopped bool }

func (m *Machine) StopTheWorld(p *Proc) bool { m.stopped = true; return true }
func (m *Machine) ResumeTheWorld(p *Proc)    { m.stopped = false }

type Heap struct {
	m   *Machine
	mem []uint64
}

func (h *Heap) Scavenge(p *Proc) {
	if !h.m.StopTheWorld(p) {
		return
	}
	defer h.m.ResumeTheWorld(p)
	h.mem[0] = 0 // the collector's own store: legal in the window
	h.verify(p)
}

// verify checks every word after the collection. The repair of a bad
// word is the injected violation.
//
//msvet:read-only a verifier that writes perturbs what it checks
func (h *Heap) verify(p *Proc) int {
	bad := 0
	for i, w := range h.mem {
		if w == 1 {
			bad++
			h.mem[i] = 0
		}
	}
	return bad
}
