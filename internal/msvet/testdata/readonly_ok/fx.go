// Package fixture is the clean twin of readonly_bad: verify, run
// inside the stop-the-world window of Scavenge, only reads.
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

// verify checks every word after the collection.
//
//msvet:read-only a verifier that writes perturbs what it checks
func (h *Heap) verify(p *Proc) int {
	bad := 0
	for _, w := range h.mem {
		if w == 1 {
			bad++
		}
	}
	return bad
}
