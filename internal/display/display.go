// Package display simulates the MS I/O subsystem: a display with a
// serialized output command queue and an input sensor whose events are
// transferred from the device by the interpreters. Both directions
// follow the paper's serialization strategy: "the interpreter places
// input events on a queue which is shared (potentially) by several
// processes. There is also an output queue associated with the display
// controller... access to the shared resource is for very brief
// intervals."
package display

import (
	"strings"

	"mst/internal/firefly"
	"mst/internal/trace"
)

// Command is one display output command.
type Command struct {
	Text string
	X, Y int
	At   firefly.Time
}

// EventKind classifies input events.
type EventKind int

const (
	// EvKey is a keystroke.
	EvKey EventKind = iota
	// EvMouse is a pointer event.
	EvMouse
)

// Event is one input event.
type Event struct {
	Kind EventKind
	Key  rune
	X, Y int
	At   firefly.Time
}

// Display is the virtual display controller plus the Transcript sink.
type Display struct {
	lock       *firefly.Spinlock
	commands   []Command
	transcript strings.Builder
	width      int
	height     int
}

// NewDisplay creates a display on machine m. locksEnabled selects MS
// mode; the baseline system runs without the output-queue lock.
func NewDisplay(m *firefly.Machine, locksEnabled bool) *Display {
	m.Observers().RegisterGuard("display-queue", "display")
	return &Display{
		lock:   m.NewSpinlock("display", locksEnabled),
		width:  80,
		height: 24,
	}
}

// Width returns the display width in character cells.
func (d *Display) Width() int { return d.width }

// Height returns the display height in character cells.
func (d *Display) Height() int { return d.height }

// PostText places a draw-text command on the output queue, serialized
// under the display lock and charged as one display operation.
func (d *Display) PostText(p *firefly.Proc, text string, x, y int) {
	d.lock.Acquire(p)
	p.Advance(p.Machine().Costs().DisplayOp)
	d.commands = append(d.commands, Command{Text: text, X: x, Y: y, At: p.Now()})
	p.Machine().Observers().QueueOp(p, trace.KDisplayOp, "display-queue", len(d.commands))
	d.lock.Release(p)
}

// TranscriptShow appends text to the Transcript, through the same
// serialized output queue.
func (d *Display) TranscriptShow(p *firefly.Proc, text string) {
	d.lock.Acquire(p)
	p.Advance(p.Machine().Costs().DisplayOp)
	d.transcript.WriteString(text)
	d.commands = append(d.commands, Command{Text: text, X: -1, Y: -1, At: p.Now()})
	p.Machine().Observers().QueueOp(p, trace.KDisplayOp, "display-queue", len(d.commands))
	d.lock.Release(p)
}

// Commands returns every command posted so far.
func (d *Display) Commands() []Command { return d.commands }

// CommandCount returns the number of commands posted so far.
func (d *Display) CommandCount() int { return len(d.commands) }

// TranscriptText returns everything shown on the Transcript.
func (d *Display) TranscriptText() string { return d.transcript.String() }

// Sensor is the input device. Injection happens at the device level (from
// machine event callbacks, no virtual processor); interpreters transfer
// events out under the input lock.
type Sensor struct {
	lock    *firefly.Spinlock
	pending []Event
}

// NewSensor creates a sensor on machine m.
func NewSensor(m *firefly.Machine, locksEnabled bool) *Sensor {
	m.Observers().RegisterGuard("input-queue", "input")
	return &Sensor{lock: m.NewSpinlock("input", locksEnabled)}
}

// Inject adds a device-level event; called from Machine.At callbacks.
func (s *Sensor) Inject(e Event) { s.pending = append(s.pending, e) }

// HasPending reports whether any event is waiting (an unsynchronized
// peek, as a polling interpreter would perform).
func (s *Sensor) HasPending() bool { return len(s.pending) > 0 }

// Take removes and returns the oldest event under the input lock,
// charging one input operation. ok is false when no event is pending.
func (s *Sensor) Take(p *firefly.Proc) (e Event, ok bool) {
	s.lock.Acquire(p)
	obs := p.Machine().Observers()
	if len(s.pending) > 0 {
		e = s.pending[0]
		copy(s.pending, s.pending[1:])
		s.pending = s.pending[:len(s.pending)-1]
		ok = true
		p.Advance(p.Machine().Costs().InputOp)
		obs.QueueOp(p, trace.KInputOp, "input-queue", len(s.pending))
	} else {
		obs.Access(p, "input-queue")
	}
	s.lock.Release(p)
	return e, ok
}
