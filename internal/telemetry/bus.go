package telemetry

// Bus is a bounded ring buffer of Events. It grows as events arrive until
// it holds its capacity, and never allocates more than that; once full, the
// oldest event is overwritten and counted as dropped, so tracing an
// arbitrarily long run retains the most recent window while a short run
// pays only for what it recorded. The simulator runs tasks under strict
// handoff (one goroutine holds the core at a time), so the bus needs no
// locking: emits are serialised by the same happens-before edges that order
// the simulated clock itself.
type Bus struct {
	buf      []Event
	capacity int
	start    int // index of the oldest retained event once buf is full
	dropped  uint64
}

// DefaultBusCapacity bounds a trace at ~256k events (~16 MB) unless the
// caller asks for more.
const DefaultBusCapacity = 1 << 18

// NewBus builds an empty ring with the given capacity (DefaultBusCapacity
// when non-positive).
func NewBus(capacity int) *Bus {
	if capacity <= 0 {
		capacity = DefaultBusCapacity
	}
	return &Bus{capacity: capacity}
}

// Emit appends one event, overwriting the oldest when full.
func (b *Bus) Emit(ev Event) {
	if n := len(b.buf); n < b.capacity {
		if n == cap(b.buf) {
			grown := make([]Event, n, min(max(2*n, 64), b.capacity))
			copy(grown, b.buf)
			b.buf = grown
		}
		b.buf = append(b.buf, ev)
		return
	}
	b.buf[b.start] = ev
	b.start = (b.start + 1) % len(b.buf)
	b.dropped++
}

// Events returns the retained events oldest-first.
func (b *Bus) Events() []Event {
	out := make([]Event, 0, len(b.buf))
	return append(append(out, b.buf[b.start:]...), b.buf[:b.start]...)
}

// Len reports how many events are retained.
func (b *Bus) Len() int { return len(b.buf) }

// Cap reports the ring capacity.
func (b *Bus) Cap() int { return b.capacity }

// Dropped reports how many events were overwritten by wraparound.
func (b *Bus) Dropped() uint64 { return b.dropped }

// Reset discards all retained events and the drop count, keeping the
// storage grown so far.
func (b *Bus) Reset() {
	b.buf, b.start, b.dropped = b.buf[:0], 0, 0
}
