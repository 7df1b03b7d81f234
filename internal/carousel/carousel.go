// Package carousel implements a timing-wheel packet pacer in the style
// of Carousel (Saeed et al., SIGCOMM 2017), which eRPC uses as its
// software rate limiter (paper §5.2). Packets are tagged with an
// absolute transmission time and inserted into a circular array of
// time slots; the dispatch thread polls the wheel each event-loop
// iteration and transmits every packet whose slot has been reached.
//
// The slots cover a bounded window past the head (the wheel horizon).
// Items scheduled beyond it wait in an overflow list and move into
// their slot once the head comes within a horizon of them, so no item
// is ever released before the start of its own slot, however far out
// a slow pacing rate schedules it.
package carousel

import (
	"fmt"

	"repro/internal/sim"
)

// Wheel is a timing wheel holding values of type T. It is owned by a
// single dispatch thread and is not goroutine-safe.
type Wheel[T any] struct {
	slots    [][]item[T]
	gran     sim.Time // slot width
	horizon  sim.Time // gran * len(slots)
	headIdx  int      // slot containing headTime
	headTime sim.Time // start time of the head slot
	size     int      // items in slots and overflow

	// over holds items scheduled at or beyond headTime+horizon, in no
	// particular order; overMin is the earliest of their times.
	over    []item[T]
	overMin sim.Time

	// spare recycles the backing arrays of emptied slots, so the wheel
	// allocates nothing in steady state. A processed slot's array must
	// not be reinstalled while its items are still being delivered
	// (fn may re-insert into the same slot), hence the free list
	// instead of in-place truncation.
	spare [][]item[T]

	// Inserted and Polled count total wheel operations for the CPU
	// cost model and tests.
	Inserted uint64
	Polled   uint64
}

type item[T any] struct {
	at sim.Time
	v  T
}

// New returns a wheel with numSlots slots of width gran. The wheel can
// schedule at most numSlots*gran into the future.
func New[T any](numSlots int, gran sim.Time) *Wheel[T] {
	if numSlots <= 0 || gran <= 0 {
		panic(fmt.Sprintf("carousel: bad wheel shape %d x %v", numSlots, gran))
	}
	return &Wheel[T]{
		slots:   make([][]item[T], numSlots),
		gran:    gran,
		horizon: gran * sim.Time(numSlots),
	}
}

// Len reports the number of queued items.
func (w *Wheel[T]) Len() int { return w.size }

// Horizon reports the furthest future time the wheel can hold,
// relative to its head.
func (w *Wheel[T]) Horizon() sim.Time { return w.horizon }

// Insert schedules v for transmission at absolute time at. Times in
// the past are placed in the head slot; times beyond the horizon wait
// in the overflow list until the head comes within a horizon of them.
func (w *Wheel[T]) Insert(at sim.Time, v T) {
	w.Inserted++
	w.size++
	off := at - w.headTime
	if off >= w.horizon {
		if len(w.over) == 0 || at < w.overMin {
			w.overMin = at
		}
		w.over = append(w.over, item[T]{at: at, v: v})
		return
	}
	w.place(off, item[T]{at: at, v: v})
}

// place appends it to the slot off past the head (off < horizon;
// negative offsets go to the head slot).
func (w *Wheel[T]) place(off sim.Time, it item[T]) {
	if off < 0 {
		off = 0
	}
	idx := (w.headIdx + int(off/w.gran)) % len(w.slots)
	if w.slots[idx] == nil {
		// First use of this slot index (or its backing moved to the
		// free list): reuse a recycled backing before growing a fresh
		// one, so steady-state pacing allocates for at most as many
		// slots as are ever non-empty at once — not for every slot
		// index the advancing head walks across the ring.
		w.slots[idx] = w.popSpare()
	}
	w.slots[idx] = append(w.slots[idx], it)
}

// refill moves overflow items that are now within the horizon into
// their slots.
func (w *Wheel[T]) refill() {
	end := w.headTime + w.horizon
	if len(w.over) == 0 || w.overMin >= end {
		return
	}
	keep := w.over[:0]
	for _, it := range w.over {
		if it.at < end {
			w.place(it.at-w.headTime, it)
			continue
		}
		if len(keep) == 0 || it.at < w.overMin {
			w.overMin = it.at
		}
		keep = append(keep, it)
	}
	clear(w.over[len(keep):])
	w.over = keep
}

// PollUntil advances the wheel head to now and calls fn for every item
// whose slot start time is ≤ now, in slot order. It returns the number
// of items delivered.
func (w *Wheel[T]) PollUntil(now sim.Time, fn func(at sim.Time, v T)) int {
	w.Polled++
	delivered := 0
	for w.headTime <= now {
		if w.size == len(w.over) {
			// Every slot is empty: jump the head to now, or to the
			// earliest overflow item if that is sooner, rather than
			// walking slot by slot.
			w.skipTo(now)
		}
		w.refill()
		slot := w.slots[w.headIdx]
		if len(slot) > 0 {
			w.slots[w.headIdx] = w.popSpare()
			for _, it := range slot {
				fn(it.at, it.v)
			}
			delivered += len(slot)
			w.size -= len(slot)
			w.pushSpare(slot)
		}
		// Stop advancing once the head slot covers 'now': future
		// inserts for the current instant must still land here.
		if now < w.headTime+w.gran {
			break
		}
		w.headIdx = (w.headIdx + 1) % len(w.slots)
		w.headTime += w.gran
	}
	return delivered
}

// skipTo advances the head to the slot containing min(t, overMin).
// The slots must be empty.
func (w *Wheel[T]) skipTo(t sim.Time) {
	if len(w.over) > 0 && w.overMin < t {
		t = w.overMin
	}
	if t < w.headTime+w.gran {
		return
	}
	k := (t - w.headTime) / w.gran
	n := sim.Time(len(w.slots))
	w.headIdx = int((sim.Time(w.headIdx) + k%n) % n)
	w.headTime += k * w.gran
}

// popSpare takes a recycled slot backing (or nil, growing on demand).
func (w *Wheel[T]) popSpare() []item[T] {
	if n := len(w.spare); n > 0 {
		s := w.spare[n-1]
		w.spare[n-1] = nil
		w.spare = w.spare[:n-1]
		return s
	}
	return nil
}

// pushSpare recycles a processed slot's backing array, clearing the
// items so the wheel holds no stale references.
func (w *Wheel[T]) pushSpare(slot []item[T]) {
	var zero item[T]
	for i := range slot {
		slot[i] = zero
	}
	w.spare = append(w.spare, slot[:0])
}

// Drain removes and returns every queued item regardless of time: the
// slots in slot order, then the overflow list. eRPC uses this when
// destroying a session after a node failure (Appendix B: wait for the
// rate limiter to empty).
func (w *Wheel[T]) Drain(fn func(at sim.Time, v T)) int {
	n := 0
	for i := 0; i < len(w.slots); i++ {
		idx := (w.headIdx + i) % len(w.slots)
		slot := w.slots[idx]
		if len(slot) == 0 {
			continue
		}
		w.slots[idx] = w.popSpare()
		for _, it := range slot {
			fn(it.at, it.v)
			n++
		}
		w.pushSpare(slot)
	}
	for _, it := range w.over {
		fn(it.at, it.v)
		n++
	}
	clear(w.over)
	w.over = w.over[:0]
	w.size = 0
	return n
}

// NextDeadline returns the earliest scheduled item time and true, or
// zero and false if the wheel is empty. It scans slots from the head
// to the first non-empty one; O(numSlots) worst case, used only for
// idle-timer programming.
func (w *Wheel[T]) NextDeadline() (sim.Time, bool) {
	if w.size == 0 {
		return 0, false
	}
	if w.size == len(w.over) {
		return w.overMin, true
	}
	for i := 0; i < len(w.slots); i++ {
		idx := (w.headIdx + i) % len(w.slots)
		if len(w.slots[idx]) > 0 {
			min := w.slots[idx][0].at
			for _, it := range w.slots[idx][1:] {
				if it.at < min {
					min = it.at
				}
			}
			if len(w.over) > 0 && w.overMin < min {
				min = w.overMin
			}
			return min, true
		}
	}
	return 0, false
}
