package carousel

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestDeliversAtOrAfterScheduledSlot(t *testing.T) {
	w := New[int](64, 100) // 64 slots x 100ns
	w.Insert(250, 1)
	w.Insert(50, 2)
	w.Insert(620, 3)

	var got []int
	n := w.PollUntil(99, func(_ sim.Time, v int) { got = append(got, v) })
	if n != 1 || got[0] != 2 {
		t.Fatalf("at t=99: got %v", got)
	}
	got = nil
	w.PollUntil(300, func(_ sim.Time, v int) { got = append(got, v) })
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("at t=300: got %v", got)
	}
	got = nil
	w.PollUntil(1000, func(_ sim.Time, v int) { got = append(got, v) })
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("at t=1000: got %v", got)
	}
	if w.Len() != 0 {
		t.Fatalf("wheel should be empty, len=%d", w.Len())
	}
}

func TestPastInsertGoesToHead(t *testing.T) {
	w := New[int](8, 100)
	w.PollUntil(500, func(sim.Time, int) {})
	w.Insert(10, 42) // far in the past
	var got []int
	w.PollUntil(500, func(_ sim.Time, v int) { got = append(got, v) })
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("past insert not delivered immediately: %v", got)
	}
}

// TestBeyondHorizonNotEarly: an item scheduled past the horizon waits
// in the overflow list and is delivered at the start of its own slot —
// neither released early into the last slot of the ring nor lost.
func TestBeyondHorizonNotEarly(t *testing.T) {
	w := New[int](8, 100) // horizon 800ns
	w.Insert(1_000_050, 7)
	if w.Len() != 1 {
		t.Fatalf("len = %d, want 1", w.Len())
	}
	if d, ok := w.NextDeadline(); !ok || d != 1_000_050 {
		t.Fatalf("deadline = %v,%v want 1000050,true", d, ok)
	}
	var got []int
	for now := sim.Time(0); now < 1_000_000; now += 700 {
		if n := w.PollUntil(now, func(_ sim.Time, v int) { got = append(got, v) }); n != 0 {
			t.Fatalf("delivered %v at t=%d, before its slot starts at 1000000", got, now)
		}
	}
	w.PollUntil(999_999, func(_ sim.Time, v int) { got = append(got, v) })
	if len(got) != 0 {
		t.Fatalf("delivered %v at t=999999, before its slot", got)
	}
	w.PollUntil(1_000_000, func(_ sim.Time, v int) { got = append(got, v) })
	if len(got) != 1 || got[0] != 7 || w.Len() != 0 {
		t.Fatalf("at the slot start: got %v, len %d; want [7], 0", got, w.Len())
	}
}

// TestNearFarInterleaved schedules items within and beyond the horizon,
// interleaved over several revolutions of the ring, and polls in steps
// that do not divide the slot width: items come out in time order, each
// no earlier than its slot start, with NextDeadline and Len exact at
// every step. Drain then returns everything still queued.
func TestNearFarInterleaved(t *testing.T) {
	const gran, slots = 100, 16 // horizon 1600ns
	w := New[int](slots, gran)
	var ats []sim.Time
	for i := 0; i < 40; i++ {
		// Alternate near (inside the horizon) and far (up to five
		// revolutions out) times, inserted out of order.
		at := sim.Time(i * 137 % 1500)
		if i%2 == 1 {
			at = sim.Time(1600 + i*211%6400)
		}
		ats = append(ats, at)
		w.Insert(at, i)
	}
	pending := len(ats)
	var last sim.Time = -1
	for now := sim.Time(0); now < 5000; now += 70 {
		want := sim.Time(-1)
		for _, at := range ats {
			if at >= 0 && (want < 0 || at < want) {
				want = at
			}
		}
		if d, ok := w.NextDeadline(); !ok || d != want {
			t.Fatalf("t=%d: deadline = %v,%v want %v,true", now, d, ok, want)
		}
		w.PollUntil(now, func(at sim.Time, v int) {
			if ats[v] != at {
				t.Fatalf("item %d delivered with time %d, inserted at %d", v, at, ats[v])
			}
			if slotStart := at - at%gran; slotStart > now {
				t.Fatalf("item %d (at %d) delivered early at t=%d", v, at, now)
			}
			if slotStart := at - at%gran; slotStart < last-last%gran {
				t.Fatalf("item %d (at %d) delivered after an item at %d", v, at, last)
			}
			last = at
			ats[v] = -1
			pending--
		})
		if w.Len() != pending {
			t.Fatalf("t=%d: len = %d, want %d", now, w.Len(), pending)
		}
	}
	if pending == 0 {
		t.Fatal("test schedule too short: nothing left to drain")
	}
	n := w.Drain(func(at sim.Time, v int) {
		if ats[v] != at {
			t.Fatalf("drained item %d with time %d, inserted at %d", v, at, ats[v])
		}
		ats[v] = -1
	})
	if n != pending || w.Len() != 0 {
		t.Fatalf("drain returned %d (want %d), len %d", n, pending, w.Len())
	}
	for v, at := range ats {
		if at >= 0 {
			t.Fatalf("item %d (at %d) lost", v, at)
		}
	}
	if _, ok := w.NextDeadline(); ok {
		t.Fatal("drained wheel still reports a deadline")
	}
}

func TestWrapAround(t *testing.T) {
	w := New[int](4, 100) // horizon 400
	for round := 0; round < 10; round++ {
		base := sim.Time(round * 400)
		w.Insert(base+150, round)
		var got []int
		w.PollUntil(base+400, func(_ sim.Time, v int) { got = append(got, v) })
		if len(got) != 1 || got[0] != round {
			t.Fatalf("round %d: got %v", round, got)
		}
	}
}

func TestDrain(t *testing.T) {
	w := New[int](16, 100)
	for i := 0; i < 10; i++ {
		w.Insert(sim.Time(i*137), i)
	}
	var got []int
	n := w.Drain(func(_ sim.Time, v int) { got = append(got, v) })
	if n != 10 || w.Len() != 0 {
		t.Fatalf("drain returned %d, len=%d", n, w.Len())
	}
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("drain lost items: %v", got)
		}
	}
}

func TestNextDeadline(t *testing.T) {
	w := New[int](32, 100)
	if _, ok := w.NextDeadline(); ok {
		t.Fatal("empty wheel should have no deadline")
	}
	w.Insert(900, 1)
	w.Insert(300, 2)
	if d, ok := w.NextDeadline(); !ok || d != 300 {
		t.Fatalf("deadline = %v,%v want 300,true", d, ok)
	}
}

func TestHeadDoesNotOverAdvance(t *testing.T) {
	w := New[int](8, 100)
	w.PollUntil(150, func(sim.Time, int) {})
	// An insert for "now" must still be deliverable.
	w.Insert(160, 5)
	var got []int
	w.PollUntil(160, func(_ sim.Time, v int) { got = append(got, v) })
	if len(got) != 1 {
		t.Fatalf("item for current slot lost: %v", got)
	}
}

func TestCounters(t *testing.T) {
	w := New[int](8, 100)
	w.Insert(1, 1)
	w.Insert(2, 2)
	w.PollUntil(1000, func(sim.Time, int) {})
	if w.Inserted != 2 || w.Polled != 1 {
		t.Fatalf("counters: inserted=%d polled=%d", w.Inserted, w.Polled)
	}
}

// Property: every inserted item is delivered exactly once, never before
// the start of its slot and at the first poll at or after it — whether
// it was inserted within the horizon or beyond it.
func TestNoLossNoEarlyProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		w := New[int](128, 64)
		type rec struct {
			at    sim.Time
			count int
		}
		items := make([]rec, len(offsets))
		for i, off := range offsets {
			at := sim.Time(off)
			items[i] = rec{at: at}
			w.Insert(at, i)
		}
		// Poll in 200ns steps up to max time + horizon.
		var mx sim.Time
		for _, it := range items {
			if it.at > mx {
				mx = it.at
			}
		}
		ok := true
		for now := sim.Time(0); now <= mx+200; now += 200 {
			w.PollUntil(now, func(_ sim.Time, v int) {
				it := &items[v]
				it.count++
				slotStart := it.at - it.at%64
				if slotStart > now || now-slotStart >= 200 {
					ok = false
				}
			})
		}
		for _, it := range items {
			if it.count != 1 {
				return false
			}
		}
		return ok && w.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero slots should panic")
		}
	}()
	New[int](0, 100)
}

func BenchmarkInsertPoll(b *testing.B) {
	w := New[int](1024, 100)
	b.ReportAllocs()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		w.Insert(now+500, i)
		now += 100
		w.PollUntil(now, func(sim.Time, int) {})
	}
}

// TestInsertReusesSpareAcrossRing pins the steady-state allocation
// bound: as the head walks the ring, inserts into slot indexes that
// were never touched before must reuse recycled backings from the free
// list instead of growing fresh ones, so a paced workload allocates
// for at most as many slots as are ever non-empty at once.
func TestInsertReusesSpareAcrossRing(t *testing.T) {
	w := New[int](64, 10)
	now := sim.Time(0)
	// Prime: one backing enters the free list.
	w.Insert(now, 1)
	w.PollUntil(now, func(sim.Time, int) {})
	avg := testing.AllocsPerRun(1000, func() {
		now += 10 // head advances one slot per cycle: every index is fresh
		w.Insert(now, 2)
		if w.PollUntil(now, func(sim.Time, int) {}) != 1 {
			t.Fatal("item not delivered")
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state paced insert allocates %.3f times per op, want 0", avg)
	}
}
