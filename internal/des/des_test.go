package des

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"exaresil/internal/units"
)

func TestFiringOrder(t *testing.T) {
	s := New()
	var got []units.Duration
	for _, at := range []units.Duration{5, 1, 3, 2, 4} {
		s.Schedule(at, "e", func(sim *Simulator) {
			got = append(got, sim.Now())
		})
	}
	s.Run()
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(7, "tie", func(*Simulator) { order = append(order, i) })
	}
	s.Run()
	if !sort.IntsAreSorted(order) {
		t.Errorf("simultaneous events fired out of scheduling order: %v", order)
	}
}

func TestClockAdvances(t *testing.T) {
	s := New()
	fired := 0
	s.Schedule(10, "a", func(sim *Simulator) {
		fired++
		if sim.Now() != 10 {
			t.Errorf("Now()=%v inside event at 10", sim.Now())
		}
		sim.After(5, "b", func(sim *Simulator) {
			fired++
			if sim.Now() != 15 {
				t.Errorf("Now()=%v inside chained event, want 15", sim.Now())
			}
		})
	})
	s.Run()
	if s.Now() != 15 {
		t.Errorf("final clock %v, want 15", s.Now())
	}
	if fired != 2 {
		t.Errorf("fired %d, want 2", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(10, "advance", func(*Simulator) {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	s.Schedule(5, "late", func(*Simulator) {})
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback should panic")
		}
	}()
	New().Schedule(1, "nil", nil)
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := units.Duration(1); i <= 10; i++ {
		s.Schedule(i, "e", func(sim *Simulator) {
			count++
			if count == 3 {
				sim.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Errorf("fired %d events after Stop at 3", count)
	}
	s.Run() // resumes
	if count != 10 {
		t.Errorf("resumed run fired %d total, want 10", count)
	}
}

func TestTrace(t *testing.T) {
	s := New()
	var labels []string
	s.Trace = func(_ units.Duration, label string) { labels = append(labels, label) }
	s.Schedule(1, "first", func(*Simulator) {})
	s.Schedule(2, "second", func(*Simulator) {})
	s.Run()
	if len(labels) != 2 || labels[0] != "first" || labels[1] != "second" {
		t.Errorf("trace saw %v", labels)
	}
}

func TestStepOnEmpty(t *testing.T) {
	if New().Step() {
		t.Error("Step on empty queue reported true")
	}
}

// TestHeapPropertyRandomSchedules drives the queue with arbitrary schedules
// and checks events always fire in (time, scheduling order) with none lost.
func TestHeapPropertyRandomSchedules(t *testing.T) {
	prop := func(times []uint16) bool {
		s := New()
		var firedOrder []int
		for i, raw := range times {
			s.Schedule(units.Duration(raw), "p", func(*Simulator) {
				firedOrder = append(firedOrder, i)
			})
		}
		s.Run()
		// Exact-order check: firing order must be the schedule stably
		// sorted by time — (time, seq) order, since insertion order is seq
		// order. This pins the heap implementation, not just the heap
		// property.
		expect := make([]int, len(times))
		for i := range expect {
			expect[i] = i
		}
		sort.SliceStable(expect, func(i, j int) bool { return times[expect[i]] < times[expect[j]] })
		return slices.Equal(firedOrder, expect)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleFire(b *testing.B) {
	s := New()
	for i := 0; i < b.N; i++ {
		s.After(1, "bench", func(*Simulator) {})
		s.Step()
	}
}

func BenchmarkDeepQueue(b *testing.B) {
	s := New()
	for i := 0; i < 10000; i++ {
		s.Schedule(units.Duration(i)+1e9, "deep", func(*Simulator) {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1, "bench", func(*Simulator) {})
		s.Step()
	}
}
