package des

import (
	"fmt"
	"testing"

	"exaresil/internal/units"
)

// driveOps interprets a fuzzer-chosen byte stream as scheduler operations
// against one Simulator. Ops are consumed two bytes at a time (opcode,
// argument):
//
//	0: schedule a plain event at now + arg
//	1: schedule an event that schedules a follow-up from inside its own
//	   callback
//	2: Step arg%4 times
//	3: schedule an event at now + arg that calls Stop, then Run
//
// Every scheduled event is also entered in a reference list with its
// arming number; each firing must be the pending entry that is first by
// (time, arming number), i.e. the fire order is a stable sort of the
// scheduled events by time.
func driveOps(t *testing.T, sim *Simulator, ops []byte) {
	t.Helper()
	type armed struct {
		at    units.Duration
		seq   int
		label string
	}
	var pending []armed
	seq := 0
	schedule := func(at units.Duration, label string, fn Callback) {
		pending = append(pending, armed{at, seq, label})
		seq++
		sim.Schedule(at, label, fn)
	}
	sim.Trace = func(at units.Duration, label string) {
		if len(pending) == 0 {
			t.Fatalf("fired %q at %v with nothing scheduled", label, at)
		}
		first := 0
		for i, p := range pending {
			if q := pending[first]; p.at < q.at || (p.at == q.at && p.seq < q.seq) {
				first = i
			}
		}
		if pending[first].label != label || pending[first].at != at {
			t.Fatalf("fired %q at %v; the first pending event by (time, arming order) is %+v", label, at, pending[first])
		}
		pending = append(pending[:first], pending[first+1:]...)
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%4, ops[i+1]
		label := fmt.Sprintf("e%d", i/2)
		at := sim.Now() + units.Duration(arg)
		switch op {
		case 0:
			schedule(at, label, func(*Simulator) {})
		case 1:
			d := units.Duration(arg % 16)
			schedule(at, label, func(s *Simulator) {
				schedule(s.Now()+d, label+"+", func(*Simulator) {})
			})
		case 2:
			for range arg % 4 {
				sim.Step()
			}
		case 3:
			schedule(at, label+"!", func(s *Simulator) { s.Stop() })
			sim.Run()
		}
	}
	sim.Run()
	if len(pending) != 0 {
		t.Fatalf("%d events never fired: %+v", len(pending), pending)
	}
}

// FuzzSimulatorOrder drives a simulator through an arbitrary operation
// stream (see driveOps): every event fires, in (time, arming order), and
// fired times never run backwards.
func FuzzSimulatorOrder(f *testing.F) {
	f.Add([]byte{0, 5, 0, 3, 3, 10})
	f.Add([]byte{1, 4, 2, 0, 3, 255, 0, 0})
	f.Add([]byte{0, 1, 0, 1, 2, 1, 1, 9, 3, 2, 0, 7, 1, 7, 3, 200})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 2, 2, 0, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		driveOps(t, New(), ops)
	})
}
