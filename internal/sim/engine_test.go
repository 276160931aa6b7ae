package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineDispatchOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("end time = %v, want 3", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("dispatch order = %v, want [1 2 3]", order)
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v, want ascending scheduling order", order)
		}
	}
}

func TestEngineAfterAccumulates(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.After(1, func() {
		times = append(times, e.Now())
		e.After(2, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times = %v, want [1 3]", times)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(1, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("event does not report cancelled")
	}
	// Double-cancel and zero-handle cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(Event{})
}

func TestEngineCancelOneOfMany(t *testing.T) {
	e := NewEngine(1)
	var got []int
	evs := make([]Event, 5)
	for i := 0; i < 5; i++ {
		i := i
		evs[i] = e.At(Time(i+1), func() { got = append(got, i) })
	}
	e.Cancel(evs[2])
	e.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(2)
	if len(fired) != 2 {
		t.Fatalf("fired %v before limit, want 2 events", fired)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %v after full run, want 4 events", fired)
	}
}

// TestEngineOnAdvance pins the clock-advance hook's contract: it fires
// once per distinct later timestamp, after that timestamp's deferred
// procedures, with Now still at the old time, and never past the last
// dispatched event.
func TestEngineOnAdvance(t *testing.T) {
	e := NewEngine(1)
	var log []string
	type adv struct{ from, to Time }
	var advances []adv
	e.OnAdvance(func(next Time) {
		advances = append(advances, adv{e.Now(), next})
		log = append(log, "advance")
	})
	for _, at := range []Time{0, 1, 1, 2.5, 2.5, 2.5, 4, 7} {
		e.At(at, func() {
			log = append(log, "event")
			e.Defer(func() { log = append(log, "defer") })
		})
	}
	e.RunUntil(4)
	want := []adv{{0, 1}, {1, 2.5}, {2.5, 4}}
	if len(advances) != len(want) {
		t.Fatalf("advances = %v, want %v", advances, want)
	}
	for i := range want {
		if advances[i] != want[i] {
			t.Fatalf("advance %d = %v, want %v (Now must still be the old time)", i, advances[i], want[i])
		}
	}
	// Every advance follows the previous timestamp's deferred procedures.
	for i, entry := range log {
		if entry == "advance" && log[i-1] != "defer" {
			t.Fatalf("advance at log[%d] follows %q, want a deferred procedure: %v", i, log[i-1], log)
		}
	}
	// The event at 7 stays queued past the limit: no advance toward it.
	if e.Now() != 4 || len(advances) != 3 {
		t.Fatalf("now = %v, advances = %d after RunUntil(4)", e.Now(), len(advances))
	}
	if end := e.Run(); end != 7 || len(advances) != 4 || advances[3] != (adv{4, 7}) {
		t.Fatalf("end = %v, advances = %v, want the last one 4 -> 7", end, advances)
	}
	// A drained engine never advances again.
	e.Run()
	if len(advances) != 4 {
		t.Fatalf("drained engine advanced: %v", advances)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.At(1, func() { count++; e.Stop() })
	e.At(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d after Stop, want 1", count)
	}
	e.Run() // resumes
	if count != 2 {
		t.Fatalf("count = %d after resume, want 2", count)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, func() {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineMaxEventsGuard(t *testing.T) {
	e := NewEngine(1)
	e.MaxEvents = 10
	var loop func()
	loop = func() { e.After(1, loop) }
	e.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Error("runaway loop did not trip MaxEvents")
		}
	}()
	e.Run()
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(42)
		var out []Time
		var tick func()
		tick = func() {
			out = append(out, e.Now())
			if len(out) < 50 {
				e.After(Time(e.RNG().Exponential(1)), tick)
			}
		}
		e.After(0, tick)
		e.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeDuration(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0.000001, "1us"},
		{0.5, "500.0ms"},
		{1.5, "1.50s"},
		{90, "1.5m"},
		{7200, "2.00h"},
		{-90, "-1.5m"},
	}
	for _, c := range cases {
		if got := c.in.Duration(); got != c.want {
			t.Errorf("Duration(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Property: events always dispatch in nondecreasing time order regardless of
// insertion order.
func TestEngineHeapOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine(7)
		var seen []Time
		for _, d := range delays {
			at := Time(d)
			e.At(at, func() { seen = append(seen, at) })
		}
		e.Run()
		return !math.IsNaN(0) && isNonDecreasing(seen) && len(seen) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func isNonDecreasing(ts []Time) bool {
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			return false
		}
	}
	return true
}
