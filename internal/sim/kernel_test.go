package sim

import (
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.Schedule(3*Second, func() { order = append(order, 3) })
	k.Schedule(1*Second, func() { order = append(order, 1) })
	k.Schedule(2*Second, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if k.Now() != 3*Second {
		t.Fatalf("clock = %v, want 3s", k.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(Second, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.Schedule(Second, func() { fired = true })
	e.Cancel()
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("Cancelled() should report true")
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	var times []Time
	k.Schedule(Second, func() {
		times = append(times, k.Now())
		k.Schedule(Second, func() {
			times = append(times, k.Now())
		})
	})
	k.Run()
	if len(times) != 2 || times[0] != Second || times[1] != 2*Second {
		t.Fatalf("nested scheduling wrong: %v", times)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	count := 0
	k.Ticker(Second, func() { count++ })
	k.RunUntil(5*Second + 500*Millisecond)
	if count != 5 {
		t.Fatalf("ticker fired %d times, want 5", count)
	}
	if k.Now() != 5*Second+500*Millisecond {
		t.Fatalf("clock = %v after RunUntil", k.Now())
	}
	// Continue: ticker must still be alive.
	k.RunUntil(10 * Second)
	if count != 10 {
		t.Fatalf("ticker fired %d times after resume, want 10", count)
	}
}

// A cancelled event at the head of the queue must not let RunUntil fire a
// live event due after its horizon.
func TestRunUntilSkipsCancelledHead(t *testing.T) {
	k := NewKernel(1)
	k.At(Second, func() { t.Error("cancelled event fired") }).Cancel()
	fired := false
	k.At(10*Second, func() { fired = true })
	k.RunUntil(5 * Second)
	if fired || k.Now() != 5*Second {
		t.Fatalf("RunUntil(5s): 10s event fired=%v, clock %v", fired, k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("%d events pending after RunUntil(5s), want the live one", k.Pending())
	}
	k.RunUntil(10 * Second)
	if !fired {
		t.Fatal("10s event did not fire by RunUntil(10s)")
	}
}

func TestTickerCancel(t *testing.T) {
	k := NewKernel(1)
	count := 0
	var cancel func()
	cancel = k.Ticker(Second, func() {
		count++
		if count == 3 {
			cancel()
		}
	})
	k.RunUntil(100 * Second)
	if count != 3 {
		t.Fatalf("cancelled ticker kept firing: %d", count)
	}
}

func TestStop(t *testing.T) {
	k := NewKernel(1)
	count := 0
	k.Ticker(Second, func() {
		count++
		if count == 2 {
			k.Stop()
		}
	})
	k.Run()
	if count != 2 {
		t.Fatalf("Stop did not halt Run: count=%d", count)
	}
}

func TestPastEventClamped(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(10*Second, func() {
		e := k.At(Second, func() {}) // in the past
		if e.At() != 10*Second {
			t.Errorf("past event scheduled at %v, want clamp to now", e.At())
		}
	})
	k.Run()
}

func TestNegativeDelayClamped(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.Schedule(-5*Second, func() { fired = true })
	k.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if k.Now() != 0 {
		t.Fatalf("clock moved backwards or forwards: %v", k.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		k := NewKernel(42)
		var fires []Time
		for i := 0; i < 100; i++ {
			k.Schedule(k.ExpJitter(Second), func() { fires = append(fires, k.Now()) })
		}
		k.Run()
		return fires
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different event counts across identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatalf("Seconds() = %v", (2 * Second).Seconds())
	}
	if (1500 * Millisecond).String() != "1.500000s" {
		t.Fatalf("String() = %q", (1500 * Millisecond).String())
	}
}

// Property: the kernel clock is monotonically non-decreasing across any
// sequence of scheduled delays.
func TestPropMonotonicClock(t *testing.T) {
	f := func(delays []int16) bool {
		k := NewKernel(7)
		last := Time(-1)
		ok := true
		for _, d := range delays {
			k.Schedule(Time(d)*Millisecond, func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every non-cancelled event fires exactly once.
func TestPropAllEventsFire(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel(9)
		fired := 0
		for _, d := range delays {
			k.Schedule(Time(d)*Millisecond, func() { fired++ })
		}
		k.Run()
		return fired == len(delays) && k.Fired() == uint64(len(delays))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformJitterBounds(t *testing.T) {
	k := NewKernel(3)
	for i := 0; i < 1000; i++ {
		j := k.UniformJitter(Second)
		if j < 0 || j >= Second {
			t.Fatalf("jitter out of bounds: %v", j)
		}
	}
	if k.UniformJitter(0) != 0 || k.ExpJitter(0) != 0 {
		t.Fatal("zero-max jitter should be zero")
	}
}
