package sim

import (
	"testing"

	"abenet/internal/simtime"
)

// TestObserverFiresAfterEveryEvent pins the hook contract: the observer
// runs once per executed event, after the handler (so it sees the
// handler's effects, the advanced clock and the incremented counter), and
// setting nil detaches it.
func TestObserverFiresAfterEveryEvent(t *testing.T) {
	k := New()
	var seen []uint64
	var times []simtime.Time
	handlerRan := false
	k.SetObserver(func() {
		seen = append(seen, k.Executed())
		times = append(times, k.Now())
		if !handlerRan {
			t.Error("observer fired before the event handler")
		}
	})
	for i := 1; i <= 3; i++ {
		at := simtime.Time(float64(i))
		k.AtFunc(at, func() { handlerRan = true })
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 1 || seen[2] != 3 {
		t.Fatalf("observer saw executed counts %v, want [1 2 3]", seen)
	}
	if times[1] != 2 {
		t.Fatalf("observer saw time %v at event 2, want the event's instant", times[1])
	}

	k2 := New()
	fired := 0
	k2.SetObserver(func() { fired++ })
	k2.SetObserver(nil)
	k2.AtFunc(1, func() {})
	if err := k2.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("detached observer fired %d times", fired)
	}
}
