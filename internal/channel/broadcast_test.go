package channel

import (
	"testing"

	"abenet/internal/dist"
	"abenet/internal/rng"
	"abenet/internal/sim"
	"abenet/internal/simtime"
)

// TestLocalBroadcastAtomicDelivery pins the model's defining property: one
// Send is one transmission with a single delivery instant, and the network
// fan-out sees exactly one callback per transmission.
func TestLocalBroadcastAtomicDelivery(t *testing.T) {
	k := sim.New()
	var got []any
	var at []simtime.Time
	lb := NewLocalBroadcast(NewStore(k, DeliverFunc(func(p any) {
		got = append(got, p)
		at = append(at, k.Now())
	})), 0, dist.NewDeterministic(2), rng.New(1), 3)

	d := lb.Send("hello")
	if d != simtime.Duration(2) {
		t.Fatalf("Send returned delay %v, want 2", d)
	}
	lb.Send("world")
	if err := k.Run(simtime.Time(10), 0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "hello" || got[1] != "world" {
		t.Fatalf("fan-out callbacks = %v, want [hello world]", got)
	}
	if at[0] != simtime.Time(2) || at[1] != simtime.Time(2) {
		t.Fatalf("delivery instants = %v, want both at t=2", at)
	}

	st := lb.Stats()
	if st.Sent != 2 || st.Transmissions != 2 {
		t.Fatalf("Sent/Transmissions = %d/%d, want 2/2", st.Sent, st.Transmissions)
	}
	if st.Delivered != 6 {
		t.Fatalf("Delivered = %d, want 6 (2 transmissions x fanout 3)", st.Delivered)
	}
	if st.MeanDelay() != 2 {
		t.Fatalf("MeanDelay = %g, want 2", st.MeanDelay())
	}
	if lb.MeanDelay() != 2 {
		t.Fatalf("link MeanDelay = %g, want 2", lb.MeanDelay())
	}
}

func TestLocalBroadcastRejectsBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative fanout did not panic")
		}
	}()
	NewLocalBroadcast(NewStore(sim.New(), DeliverFunc(func(any) {})), 0, dist.NewDeterministic(1), rng.New(1), -1)
}
