package network

import (
	"fmt"
	"testing"

	"abenet/internal/byzantine"
	"abenet/internal/channel"
	"abenet/internal/dist"
	"abenet/internal/faults"
	"abenet/internal/golden"
	"abenet/internal/rng"
	"abenet/internal/simtime"
	"abenet/internal/topology"
)

// word is a Corruptible test payload: a corrupted copy carries a fresh tag.
type word struct {
	Tag int
}

func (w word) Corrupt(r *rng.Source) any {
	w.Tag = 1000 + r.Intn(1000)
	return w
}

// announcer broadcasts one payload from node 0 at time zero; every node
// records what it received and from which in-port.
type announcer struct {
	id      int
	sender  bool
	payload any
	got     map[int][]any // in-port -> payloads, in delivery order
	gotAt   []simtime.Time
}

func (a *announcer) Init(ctx *Context) {
	a.got = map[int][]any{}
	if a.sender {
		ctx.Broadcast(a.payload)
	}
}

func (a *announcer) OnMessage(ctx *Context, inPort int, payload any) {
	a.got[inPort] = append(a.got[inPort], payload)
	a.gotAt = append(a.gotAt, ctx.Now())
}

func (a *announcer) OnTimer(*Context, int) {}

// buildAnnouncers wires a complete graph where node 0 broadcasts payload.
func buildAnnouncers(t *testing.T, n int, cfg Config, payload any) *Network {
	t.Helper()
	cfg.Graph = topology.Complete(n)
	if !cfg.LocalBroadcast && cfg.Links == nil {
		cfg.Links = channel.RandomDelayFactory(dist.NewExponential(1))
	}
	net, err := New(cfg, func(i int) Node {
		return &announcer{id: i, sender: i == 0, payload: payload}
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func receivedWords(net *Network) []word {
	var out []word
	for i := 1; i < net.N(); i++ {
		for _, msgs := range net.NodeAt(i).(*announcer).got {
			for _, m := range msgs {
				out = append(out, m.(word))
			}
		}
	}
	return out
}

// TestEquivocationDivergesPointToPoint: an Equivocate role on a p2p
// network tells different neighbours different things; on a local-broadcast
// network the medium forces one consistent (corrupted) value — the
// telemetry distinguishes the two.
func TestEquivocationDivergesPointToPoint(t *testing.T) {
	plan := byzantine.Equivocators(1)

	p2p := buildAnnouncers(t, 6, Config{Seed: 7, Byzantine: plan}, word{Tag: 1})
	if err := p2p.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	got := receivedWords(p2p)
	if len(got) != 5 {
		t.Fatalf("p2p receivers got %d messages, want 5", len(got))
	}
	distinct := map[int]bool{}
	for _, w := range got {
		distinct[w.Tag] = true
		if w.Tag == 1 {
			t.Fatal("p2p equivocator leaked the honest payload")
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("p2p equivocation produced a consistent value %v (want divergence)", got)
	}
	tel := p2p.FaultTelemetry()
	if tel == nil || tel.Byzantine == nil {
		t.Fatal("no byzantine telemetry on an adversarial run")
	}
	if tel.Byzantine.Equivocations != 5 || tel.Byzantine.Corruptions != 0 {
		t.Fatalf("p2p telemetry = %+v, want 5 equivocations", tel.Byzantine)
	}

	bc := buildAnnouncers(t, 6, Config{Seed: 7, Byzantine: plan, LocalBroadcast: true}, word{Tag: 1})
	if err := bc.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	got = receivedWords(bc)
	if len(got) != 5 {
		t.Fatalf("broadcast receivers got %d messages, want 5", len(got))
	}
	for _, w := range got[1:] {
		if w != got[0] {
			t.Fatalf("local broadcast delivered divergent values %v — the medium must prevent equivocation", got)
		}
	}
	btel := bc.FaultTelemetry().Byzantine
	if btel.Equivocations != 0 || btel.Corruptions != 1 {
		t.Fatalf("broadcast telemetry = %+v, want 1 corruption, 0 equivocations", btel)
	}
}

// TestLocalBroadcastAtomicInstant: all receivers of one radio transmission
// see it at the same virtual instant.
func TestLocalBroadcastAtomicInstant(t *testing.T) {
	net := buildAnnouncers(t, 5, Config{Seed: 3, LocalBroadcast: true}, word{Tag: 9})
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	var at []simtime.Time
	for i := 1; i < net.N(); i++ {
		a := net.NodeAt(i).(*announcer)
		if len(a.gotAt) != 1 {
			t.Fatalf("node %d received %d messages, want 1", i, len(a.gotAt))
		}
		at = append(at, a.gotAt[0])
	}
	for _, ts := range at[1:] {
		if ts != at[0] {
			t.Fatalf("delivery instants diverge: %v", at)
		}
	}
	m := net.Metrics()
	if m.MessagesSent != 1 || m.Transmissions != 1 || m.MessagesDelivered != 4 {
		t.Fatalf("metrics = %+v, want 1 send / 1 transmission / 4 deliveries", m)
	}
}

// TestSendPanicsOnLocalBroadcast pins the medium discipline.
func TestSendPanicsOnLocalBroadcast(t *testing.T) {
	net, err := New(Config{
		Graph:          topology.Complete(3),
		LocalBroadcast: true,
		Seed:           1,
	}, func(i int) Node { return &pointToPointInit{} })
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Send on a local-broadcast network did not panic")
		}
	}()
	net.Run(simtime.Forever, 0)
}

type pointToPointInit struct{}

func (pointToPointInit) Init(ctx *Context)            { ctx.Send(0, "x") }
func (pointToPointInit) OnMessage(*Context, int, any) {}
func (pointToPointInit) OnTimer(*Context, int)        {}

// TestMuteAndStallAndCorrupt covers the remaining behaviours.
func TestMuteAndStallAndCorrupt(t *testing.T) {
	// Mute: nothing arrives, the send still counts, omissions recorded.
	mute := buildAnnouncers(t, 4, Config{Seed: 5, Byzantine: &byzantine.Plan{
		Roles: []byzantine.Role{{Node: 0, Behavior: byzantine.Mute}},
	}}, word{Tag: 1})
	if err := mute.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if got := receivedWords(mute); len(got) != 0 {
		t.Fatalf("mute sender delivered %v", got)
	}
	m := mute.Metrics()
	if m.MessagesSent != 3 || m.MessagesDelivered != 0 {
		t.Fatalf("mute metrics = %+v", m)
	}
	if tel := mute.FaultTelemetry().Byzantine; tel.Omissions != 3 {
		t.Fatalf("mute telemetry = %+v, want 3 omissions", tel)
	}

	// Corrupt: consistent substitution per message, but the honest payload
	// never arrives.
	corr := buildAnnouncers(t, 4, Config{Seed: 5, Byzantine: &byzantine.Plan{
		Roles: []byzantine.Role{{Node: 0, Behavior: byzantine.Corrupt}},
	}}, word{Tag: 1})
	if err := corr.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	got := receivedWords(corr)
	if len(got) != 3 {
		t.Fatalf("corrupt run delivered %d, want 3", len(got))
	}
	for _, w := range got {
		if w.Tag == 1 {
			t.Fatal("corrupt role leaked the honest payload")
		}
	}
	if tel := corr.FaultTelemetry().Byzantine; tel.Corruptions != 3 {
		t.Fatalf("corrupt telemetry = %+v, want 3 corruptions", tel)
	}

	// Stall: payloads arrive intact but strictly later than the honest
	// baseline's latest delivery.
	baseline := buildAnnouncers(t, 4, Config{Seed: 5}, word{Tag: 1})
	if err := baseline.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	var honestLast simtime.Time
	for i := 1; i < baseline.N(); i++ {
		for _, ts := range baseline.NodeAt(i).(*announcer).gotAt {
			if ts.After(honestLast) {
				honestLast = ts
			}
		}
	}
	stall := buildAnnouncers(t, 4, Config{Seed: 5, Byzantine: &byzantine.Plan{
		Roles: []byzantine.Role{{Node: 0, Behavior: byzantine.Stall, StallDelay: dist.NewDeterministic(50)}},
	}}, word{Tag: 1})
	if err := stall.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	got = receivedWords(stall)
	if len(got) != 3 {
		t.Fatalf("stall run delivered %d, want 3", len(got))
	}
	for _, w := range got {
		if w.Tag != 1 {
			t.Fatalf("stall role altered the payload: %v", w)
		}
	}
	for i := 1; i < stall.N(); i++ {
		for _, ts := range stall.NodeAt(i).(*announcer).gotAt {
			if !ts.After(honestLast) {
				t.Fatalf("stalled delivery at %v not after honest last %v", ts, honestLast)
			}
		}
	}
	if tel := stall.FaultTelemetry().Byzantine; tel.Stalls != 3 {
		t.Fatalf("stall telemetry = %+v, want 3 stalls", tel)
	}
}

// TestNilByzantinePlanByteIdentical: a nil plan must not perturb a run in
// any way (the adversary-free determinism contract), and a plan on
// non-Corruptible payloads passes them through untouched.
func TestNilByzantinePlanByteIdentical(t *testing.T) {
	render := func(cfg Config) string {
		net := buildAnnouncers(t, 5, cfg, "opaque")
		if err := net.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
		var state []any
		for i := 0; i < net.N(); i++ {
			state = append(state, net.NodeAt(i).(*announcer).got, net.NodeAt(i).(*announcer).gotAt)
		}
		return fmt.Sprint(net.Metrics(), net.Now(), state)
	}
	plain := render(Config{Seed: 11})
	again := render(Config{Seed: 11})
	if plain != again {
		t.Fatal("plain run not deterministic")
	}
	// An equivocator that cannot parse the payload must leave the entire
	// run byte-identical except for telemetry presence: "opaque" is not
	// Corruptible, and Prob 1 draws nothing from any shared stream.
	adversarial := render(Config{Seed: 11, Byzantine: byzantine.Equivocators(1)})
	if adversarial != plain {
		t.Fatalf("non-Corruptible payloads must pass through unchanged:\n%s\n%s", plain, adversarial)
	}
}

// TestByzantineRejectsInvalidPlan: plan validation surfaces from New.
func TestByzantineRejectsInvalidPlan(t *testing.T) {
	_, err := New(Config{
		Graph:     topology.Complete(3),
		Links:     channel.RandomDelayFactory(dist.NewExponential(1)),
		Byzantine: &byzantine.Plan{Roles: []byzantine.Role{{Node: 9, Behavior: byzantine.Mute}}},
	}, func(i int) Node { return &announcer{} })
	if err == nil {
		t.Fatal("invalid byzantine plan accepted")
	}
}

// TestBroadcastFallsBackToSendLoop: on a point-to-point network Broadcast
// is a loop over Send, one independent delay per receiver.
func TestBroadcastFallsBackToSendLoop(t *testing.T) {
	net := buildAnnouncers(t, 5, Config{Seed: 2}, word{Tag: 4})
	if err := net.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	m := net.Metrics()
	if m.MessagesSent != 4 || m.MessagesDelivered != 4 {
		t.Fatalf("p2p broadcast metrics = %+v, want 4 sends / 4 deliveries", m)
	}
	instants := map[simtime.Time]bool{}
	for i := 1; i < net.N(); i++ {
		for _, ts := range net.NodeAt(i).(*announcer).gotAt {
			instants[ts] = true
		}
	}
	if len(instants) < 2 {
		t.Fatalf("p2p broadcast delivered everything at one instant %v — delays should be independent", instants)
	}
}

// TestBroadcastConfigValidation pins the config error paths.
func TestBroadcastConfigValidation(t *testing.T) {
	mk := func(i int) Node { return &announcer{} }
	if _, err := New(Config{
		Graph:          topology.Complete(3),
		LocalBroadcast: true,
		Links:          channel.RandomDelayFactory(dist.NewExponential(1)),
	}, mk); err == nil {
		t.Fatal("LocalBroadcast+Links accepted")
	}
	if _, err := New(Config{
		Graph:          topology.Complete(3),
		LocalBroadcast: true,
		Faults:         &faults.Plan{Loss: 0.5},
	}, mk); err == nil {
		t.Fatal("LocalBroadcast+link faults accepted")
	}
}

// TestAdversaryDeterminism: same seed, same plan — identical intervention
// telemetry and traffic, including under concurrent replay.
func TestAdversaryDeterminism(t *testing.T) {
	golden.Replay(t, func() (string, error) {
		plan := &byzantine.Plan{Roles: []byzantine.Role{
			{Node: 0, Behavior: byzantine.Equivocate, Prob: 0.6},
			{Node: 1, Behavior: byzantine.Stall, Prob: 0.4},
		}}
		net, err := New(Config{
			Graph:     topology.Complete(6),
			Links:     channel.RandomDelayFactory(dist.NewExponential(1)),
			Seed:      99,
			Byzantine: plan,
		}, func(i int) Node { return &announcer{id: i, sender: i == 0, payload: word{Tag: 3}} })
		if err != nil {
			return "", err
		}
		if err := net.Run(simtime.Forever, 0); err != nil {
			return "", err
		}
		return fmt.Sprint(receivedWords(net), *net.FaultTelemetry().Byzantine, net.Metrics(), net.Now()), nil
	})
}
