package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"abenet/internal/channel"
	"abenet/internal/core"
	"abenet/internal/dist"
	"abenet/internal/network"
	"abenet/internal/rng"
	"abenet/internal/service"
	"abenet/internal/sim"
	"abenet/internal/simtime"
	"abenet/internal/spec"
	"abenet/internal/store"
	"abenet/internal/topology"
)

// ringScenario is an election on a unidirectional ring, stated in the terms
// of the layers below the runner. It mirrors runner.Election → core.
// RunElection step by step, so that construction, event execution and
// result collection can be timed apart; its digest must equal the one
// runner.Run reports for the same seed.
type ringScenario struct {
	n        int
	a0, tick float64
	horizon  float64
}

func (w simWorkload) ringScenario() ringScenario {
	return ringScenario{n: w.n, a0: w.a0, tick: w.tick, horizon: w.horizon}
}

// replicaCost is what one replica run measured besides its spans.
type replicaCost struct {
	newAllocs, newBytes float64 // allocator deltas around network.New
}

// run executes the scenario at one seed, recording one span per layer call.
func (s ringScenario) run(seed uint64, rec *recorder, unit int) (digest, replicaCost, error) {
	root := rec.begin("replica", 0, unit)
	defer rec.end(root)

	id := rec.begin("topology.build", root, unit)
	graph := topology.Ring(s.n)
	rec.end(id)

	a0, tick := s.a0, s.tick
	if a0 == 0 {
		t := tick
		if t == 0 {
			t = 1
		}
		a0 = core.A0ForRing(s.n, 1, t, 1)
	}
	nodes := make([]*core.ElectionNode, s.n)
	var nodeErr error
	before := snapRuntime(false)
	id = rec.begin("network.new", root, unit)
	net, err := network.New(network.Config{
		Graph:     graph,
		Links:     channel.RandomDelayFactory(dist.NewExponential(1)),
		Seed:      seed,
		Anonymous: true,
	}, func(i int) network.Node {
		node, err := core.NewElectionNode(core.ElectionNodeConfig{
			RingSize:     s.n,
			A0:           a0,
			TickInterval: tick,
			StopOnLeader: s.horizon == 0,
		})
		if err != nil {
			nodeErr = err
			return nil
		}
		nodes[i] = node
		return node
	})
	rec.end(id)
	after := snapRuntime(false)
	if nodeErr != nil {
		return digest{}, replicaCost{}, nodeErr
	}
	if err != nil {
		return digest{}, replicaCost{}, err
	}
	cost := replicaCost{
		newAllocs: float64(after.mallocs - before.mallocs),
		newBytes:  float64(after.totalAlloc - before.totalAlloc),
	}

	horizon := simtime.Forever
	if s.horizon > 0 {
		horizon = simtime.Time(s.horizon)
	}
	id = rec.begin("network.run", root, unit)
	err = net.Run(horizon, 50_000_000)
	rec.end(id)
	if err != nil {
		return digest{}, replicaCost{}, err
	}

	id = rec.begin("network.collect", root, unit)
	d := digest{Decision: -1}
	for _, node := range nodes {
		if node.State() == core.Leader {
			d.Leaders++
		}
	}
	d.Messages = net.Metrics().MessagesSent
	d.Time = float64(net.Now())
	d.Events = net.Kernel().Executed()
	rec.end(id)
	return d, cost, nil
}

// idleNode is a node that does nothing, for timing network.New alone where
// the protocol's node type is not exported (Ben-Or).
type idleNode struct{}

func (idleNode) Init(*network.Context)                {}
func (idleNode) OnMessage(*network.Context, int, any) {}
func (idleNode) OnTimer(*network.Context, int)        {}

// replica times the network layer for the workload. Election workloads
// replay the traced units (traced[k] is unit first+k) and fail on any
// difference from runner.Run's digest. Ben-Or's node type is unexported, so that
// workload times topology.Complete and network.New with idle nodes only;
// network.run_s and network.collect_s stay 0 there.
func (r *simRun) replica(rec *recorder, first int, traced []unitSample, budget time.Duration, values map[string]float64) error {
	var allocs, bytes []float64
	start := time.Now()
	if r.w.protocol != "election" {
		for k := 0; k < 3 || time.Since(start) < budget/4; k++ {
			root := rec.begin("replica", 0, k)
			id := rec.begin("topology.build", root, k)
			graph := topology.Complete(r.w.n)
			rec.end(id)
			before := snapRuntime(false)
			id = rec.begin("network.new", root, k)
			_, err := network.New(network.Config{
				Graph: graph,
				Links: channel.RandomDelayFactory(dist.NewExponential(1)),
				Seed:  unitSeed(r.seed, k),
			}, func(int) network.Node { return idleNode{} })
			rec.end(id)
			after := snapRuntime(false)
			rec.end(root)
			if err != nil {
				return fmt.Errorf("replica: %w", err)
			}
			allocs = append(allocs, float64(after.mallocs-before.mallocs))
			bytes = append(bytes, float64(after.totalAlloc-before.totalAlloc))
		}
	} else {
		for k, u := range traced {
			if k >= 2 && time.Since(start) >= budget {
				break
			}
			i := first + k
			got, cost, err := r.w.ringScenario().run(unitSeed(r.seed, i), rec, i)
			if err != nil {
				return fmt.Errorf("replica unit %d: %w", i, err)
			}
			if want := digestOf(u.rep); got != want {
				return fmt.Errorf("replica unit %d digest %+v differs from runner.Run's %+v", i, got, want)
			}
			allocs, bytes = append(allocs, cost.newAllocs), append(bytes, cost.newBytes)
		}
	}
	values["network.new_allocs_per_node"] = median(allocs) / float64(r.w.n)
	values["network.new_bytes_per_node"] = median(bytes) / float64(r.w.n)
	return nil
}

// holdShape parameterises the scheduler hold model: the size of the
// pending-event population and the law of the increment by which a popped
// event is pushed back.
type holdShape struct {
	pending     int
	period      float64 // fixed increment; all events start on the same instant
	exponential bool    // exponential(1) increments instead
}

// holdNs measures the named scheduler with the classic hold model: prefill
// the pending set, then repeatedly pop the earliest event and push it back
// one increment later. It returns nanoseconds per pop+push.
func holdNs(scheduler string, shape holdShape) (float64, error) {
	k, err := sim.NewNamed(scheduler)
	if err != nil {
		return 0, err
	}
	r := rng.New(1)
	exp := dist.NewExponential(1)
	var hold sim.Handler
	hold = func() {
		inc := shape.period
		if shape.exponential {
			inc = exp.Sample(r)
		}
		k.AfterFunc(simtime.Duration(inc), hold)
	}
	for i := 0; i < shape.pending; i++ {
		at := shape.period
		if shape.exponential {
			at = exp.Sample(r)
		}
		k.AtFunc(simtime.Time(at), hold)
	}
	const chunk = 100_000
	for i := 0; i < chunk; i++ { // warm: let the structure reach its steady shape
		k.Step()
	}
	// A scheduler in a pathological regime must not eat the run: stop
	// after two million operations or a second, whichever comes first.
	ops := 0
	start := time.Now()
	for ops < 2_000_000 && time.Since(start) < time.Second {
		for i := 0; i < chunk; i++ {
			k.Step()
		}
		ops += chunk
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops), nil
}

// linkNs sends msgs messages through one link in batches, draining the
// kernel after each batch, and returns nanoseconds and allocations per
// message (send + schedule + deliver).
func linkNs(makeLink func(*sim.Kernel, *rng.Source, channel.DeliverFunc) channel.Link, msgs int) (ns, allocs float64) {
	k := sim.New()
	delivered := 0
	link := makeLink(k, rng.New(1), func(any) { delivered++ })
	var payload any = core.HopMessage{Hop: 1} // boxed once, as a forwarded token is
	const batch = 1024
	run := func(n int) {
		for sent := 0; sent < n; sent += batch {
			for i := 0; i < batch; i++ {
				link.Send(payload)
			}
			_ = k.Run(simtime.Forever, 0) // drains; the only error is a budget we did not set
		}
	}
	run(8 * batch) // grow the delivery pool to its steady size
	before := snapRuntime(false)
	t0 := time.Now()
	run(msgs)
	el := time.Since(t0)
	after := snapRuntime(false)
	return float64(el.Nanoseconds()) / float64(msgs), float64(after.mallocs-before.mallocs) / float64(msgs)
}

// perCallNs times n calls of fn and returns nanoseconds per call.
func perCallNs(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// smallRing is the corpus's election_ring scenario (n = 16, defaults): the
// shape of network a serve-mixed job builds, and of the result it stores.
var smallRing = simWorkload{name: "small-ring", protocol: "election", n: 16}

// probeSink keeps the probes' results live.
var probeSink uint64

// sampleResult runs a small election through the spec layer and returns
// the payload the serving tier would store for it: the store probes and
// serve-mixed's encode probe use a value of real shape and size.
func sampleResult() (*service.Result, error) {
	sp, err := spec.DecodeBytes(smallRing.specBytes(1, ""))
	if err != nil {
		return nil, err
	}
	rep, err := sp.Run()
	if err != nil {
		return nil, err
	}
	return &service.Result{Report: &rep, Metrics: rep.Metrics()}, nil
}

// layerProbes times the layers that no span around a whole run can
// separate: the scheduler (hold model), one link of each discipline, delay
// sampling and stream derivation, and both store tiers.
func layerProbes(shape holdShape, values map[string]float64) error {
	for _, name := range sim.SchedulerNames() {
		ns, err := holdNs(name, shape)
		if err != nil {
			return err
		}
		values["sim.hold_ns."+name] = ns
	}

	exp := dist.NewExponential(1)
	const msgs = 512 * 1024
	var allocs float64
	values["channel.send_deliver_ns.random-delay"], allocs = linkNs(func(k *sim.Kernel, r *rng.Source, d channel.DeliverFunc) channel.Link {
		return channel.NewRandomDelay(k, exp, r, d)
	}, msgs)
	values["channel.allocs_per_msg"] = allocs
	values["channel.send_deliver_ns.fifo"], _ = linkNs(func(k *sim.Kernel, r *rng.Source, d channel.DeliverFunc) channel.Link {
		return channel.NewFIFO(k, exp, r, d)
	}, msgs)
	values["channel.send_deliver_ns.arq"], _ = linkNs(func(k *sim.Kernel, r *rng.Source, d channel.DeliverFunc) channel.Link {
		return channel.NewARQ(k, 0.5, 0.5, r, d)
	}, msgs)

	r := rng.New(1)
	var fsum float64
	values["dist.sample_ns.exponential"] = perCallNs(4_000_000, func(int) { fsum += exp.Sample(r) })
	values["rng.uint64_ns"] = perCallNs(16_000_000, func(int) { probeSink += r.Uint64() })
	values["rng.derive_ns"] = perCallNs(2_000_000, func(i int) { probeSink += r.DeriveIndexed("node", i).Uint64() })
	probeSink += uint64(fsum)

	return storeProbes(values)
}

// storeProbes times the two store tiers directly with a payload of the
// size the serving tier stores.
func storeProbes(values map[string]float64) error {
	res, err := sampleResult()
	if err != nil {
		return err
	}
	dir, err := scratchDir("store-probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := store.OpenDisk[*service.Result](dir)
	if err != nil {
		return err
	}
	defer disk.Close()
	const keys = 128
	key := func(i int) string { return fmt.Sprintf("%064x@%d", i*2654435761, i) }
	var puts, gets []float64
	for i := 0; i < keys; i++ {
		t0 := time.Now()
		if err := disk.Put(key(i), res); err != nil {
			return err
		}
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	for i := 0; i < keys; i++ {
		t0 := time.Now()
		if _, ok := disk.Get(key(i)); !ok {
			return fmt.Errorf("store probe: key %d missing", i)
		}
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	values["store.disk_put_us"] = median(puts)
	values["store.disk_get_us"] = median(gets)

	mem := store.NewMemory[*service.Result](256)
	for i := 0; i < 256; i++ {
		_ = mem.Put(key(i), res) // Memory.Put never fails
	}
	ks := make([]string, 256)
	for i := range ks {
		ks[i] = key(i)
	}
	values["store.mem_get_ns"] = perCallNs(2_000_000, func(i int) {
		if _, ok := mem.Get(ks[i&255]); ok {
			probeSink++
		}
	})
	return nil
}

// specProbes times the spec layer on each spec of a corpus, as spans (so
// they land in the trace file beside the request spans).
func specProbes(corpus []scenario, res *service.Result, rec *recorder, rounds int) error {
	for k := 0; k < rounds; k++ {
		for _, sc := range corpus {
			root := rec.begin("spec-probe", 0, k)
			id := rec.begin("spec.decode", root, k)
			sp, err := spec.DecodeBytes(sc.raw)
			rec.end(id)
			if err != nil {
				return err
			}
			id = rec.begin("spec.hash", root, k)
			_, err = sp.Hash()
			rec.end(id)
			if err != nil {
				return err
			}
			id = rec.begin("spec.build", root, k)
			_, _, err = sp.Build()
			rec.end(id)
			if err != nil {
				return err
			}
			id = rec.begin("report.encode", root, k)
			_, err = json.Marshal(res)
			rec.end(id)
			rec.end(root)
			if err != nil {
				return err
			}
		}
	}
	return nil
}
