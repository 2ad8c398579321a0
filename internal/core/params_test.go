package core

import (
	"testing"

	"abenet/internal/channel"
	"abenet/internal/clock"
	"abenet/internal/dist"
	"abenet/internal/network"
	"abenet/internal/topology"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		{Delta: 0, SLow: 1, SHigh: 1},
		{Delta: -1, SLow: 1, SHigh: 1},
		{Delta: 1, SLow: 0, SHigh: 1},
		{Delta: 1, SLow: 2, SHigh: 1},
		{Delta: 1, SLow: 1, SHigh: 1, Gamma: -1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

func TestParamsAdmits(t *testing.T) {
	declared := Params{Delta: 2, SLow: 0.5, SHigh: 2, Gamma: 0.5}
	within := Params{Delta: 1.5, SLow: 0.8, SHigh: 1.5, Gamma: 0.2}
	if !declared.Admits(within) {
		t.Fatal("tighter network rejected")
	}
	tooSlow := within
	tooSlow.SLow = 0.4
	if declared.Admits(tooSlow) {
		t.Fatal("clock slower than declared accepted")
	}
	tooDelayed := within
	tooDelayed.Delta = 3
	if declared.Admits(tooDelayed) {
		t.Fatal("delay above declared δ accepted")
	}
}

type nopNode struct{}

func (nopNode) Init(*network.Context)                {}
func (nopNode) OnMessage(*network.Context, int, any) {}
func (nopNode) OnTimer(*network.Context, int)        {}

func buildNet(t *testing.T) *network.Network {
	t.Helper()
	net, err := network.New(network.Config{
		Graph:      topology.Ring(4),
		Links:      channel.RandomDelayFactory(dist.NewExponential(1.5)),
		Clocks:     clock.NewUniformFixedModel(0.5, 2),
		Processing: dist.NewDeterministic(0.1),
		Seed:       1,
	}, func(int) network.Node { return nopNode{} })
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestParamsOf(t *testing.T) {
	p := ParamsOf(buildNet(t))
	want := Params{Delta: 1.5, SLow: 0.5, SHigh: 2, Gamma: 0.1}
	if p != want {
		t.Fatalf("ParamsOf = %+v, want %+v", p, want)
	}
}
