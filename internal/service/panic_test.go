package service

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"

	"abenet/internal/dist"
	"abenet/internal/reuse"
	"abenet/internal/rng"
	"abenet/internal/runner"
	"abenet/internal/spec"
)

// panicChild marks the process TestSweepPointPanicFailsOneJob runs its body
// in: a panic that escaped a sweep worker would kill the test binary.
const panicChild = "ABENET_SWEEP_PANIC_CHILD"

// panickingElection is an election whose delay law panics on its sixth draw:
// mid-run, once the network has taken its arrays and written into them. It is
// registered, under a name no fixture uses, only in the child process.
type panickingElection struct{}

func (panickingElection) Name() string { return "test-panicking-election" }

func (panickingElection) Run(env runner.Env) (runner.Report, error) {
	env.Delay = &panicDelay{Dist: dist.NewExponential(1), left: 5}
	return runner.Run(env, runner.Election{})
}

// panicDelay is an exponential delay that panics once it has been drawn left
// times.
type panicDelay struct {
	dist.Dist
	left int
}

func (d *panicDelay) Sample(r *rng.Source) float64 {
	if d.left--; d.left < 0 {
		panic("test: the delay law gave out")
	}
	return d.Dist.Sample(r)
}

// TestSweepPointPanicFailsOneJob submits a sweep whose every run panics
// beside a normal job, on a service with two workers and two sweep workers.
// The sweep fails alone, with the panic and the seed of the run in its error;
// the neighbouring job completes with the result a direct run gives; the
// service counts one failed job. The panicked runs' arrays never reach a
// pool: a later run of their shape is byte-identical to one in drained pools.
// Before sweep workers recovered, the panic killed the process, so the body
// runs in a child process of the test binary.
func TestSweepPointPanicFailsOneJob(t *testing.T) {
	if os.Getenv(panicChild) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSweepPointPanicFailsOneJob$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), panicChild+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte("--- PASS")) {
			t.Fatalf("the child process failed (%v):\n%s", err, out)
		}
		return
	}

	runner.RegisterProtocol(panickingElection{})
	svc := New(Options{Workers: 2, SweepWorkers: 2})
	defer svc.Close()

	bad, err := spec.DecodeBytes([]byte(`{"version":1,"env":{"seed":1},"protocol":{"name":"test-panicking-election"},` +
		`"sweep":{"xs":[16,32],"repetitions":3,"workers":2,"metrics":["messages"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	good := loadFixture(t, "election_ring.json")
	vb, err := svc.Submit(specJSON(t, bad), nil)
	if err != nil {
		t.Fatal(err)
	}
	vg, err := svc.Submit(specJSON(t, good), nil)
	if err != nil {
		t.Fatal(err)
	}

	if v := await(t, svc, vb.ID); v.Status != StatusFailed || !strings.Contains(v.Error, "panicked") || !strings.Contains(v.Error, "seed") || v.Result != nil {
		t.Errorf("the panicking sweep ended %s with error %q, want failed, naming the panic and its seed", v.Status, v.Error)
	}
	v := await(t, svc, vg.ID)
	if v.Status != StatusDone {
		t.Fatalf("the neighbouring job ended %s (%s)", v.Status, v.Error)
	}
	env, proto, err := good.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := runner.Run(env, proto)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, v.Result.Report), mustJSON(t, &want); !bytes.Equal(got, want) {
		t.Errorf("the neighbouring job reports\n%s\nwhere a direct run reports\n%s", got, want)
	}
	if st := svc.Stats(); st.Failed != 1 || st.Done != 1 {
		t.Errorf("the service counts %d failed and %d done jobs, want 1 and 1", st.Failed, st.Done)
	}

	// A ring of 16 under the election, the panicked runs' shape.
	later := func() []byte {
		rep, err := runner.Run(runner.Env{N: 16, Seed: 5}, runner.Election{})
		if err != nil {
			t.Fatal(err)
		}
		return mustJSON(t, &rep)
	}
	after := later()
	reuse.Drain()
	if fresh := later(); !bytes.Equal(after, fresh) {
		t.Errorf("a run after the panicked ones reports\n%s\nand the same run in drained pools\n%s", after, fresh)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
