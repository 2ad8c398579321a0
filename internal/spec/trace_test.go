package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"abenet/internal/runner"
	"abenet/internal/trace"
)

// TestRoundTripTrace: the codec identity holds for a traced spec, the
// decoded spec builds the trace config the JSON describes, and — the cache
// soundness pin — the trace block never changes the scenario hash.
func TestRoundTripTrace(t *testing.T) {
	s := &Spec{
		Version: Version,
		Env: EnvSpec{
			N:     8,
			Seed:  1,
			Trace: &trace.Config{MaxEvents: 5000},
		},
		Protocol: protoSpec(t, runner.Election{}),
	}
	roundTrip(t, s)

	env, err := s.BuildEnv()
	if err != nil {
		t.Fatal(err)
	}
	if env.Trace == nil || env.Trace.MaxEvents != 5000 {
		t.Fatalf("built trace config = %+v", env.Trace)
	}

	// Tracing is excluded from scenario identity: a traced spec hashes
	// identically to the same spec without the block. (The serving layer
	// keys cached payloads on (hash, seed, trace fingerprint), so the
	// exclusion is safe there too — see service.traceKey.)
	plain := *s
	plain.Env.Trace = nil
	h1, _ := s.Hash()
	h2, _ := plain.Hash()
	if h1 != h2 {
		t.Fatalf("trace block changed the hash: %q vs %q", h1, h2)
	}
	x1, _ := s.ExecutionHash()
	x2, _ := plain.ExecutionHash()
	if x1 != x2 {
		t.Fatalf("trace block changed the execution hash: %q vs %q", x1, x2)
	}
}

// TestTraceValidation pins the decode-time rejections — a negative cap and
// trace+sweep — and that a trace block on itai-rodeh-sync validates: every
// registered protocol runs on the kernel and traces.
func TestTraceValidation(t *testing.T) {
	negative := &Spec{
		Version:  Version,
		Env:      EnvSpec{N: 8, Trace: &trace.Config{MaxEvents: -1}},
		Protocol: protoSpec(t, runner.Election{}),
	}
	if err := negative.Validate(); err == nil {
		t.Fatal("negative trace cap accepted")
	}

	lockStep := &Spec{
		Version:  Version,
		Env:      EnvSpec{N: 8, Trace: &trace.Config{}},
		Protocol: protoSpec(t, runner.ItaiRodehSync{}),
	}
	if err := lockStep.Validate(); err != nil {
		t.Fatalf("trace on itai-rodeh-sync: Validate = %v", err)
	}

	withSweep := &Spec{
		Version:  Version,
		Env:      EnvSpec{Seed: 1, Trace: &trace.Config{}},
		Protocol: protoSpec(t, runner.Election{}),
		Sweep:    &SweepSpec{Xs: []float64{8, 16}, Repetitions: 2},
	}
	if err := withSweep.Validate(); err == nil {
		t.Fatal("trace+sweep accepted")
	}
}

// TestTracedSpecRunCarriesTrace: the spec door returns the exported trace
// on the report, causally chained down to the decision event.
func TestTracedSpecRunCarriesTrace(t *testing.T) {
	s := &Spec{
		Version:  Version,
		Env:      EnvSpec{N: 6, Seed: 3, Trace: &trace.Config{}},
		Protocol: protoSpec(t, runner.Election{}),
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil || len(rep.Trace.Events) == 0 {
		t.Fatal("traced spec run returned no trace")
	}
	if rep.Trace.Decision == 0 {
		t.Fatal("election trace has no decision event")
	}
}

// tracePins are the scenario shapes TestTraceBytesPinned renders: the sha256
// of each export format, recorded at the commit before trace.Event and
// trace.ExportEvent became one type. A persisted or streamed trace must not
// change by a byte when the recorder's internals do.
var tracePins = []struct {
	name, doc                 string
	json, text, jsonl, chrome string
}{
	{
		name:   "ring",
		doc:    `{"version":1,"env":{"n":16,"seed":1,"trace":{}},"protocol":{"name":"election"}}`,
		json:   "6b36143ddeed64cc8fb1e1dcc2955e95d5e1038d0e7b2b77877c59768facad89",
		text:   "d80f0769f03ceda24956f4ec2cee72d534619c179002204c0cb582593290bcd7",
		jsonl:  "c2dbbaeef9923eca62a544761c3d923a8e1b5b5cbed3c3d38faa46e8cfaf4382",
		chrome: "a0820f0ec4e902b473d736ebe1554daa7f8ae6f1b62b3e330d18a01c09dba42c",
	},
	{
		name:   "capped-ring",
		doc:    `{"version":1,"env":{"n":16,"seed":1,"trace":{"max_events":60}},"protocol":{"name":"election","options":{"A0":0.3}}}`,
		json:   "79acfe3501f2f50d0872659eaf76da59c9508fc7afec7b0241cadac2002290ab",
		text:   "a19d9de5d49f53bef74e100c0d85c0a7dcce687db4f5549ac5bdc21a9a9f721f",
		jsonl:  "093ce7db34e0696c95b84b9cffcbb2289856a28f86cde60511584f3383608a30",
		chrome: "2d30274204d405d5b8b0c9eea0a3637441f56350af51836770b26991482361b6",
	},
	{
		name: "arq-hypercube-processing",
		doc: `{"version":1,"env":{"topology":{"name":"hypercube","params":{"dim":3}},
			"links":{"name":"arq","params":{"p":0.5,"slot":0.5}},"delta":1,
			"clocks":{"name":"wandering","params":{"low":1,"high":1.5,"segment_mean":10}},
			"processing":{"name":"exponential","params":{"mean":0.05}},"seed":7,"trace":{}},
			"protocol":{"name":"election","options":{"TickInterval":1}}}`,
		json:   "901d70be488e65811a29c49192d5ffd9abb7eaa8cb8f47f1ce4be51bd34f9233",
		text:   "c613ec221ef00303278253f1fa1ca52421c07f73421c215c796a42508efad33a",
		jsonl:  "12ec9f462c8542cd03a68ed2134af6f58dd27970262aced82ef8c6384dc0c04a",
		chrome: "a98849895faecbb808264fbf02aebd709ddbe2610fd67f85b5f4c5888a02e6c7",
	},
	{
		name: "loss-churn",
		doc: `{"version":1,"env":{"n":8,"seed":11,"horizon":300,"faults":{"loss":0.1,"duplicate":0.02,
			"crash_rate":0.01,"recover_rate":0.1,"events":[
			{"at":2,"kind":"link-down","from":2,"to":3},{"at":15,"kind":"link-up","from":2,"to":3},
			{"at":10,"kind":"partition","group":[0,1,2,3]},{"at":40,"kind":"heal","group":[0,1,2,3]}]},
			"trace":{}},"protocol":{"name":"election"}}`,
		json:   "710f106b35923d83970886a833f348baaf215c21dabe5f22c0d97d55b331d7ac",
		text:   "2c48220a870e77f72f55b6a1f8d01e21f6cd3ca41bf3827d07cbf873d7178b90",
		jsonl:  "e5b2f3b5bacdec35d31dafcbef8d42abb80f0309bf5b5e7ced2b81bafde16d06",
		chrome: "764ae497be345e35d061a7df327a21de00351088ea1692060e9e52e9c695fac3",
	},
	{
		name: "ben-or-radio",
		doc: `{"version":1,"env":{"topology":{"name":"complete","params":{"n":6}},"seed":1,"horizon":20000,
			"local_broadcast":true,"trace":{}},
			"protocol":{"name":"ben-or","options":{"F":1,"Init":"half","Coin":"common"}}}`,
		json:   "2d5d8943239b626e6a6b471c3427f7a8f49ebce22c9e1e9374919d5fdfc8647c",
		text:   "31be79bc9f8b0d3ebc8d4c677c9ca9368448ebbac314428a9c7987693644df5e",
		jsonl:  "e0f0899a170f405015a0321ab3f0882dcf74a9ae2275d544786eed1cdb0f8f06",
		chrome: "433376b4742677f001b1b280b42d18ec4c44d93cf765cae6c2bafde538be9935",
	},
	{
		name: "chang-roberts",
		doc: `{"version":1,"env":{"n":12,"delay":{"name":"pareto","params":{"mean":1,"alpha":1.5}},
			"clocks":{"name":"uniform","params":{"low":1,"high":2}},"seed":3,"trace":{}},
			"protocol":{"name":"chang-roberts","options":{"Arrangement":0}}}`,
		json:   "6e51b445c049052dfe7adefe8a128cbc85ea64bff375e7df182aa3af8ce8348e",
		text:   "ab31bd511761ca0f3dddec6e737270e10b9d5ba8db332f944d39c57ab89d3543",
		jsonl:  "e14b8f9d67565c3a96232da96de4d8b2113e327dd92bcbb7859a73b61b9f29a7",
		chrome: "70b0fb88405e97c221dc886566f043323336a41f0ad733c647aa4a14632dbe21",
	},
	{
		name: "synchronized-election",
		doc: `{"version":1,"env":{"topology":{"name":"biring","params":{"n":6}},"seed":5,"horizon":5000,"trace":{}},
			"protocol":{"name":"synchronized-election","options":{"Kind":2}}}`,
		json:   "9659b9970f8269557d8db24ea5a5ede70b499f3a42731f72bd4559ed8b03a401",
		text:   "f7c2c7a61abff31d859a1ef8deffdd2203a03229242b68faeba5a772741068bd",
		jsonl:  "6cfe0c4c758db23a0b75fc2cf339d4e2fa461031c83ee15c99744a8d3bacfc26",
		chrome: "c516b9d4b446d372cb788f6ee330fd10ed6acd5d54222ed2a9da276b398a19b9",
	},
}

// parentExport is a trace.Export exactly as the parent commit's
// json.Marshal wrote it (one event of every kind, a hop counter, a dropped
// count): what a store directory written before the upgrade holds.
const parentExport = `{"events":[` +
	`{"id":1,"lamport":1,"at":0,"kind":"send","from":0,"to":1,"payload":"{Hop:1 ID:7}","hop":1},` +
	`{"id":2,"parent":1,"lamport":2,"at":0.75,"kind":"deliver","from":0,"to":1,"payload":"{Hop:1 ID:7}","hop":1},` +
	`{"id":3,"parent":2,"lamport":3,"at":1.75,"kind":"timer","from":1,"to":0},` +
	`{"id":5,"parent":3,"lamport":4,"at":1.75,"kind":"decision","from":1,"to":0,"payload":"leader elected"}` +
	`],"dropped":1,"decision":5}`

func TestTraceBytesPinned(t *testing.T) {
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	for _, pin := range tracePins {
		t.Run(pin.name, func(t *testing.T) {
			s, err := DecodeBytes([]byte(pin.doc))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Trace == nil || len(rep.Trace.Events) < 20 {
				t.Fatalf("trace too small to pin anything: %+v", rep.Trace)
			}
			raw, err := json.Marshal(rep.Trace)
			if err != nil {
				t.Fatal(err)
			}
			if got := sum(raw); got != pin.json {
				t.Errorf("json bytes changed: sha256 %s, pinned %s", got, pin.json)
			}
			for format, want := range map[string]string{"text": pin.text, "jsonl": pin.jsonl, "chrome": pin.chrome} {
				var b bytes.Buffer
				if err := trace.Write(&b, rep.Trace, format); err != nil {
					t.Fatal(err)
				}
				if got := sum(b.Bytes()); got != want {
					t.Errorf("%s bytes changed: sha256 %s, pinned %s", format, got, want)
				}
			}
		})
	}
	t.Run("parent-encoded export round-trips", func(t *testing.T) {
		var exp trace.Export
		if err := json.Unmarshal([]byte(parentExport), &exp); err != nil {
			t.Fatal(err)
		}
		back, err := json.Marshal(&exp)
		if err != nil {
			t.Fatal(err)
		}
		if string(back) != parentExport {
			t.Fatalf("re-encoded export differs:\n got %s\nwant %s", back, parentExport)
		}
	})
	t.Run("unknown kind is refused", func(t *testing.T) {
		var exp trace.Export
		err := json.Unmarshal([]byte(`{"events":[{"id":1,"lamport":1,"at":0,"kind":"sent","from":0,"to":1}]}`), &exp)
		if err == nil {
			t.Fatal(`an event of kind "sent" decoded`)
		}
	})
}
