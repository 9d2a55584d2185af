package scenario

import (
	"bytes"
	"reflect"
	"testing"
)

// Fuzz targets for the two serialized forms. Both pin the same
// property: parse → serialize → parse is the identity. The f.Add
// corpus doubles as regression tests under plain `go test` (each seed
// runs once even without -fuzz).

func FuzzCompactRoundTrip(f *testing.F) {
	seeds := []string{
		"",
		"topo=fattree:2,2,2 n=2000 size=uniform:1,16 class=0.5 load=0.9 seed=1",
		"name=kitchen-sink topo=broomstick:2,4,2 process=bursty:12 n=500 size=pareto:1,1.5,200 " +
			"class=0.25 load=0.85 cap=3 related=4,2,1 round=0.25 maxweight=8 " +
			"policy=srpt assigner=leastvolume eps=0.25 seed=7 aseed=9 speed=2.5 horizon=64 " +
			"packetized instrument slices",
		"topo=star:6 unrelated=0.5,2,0.2,8,16 speeds=1,2.25,2.25 assigner=shadow",
		"process=adversarial:32 n=120 assigner=jsq",
		"topo=line:5 load=1e-3 seed=18446744073709551615",
		"topo=fattree:2,2,2 n=150 size=uniform:1,16 load=0.8 seed=11 faults=outages:4,8 recovery=redispatch instrument slices",
		"topo=star:8 n=100 size=uniform:1,4 load=0.7 faults=leafloss:2,0.5 recovery=hold",
		"topo=fattree:2,2,2 n=400 size=uniform:1,16 load=0.9 seed=3 rng=keyed fleet=4 fleetpolicy=jsq",
		"topo=star:4 n=200 size=uniform:1,8 load=0.8 seed=5 rng=legacy fleet=2 fleetpolicy=local faults=brownouts:2,5,0.5",
		"n=300 size=uniform:1,16 load=0.9 seed=9 rng=keyed trees=fattree:2,2,2;star:8;line:4 fleetpolicy=rr",
		"topo=fattree:2,1,4 n=100 size=uniform:1,4 load=0.5 fleet=3 trees=star:2;star:4;star:8",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		sc, err := ParseCompact(input)
		if err != nil {
			t.Skip()
		}
		// Anything ParseCompact accepts has a compact form: inline jobs
		// and whitespace names are JSON-only and unreachable from here.
		c, err := sc.Compact()
		if err != nil {
			t.Fatalf("parsed scenario has no compact form: %v (input %q)", err, input)
		}
		back, err := ParseCompact(c)
		if err != nil {
			t.Fatalf("compact form does not re-parse: %v (form %q, input %q)", err, c, input)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Fatalf("round trip changed the scenario:\n input   %q\n compact %q", input, c)
		}
		c2, err := back.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if c2 != c {
			t.Fatalf("compact form is not a fixed point:\n first  %q\n second %q", c, c2)
		}
	})
}

func FuzzScenarioJSON(f *testing.F) {
	seeds := []string{
		`{"topology": "fattree:2,2,2", "workload": {"n": 2000, "size": "uniform:1,16", "class_eps": 0.5, "load": 0.9}, "seed": 1}`,
		`{"topology": "broomstick:2,3,2", "workload": {"n": 300, "size": "uniform:1,16", "load": 0.9,` +
			` "unrelated": {"lo": 0.5, "hi": 2, "p_infeasible": 0.2, "penalty": 8}, "round_eps": 0.5},` +
			` "assigner": "greedy-unrelated", "speed": {"root_adjacent": 3, "router": 4.5, "leaf": 4.5}}`,
		`{"topology": "line:2", "workload": {"n": 0, "jobs": [` +
			`{"id": 0, "release": 0, "size": 4}, {"id": 1, "release": 1, "size": 2}]},` +
			` "assigner": "closest", "engine": {"instrument": true}}`,
		`{"topology": "fattree:2,1,4", "workload": {"n": 250, "size": "uniform:1,16",` +
			` "related_speeds": [4, 2, 1, 1], "max_weight": 5}, "policy": "wsjf", "engine": {"packetized": true}}`,
		`{"topology": "fattree:2,2,2", "workload": {"n": 150, "size": "uniform:1,16", "load": 0.8}, "seed": 11,` +
			` "faults": {"plan": "brownouts:3,10,0.25", "recovery": "redispatch"}, "engine": {"instrument": true, "record_slices": true}}`,
		`{"topology": "star:4", "workload": {"n": 50, "size": "uniform:1,4", "load": 0.5},` +
			` "faults": {"events": [{"kind": "outage", "node": 2, "start": 1, "end": 3}], "recovery": "hold"}}`,
		`{"topology": "fattree:2,2,2", "workload": {"n": 400, "size": "uniform:1,16", "load": 0.9}, "seed": 3,` +
			` "rng": "keyed", "fleet": {"trees": 4, "policy": "jsq"}}`,
		`{"topology": "star:4", "workload": {"n": 200, "size": "uniform:1,8", "load": 0.8}, "seed": 5,` +
			` "fleet": {"policy": "local", "topos": ["star:2", "fattree:2,2,2"]}}`,
		// compact input through the same entry point: Load auto-detects.
		"topo=fattree:2,2,2 n=100 size=uniform:1,16 load=0.9 seed=1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		sc, err := Load([]byte(input))
		if err != nil {
			t.Skip()
		}
		// The JSON form must be a serialization fixed point: encode,
		// decode, encode again, byte-identical. (Fixed point rather than
		// DeepEqual: JSON cannot distinguish nil from empty slices, and
		// the fixed point is the property files on disk rely on.)
		var first bytes.Buffer
		if err := sc.WriteJSON(&first); err != nil {
			t.Fatalf("loaded scenario does not serialize: %v (input %q)", err, input)
		}
		back, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("serialized form does not re-parse: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("JSON form is not a fixed point:\n first:\n%s\n second:\n%s", first.Bytes(), second.Bytes())
		}
	})
}
