package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The compact form is one line of space-separated key=value tokens
// plus bare boolean flags, e.g.
//
//	topo=fattree:2,2,2 n=2000 size=uniform:1,16 class=0.5 load=0.9 seed=1
//
// Component values (topo=, size=, process=) use exactly the
// historical cli spec grammar. Zero-valued fields are omitted on
// output and default on input, so parse → Compact → parse is the
// identity (pinned by a fuzz target). Inline jobs are JSON-only.
//
// Keys: name topo process n size class load cap related unrelated
// round maxweight policy assigner eps seed rng aseed speed speeds
// horizon faults recovery fleet fleetpolicy trees retain and the
// flags packetized instrument slices stream serve. The removed keys
// shards and split and the removed flag scanqueue fail with an error
// naming the removal.
// Inline fault events, like inline jobs, are JSON-only. trees= lists
// per-tree topology specs separated by semicolons
// (trees=fattree:2,2,2;star:8).

// Compact renders the scenario as its one-line form. Scenarios that
// only JSON can express (inline jobs, names with whitespace) return
// an error.
func (sc *Scenario) Compact() (string, error) {
	if len(sc.Workload.Jobs) > 0 {
		return "", fmt.Errorf("scenario: inline jobs have no compact form (use JSON)")
	}
	if strings.ContainsAny(sc.Name, " \t\n\r") {
		return "", fmt.Errorf("scenario: name %q has no compact form (whitespace)", sc.Name)
	}
	var tok []string
	add := func(key, val string) { tok = append(tok, key+"="+val) }
	if sc.Name != "" {
		add("name", sc.Name)
	}
	if sc.Topology.Name != "" {
		add("topo", sc.Topology.String())
	}
	w := &sc.Workload
	if w.Process.Name != "" {
		add("process", w.Process.String())
	}
	if w.N != 0 {
		add("n", strconv.Itoa(w.N))
	}
	if w.Size.Name != "" {
		add("size", w.Size.String())
	}
	if w.ClassEps != 0 {
		add("class", formatFloat(w.ClassEps))
	}
	if w.Load != 0 {
		add("load", formatFloat(w.Load))
	}
	if w.Capacity != 0 {
		add("cap", formatFloat(w.Capacity))
	}
	if len(w.RelatedSpeeds) > 0 {
		add("related", joinFloats(w.RelatedSpeeds))
	}
	if u := w.Unrelated; u != nil {
		vals := []float64{u.Lo, u.Hi, u.PInfeasible, u.Penalty, float64(u.Leaves)}
		for len(vals) > 2 && vals[len(vals)-1] == 0 {
			vals = vals[:len(vals)-1]
		}
		add("unrelated", joinFloats(vals))
	}
	if w.RoundEps != 0 {
		add("round", formatFloat(w.RoundEps))
	}
	if w.MaxWeight != 0 {
		add("maxweight", strconv.Itoa(w.MaxWeight))
	}
	if sc.Policy != "" {
		add("policy", sc.Policy)
	}
	if sc.Assigner != "" {
		add("assigner", sc.Assigner)
	}
	if sc.Eps != 0 {
		add("eps", formatFloat(sc.Eps))
	}
	if sc.Seed != 0 {
		add("seed", strconv.FormatUint(sc.Seed, 10))
	}
	if sc.RNG != "" {
		add("rng", sc.RNG)
	}
	if sc.AssignerSeed != 0 {
		add("aseed", strconv.FormatUint(sc.AssignerSeed, 10))
	}
	if sc.Speed.Uniform != 0 {
		add("speed", formatFloat(sc.Speed.Uniform))
	}
	if sc.Speed.RootAdjacent != 0 || sc.Speed.Router != 0 || sc.Speed.Leaf != 0 {
		add("speeds", joinFloats([]float64{sc.Speed.RootAdjacent, sc.Speed.Router, sc.Speed.Leaf}))
	}
	if sc.Horizon != 0 {
		add("horizon", strconv.Itoa(sc.Horizon))
	}
	if fs := sc.Faults; fs != nil {
		if len(fs.Events) > 0 {
			return "", fmt.Errorf("scenario: inline fault events have no compact form (use JSON)")
		}
		if fs.Plan.Name != "" {
			add("faults", fs.Plan.String())
		}
		if fs.Recovery != "" {
			add("recovery", fs.Recovery)
		}
	}
	if fl := sc.Fleet; fl != nil {
		if fl.Trees != 0 {
			add("fleet", strconv.Itoa(fl.Trees))
		}
		if fl.Policy != "" {
			add("fleetpolicy", fl.Policy)
		}
		if len(fl.Topos) > 0 {
			specs := make([]string, len(fl.Topos))
			for i, sp := range fl.Topos {
				specs[i] = sp.String()
			}
			add("trees", strings.Join(specs, ";"))
		}
	}
	if sc.Engine.RetainJobs != 0 {
		add("retain", strconv.Itoa(sc.Engine.RetainJobs))
	}
	if sc.Engine.Packetized {
		tok = append(tok, "packetized")
	}
	if sc.Engine.Instrument {
		tok = append(tok, "instrument")
	}
	if sc.Engine.RecordSlices {
		tok = append(tok, "slices")
	}
	if sc.Engine.Stream {
		tok = append(tok, "stream")
	}
	if sc.Engine.Serve {
		tok = append(tok, "serve")
	}
	return strings.Join(tok, " "), nil
}

func joinFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = formatFloat(v)
	}
	return strings.Join(parts, ",")
}

// ParseCompact parses the one-line form. Unknown and duplicate keys
// are errors; absent keys keep their zero-value defaults.
func ParseCompact(input string) (*Scenario, error) {
	// The compact form is text; invalid UTF-8 in a name would not
	// survive the JSON form (strings are coerced to U+FFFD there).
	if !utf8.ValidString(input) {
		return nil, fmt.Errorf("compact scenario: input is not valid UTF-8")
	}
	sc := &Scenario{}
	seen := map[string]bool{}
	for _, tok := range strings.Fields(input) {
		key, val, hasVal := strings.Cut(tok, "=")
		if seen[key] {
			return nil, fmt.Errorf("compact scenario: duplicate key %q", key)
		}
		seen[key] = true
		if !hasVal {
			switch key {
			case "packetized":
				sc.Engine.Packetized = true
			case "instrument":
				sc.Engine.Instrument = true
			case "scanqueue":
				return nil, errRemovedKey(key)
			case "slices":
				sc.Engine.RecordSlices = true
			case "stream":
				sc.Engine.Stream = true
			case "serve":
				sc.Engine.Serve = true
			default:
				return nil, fmt.Errorf("compact scenario: unknown flag %q", key)
			}
			continue
		}
		if err := sc.setCompact(key, val); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

func (sc *Scenario) setCompact(key, val string) error {
	w := &sc.Workload
	var err error
	switch key {
	case "name":
		if val == "" {
			return fmt.Errorf("compact scenario: empty name")
		}
		sc.Name = val
	case "topo":
		sc.Topology, err = ParseSpec(val)
	case "process":
		w.Process, err = ParseSpec(val)
	case "n":
		w.N, err = strconv.Atoi(val)
	case "size":
		w.Size, err = ParseSpec(val)
	case "class":
		w.ClassEps, err = parseFinite(val)
	case "load":
		w.Load, err = parseFinite(val)
	case "cap":
		w.Capacity, err = parseFinite(val)
	case "related":
		w.RelatedSpeeds, err = splitFloats(val, 1, -1)
	case "unrelated":
		var vals []float64
		vals, err = splitFloats(val, 2, 5)
		if err != nil {
			break
		}
		for len(vals) < 5 {
			vals = append(vals, 0)
		}
		leaves := int(vals[4])
		if float64(leaves) != vals[4] {
			return fmt.Errorf("compact scenario: unrelated leaves %v is not an integer", vals[4])
		}
		w.Unrelated = &Unrelated{
			Lo: vals[0], Hi: vals[1], PInfeasible: vals[2], Penalty: vals[3], Leaves: leaves,
		}
	case "round":
		w.RoundEps, err = parseFinite(val)
	case "maxweight":
		w.MaxWeight, err = strconv.Atoi(val)
	case "policy":
		sc.Policy = val
	case "assigner":
		sc.Assigner = val
	case "eps":
		sc.Eps, err = parseFinite(val)
	case "seed":
		sc.Seed, err = strconv.ParseUint(val, 10, 64)
	case "aseed":
		sc.AssignerSeed, err = strconv.ParseUint(val, 10, 64)
	case "speed":
		sc.Speed.Uniform, err = parseFinite(val)
	case "speeds":
		var vals []float64
		vals, err = splitFloats(val, 3, 3)
		if err != nil {
			break
		}
		sc.Speed.RootAdjacent, sc.Speed.Router, sc.Speed.Leaf = vals[0], vals[1], vals[2]
	case "horizon":
		sc.Horizon, err = strconv.Atoi(val)
	case "shards", "split":
		return errRemovedKey(key)
	case "retain":
		sc.Engine.RetainJobs, err = strconv.Atoi(val)
	case "faults":
		var sp Spec
		sp, err = ParseSpec(val)
		if err != nil {
			break
		}
		if sc.Faults == nil {
			sc.Faults = &FaultSpec{}
		}
		sc.Faults.Plan = sp
	case "recovery":
		if val != "hold" && val != "redispatch" {
			return fmt.Errorf("compact scenario: recovery=%s: want hold|redispatch", val)
		}
		if sc.Faults == nil {
			sc.Faults = &FaultSpec{}
		}
		sc.Faults.Recovery = val
	case "rng":
		if val != "legacy" && val != "keyed" {
			return fmt.Errorf("compact scenario: rng=%s: want legacy|keyed", val)
		}
		sc.RNG = val
	case "fleet":
		var n int
		if n, err = strconv.Atoi(val); err != nil {
			break
		}
		if n < 1 {
			return fmt.Errorf("compact scenario: fleet=%s: want a tree count >= 1", val)
		}
		sc.fleet().Trees = n
	case "fleetpolicy":
		if val != "rr" && val != "jsq" && val != "local" {
			return fmt.Errorf("compact scenario: fleetpolicy=%s: want rr|jsq|local", val)
		}
		sc.fleet().Policy = val
	case "trees":
		parts := strings.Split(val, ";")
		topos := make([]Spec, len(parts))
		for i, part := range parts {
			if topos[i], err = ParseSpec(part); err != nil {
				break
			}
		}
		if err == nil {
			sc.fleet().Topos = topos
		}
	default:
		return fmt.Errorf("compact scenario: unknown key %q", key)
	}
	if err != nil {
		return fmt.Errorf("compact scenario: %s=%s: %v", key, val, err)
	}
	return nil
}

// fleet returns the scenario's FleetSpec, allocating it on first use
// (mirrors the Faults pattern: any fleet key materializes the spec).
func (sc *Scenario) fleet() *FleetSpec {
	if sc.Fleet == nil {
		sc.Fleet = &FleetSpec{}
	}
	return sc.Fleet
}

func splitFloats(val string, min, max int) ([]float64, error) {
	parts := strings.Split(val, ",")
	if len(parts) < min || (max >= 0 && len(parts) > max) {
		if max < 0 {
			return nil, fmt.Errorf("want at least %d comma-separated values", min)
		}
		return nil, fmt.Errorf("want %d to %d comma-separated values", min, max)
	}
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := parseFinite(p)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
