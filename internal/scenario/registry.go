// Package scenario makes simulation setups addressable by data
// instead of code: named registries map compact specs like
// "fattree:2,2,2" or "pareto:1,1.5,200" onto the topology generators,
// size laws, arrival processes, node policies and leaf assigners the
// rest of the repo implements, and a Scenario value bundles one full
// experiment cell (topology + workload + scheduler + speeds + seed)
// that round-trips through JSON and a compact one-line string.
//
// The registries are the single source of truth for the spec grammar.
package scenario

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"treesched/internal/core"
	"treesched/internal/faults"
	"treesched/internal/rng"
	"treesched/internal/sched"
	"treesched/internal/sim"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// Param documents one positional argument of a registry entry.
type Param struct {
	// Name appears in usage strings ("uniform needs lo,hi").
	Name string
	// Int marks arguments that must be integers (topology shapes).
	Int bool
}

// Spec is one registry invocation in data form: a name plus
// positional numeric arguments. Its compact form is the historical
// cli grammar, "name" or "name:a,b,c" — also its JSON form (a Spec
// marshals as that string).
type Spec struct {
	Name string    `json:"name"`
	Args []float64 `json:"args,omitempty"`
}

// MarshalJSON renders the spec as its compact string form.
func (s Spec) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON parses the compact string form ("" is the zero Spec).
func (s *Spec) UnmarshalJSON(data []byte) error {
	var str string
	if err := json.Unmarshal(data, &str); err != nil {
		return err
	}
	if str == "" {
		*s = Spec{}
		return nil
	}
	sp, err := ParseSpec(str)
	if err != nil {
		return err
	}
	*s = sp
	return nil
}

// NewSpec builds a Spec in place: NewSpec("fattree", 2, 2, 2).
func NewSpec(name string, args ...float64) Spec {
	if len(args) == 0 {
		return Spec{Name: name}
	}
	return Spec{Name: name, Args: args}
}

// String renders the compact "name:a,b,c" form.
func (s Spec) String() string {
	if len(s.Args) == 0 {
		return s.Name
	}
	parts := make([]string, len(s.Args))
	for i, a := range s.Args {
		parts[i] = formatFloat(a)
	}
	return s.Name + ":" + strings.Join(parts, ",")
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// TopoEntry is one named topology generator.
type TopoEntry struct {
	Name   string
	Params []Param
	// Build receives integer-checked arguments. Generators may panic
	// on out-of-range values; callers recover.
	Build func(args []int) *tree.Tree
}

// SizeEntry is one named size law.
type SizeEntry struct {
	Name   string
	Params []Param
	Build  func(args []float64) workload.SizeDist
}

// ProcessEntry is one named arrival process. Source returns its
// generator, which draws from r and must be the only consumer of r
// during generation so scenario seeds stay reproducible. A
// materialized trace is that source's jobs, collected.
type ProcessEntry struct {
	Name   string
	Params []Param
	Source func(r *rng.Rand, cfg workload.GenConfig, args []float64) (workload.ArrivalSource, error)
}

// PolicyEntry is one named node scheduling policy.
type PolicyEntry struct {
	Name  string
	Build func() sim.Policy
}

// AssignerContext carries everything an assigner constructor may
// need: the (speed-augmented) tree, the greedy epsilon, whether the
// workload has per-leaf sizes, and the rng seed for randomized rules.
type AssignerContext struct {
	Tree      *tree.Tree
	Eps       float64
	Unrelated bool
	// Seed feeds randomized assigners verbatim (rng.New(Seed)).
	Seed uint64
}

// AssignerEntry is one named leaf-assignment rule.
type AssignerEntry struct {
	Name  string
	Build func(ctx AssignerContext) (sim.Assigner, error)
}

// FaultEntry is one named fault-plan generator. Build draws every
// random choice from r (the scenario stream, after workload
// generation) so a seeded faulty scenario reproduces bit for bit.
// span is the trace's arrival span — generators place events inside
// it.
type FaultEntry struct {
	Name   string
	Params []Param
	Build  func(r *rng.Rand, t *tree.Tree, span float64, args []float64) (*faults.Plan, error)
}

// The six registries. Registration order defines the "(want a|b|c)"
// lists in error messages, so built-ins register in the historical
// cli order.
var (
	topoReg    = newRegistry[TopoEntry]("topology")
	sizeReg    = newRegistry[SizeEntry]("size distribution")
	processReg = newRegistry[ProcessEntry]("arrival process")
	policyReg  = newRegistry[PolicyEntry]("policy")
	assignReg  = newRegistry[AssignerEntry]("assigner")
	faultReg   = newRegistry[FaultEntry]("fault plan")
)

type registry[E any] struct {
	kind   string
	order  []string
	byName map[string]E
}

func newRegistry[E any](kind string) *registry[E] {
	return &registry[E]{kind: kind, byName: map[string]E{}}
}

func (r *registry[E]) add(name string, e E) {
	if name == "" {
		panic("scenario: empty registry name")
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("scenario: duplicate %s %q", r.kind, name))
	}
	r.order = append(r.order, name)
	r.byName[name] = e
}

func (r *registry[E]) lookup(name string) (E, error) {
	e, ok := r.byName[name]
	if !ok {
		return e, fmt.Errorf("unknown %s %q (want %s)", r.kind, name, strings.Join(r.order, "|"))
	}
	return e, nil
}

// RegisterTopology adds a custom topology generator (examples use
// this to make irregular clusters addressable by name).
func RegisterTopology(e TopoEntry) { topoReg.add(e.Name, e) }

// BuildFaultPlan generates a fault plan from a registered spec. The
// plan is validated against t before it is returned.
func BuildFaultPlan(s Spec, r *rng.Rand, t *tree.Tree, span float64) (*faults.Plan, error) {
	e, err := faultReg.lookup(s.Name)
	if err != nil {
		return nil, err
	}
	if len(s.Args) != len(e.Params) {
		return nil, fmt.Errorf("fault plan %s needs %s", s.Name, paramNames(e.Params))
	}
	p, err := e.Build(r, t, span, s.Args)
	if err != nil {
		return nil, fmt.Errorf("fault plan %s: %w", s.Name, err)
	}
	if err := p.Validate(t); err != nil {
		return nil, fmt.Errorf("fault plan %s: %w", s.Name, err)
	}
	return p, nil
}

func init() {
	RegisterTopology(TopoEntry{
		Name:   "fattree",
		Params: []Param{{"arity", true}, {"depth", true}, {"leaves", true}},
		Build:  func(a []int) *tree.Tree { return tree.FatTree(a[0], a[1], a[2]) },
	})
	RegisterTopology(TopoEntry{
		Name:   "star",
		Params: []Param{{"n", true}},
		Build:  func(a []int) *tree.Tree { return tree.Star(a[0]) },
	})
	RegisterTopology(TopoEntry{
		Name:   "line",
		Params: []Param{{"n", true}},
		Build:  func(a []int) *tree.Tree { return tree.Line(a[0]) },
	})
	RegisterTopology(TopoEntry{
		Name:   "caterpillar",
		Params: []Param{{"spine", true}, {"leaves", true}},
		Build:  func(a []int) *tree.Tree { return tree.Caterpillar(a[0], a[1]) },
	})
	RegisterTopology(TopoEntry{
		Name:   "broomstick",
		Params: []Param{{"branches", true}, {"handle", true}, {"leaves", true}},
		Build:  func(a []int) *tree.Tree { return tree.BroomstickTree(a[0], a[1], a[2]) },
	})
	RegisterTopology(TopoEntry{
		Name:   "random",
		Params: []Param{{"branches", true}, {"maxdepth", true}, {"maxchildren", true}},
		// Fixed seed: "random:2,4,2" must always name the same tree so
		// specs stay reproducible.
		Build: func(a []int) *tree.Tree {
			return tree.Random(rng.New(12345), tree.RandomConfig{
				Branches: a[0], MaxDepth: a[1], MaxChildren: a[2], LeafProb: 0.45,
			})
		},
	})

	for _, e := range []SizeEntry{
		{
			Name:   "uniform",
			Params: []Param{{"lo", false}, {"hi", false}},
			Build:  func(a []float64) workload.SizeDist { return workload.UniformSize{Lo: a[0], Hi: a[1]} },
		},
		{
			Name:   "bimodal",
			Params: []Param{{"small", false}, {"big", false}, {"pbig", false}},
			Build: func(a []float64) workload.SizeDist {
				return workload.BimodalSize{Small: a[0], Big: a[1], PBig: a[2]}
			},
		},
		{
			Name:   "pareto",
			Params: []Param{{"min", false}, {"alpha", false}, {"cap", false}},
			Build: func(a []float64) workload.SizeDist {
				return workload.ParetoSize{Min: a[0], Alpha: a[1], Cap: a[2]}
			},
		},
	} {
		sizeReg.add(e.Name, e)
	}

	for _, e := range []ProcessEntry{
		{
			Name: "poisson",
			Source: func(r *rng.Rand, cfg workload.GenConfig, _ []float64) (workload.ArrivalSource, error) {
				return workload.NewPoissonSource(r, cfg)
			},
		},
		{
			Name:   "bursty",
			Params: []Param{{"burst", true}},
			Source: func(r *rng.Rand, cfg workload.GenConfig, a []float64) (workload.ArrivalSource, error) {
				return workload.NewBurstySource(r, cfg, int(a[0]))
			},
		},
		{
			Name:   "adversarial",
			Params: []Param{{"bigsize", false}},
			// Adversarial ignores the size law and load entirely.
			Source: func(r *rng.Rand, cfg workload.GenConfig, a []float64) (workload.ArrivalSource, error) {
				return workload.NewAdversarialSource(cfg.N, a[0]), nil
			},
		},
	} {
		processReg.add(e.Name, e)
	}

	for _, e := range []PolicyEntry{
		{Name: "sjf", Build: func() sim.Policy { return sim.SJF{} }},
		{Name: "fifo", Build: func() sim.Policy { return sim.FIFO{} }},
		{Name: "srpt", Build: func() sim.Policy { return sim.SRPT{} }},
		{Name: "lcfs", Build: func() sim.Policy { return sim.LCFS{} }},
		{Name: "ps", Build: func() sim.Policy { return sim.PS{} }},
		{Name: "wsjf", Build: func() sim.Policy { return sim.WSJF{} }},
	} {
		policyReg.add(e.Name, e)
	}

	for _, e := range []AssignerEntry{
		{
			Name: "greedy",
			// The historical auto-variant: unrelated workloads get the
			// Theorem 2 rule, identical workloads the Theorem 1 rule.
			Build: func(ctx AssignerContext) (sim.Assigner, error) {
				if ctx.Unrelated {
					return core.NewGreedyUnrelated(ctx.Eps), nil
				}
				return core.NewGreedyIdentical(ctx.Eps), nil
			},
		},
		{
			Name: "greedy-identical",
			Build: func(ctx AssignerContext) (sim.Assigner, error) {
				return core.NewGreedyIdentical(ctx.Eps), nil
			},
		},
		{
			Name: "greedy-unrelated",
			Build: func(ctx AssignerContext) (sim.Assigner, error) {
				return core.NewGreedyUnrelated(ctx.Eps), nil
			},
		},
		{
			Name: "shadow",
			Build: func(ctx AssignerContext) (sim.Assigner, error) {
				return core.NewShadow(ctx.Tree, core.ShadowConfig{Eps: ctx.Eps, Unrelated: ctx.Unrelated})
			},
		},
		{
			Name:  "closest",
			Build: func(AssignerContext) (sim.Assigner, error) { return sched.ClosestLeaf{}, nil },
		},
		{
			Name: "random",
			Build: func(ctx AssignerContext) (sim.Assigner, error) {
				return &sched.RandomLeaf{R: rng.New(ctx.Seed)}, nil
			},
		},
		{
			Name:  "roundrobin",
			Build: func(AssignerContext) (sim.Assigner, error) { return &sched.RoundRobin{}, nil },
		},
		{
			Name:  "leastvolume",
			Build: func(AssignerContext) (sim.Assigner, error) { return sched.LeastVolume{}, nil },
		},
		{
			Name:  "minpath",
			Build: func(AssignerContext) (sim.Assigner, error) { return sched.MinPathWork{}, nil },
		},
		{
			Name:  "jsq",
			Build: func(AssignerContext) (sim.Assigner, error) { return sched.JoinShortestQueue{}, nil },
		},
	} {
		assignReg.add(e.Name, e)
	}

	for _, e := range []FaultEntry{
		{
			Name:   "outages",
			Params: []Param{{"count", true}, {"dur", false}},
			Build: func(r *rng.Rand, t *tree.Tree, span float64, a []float64) (*faults.Plan, error) {
				return transientPlan(faults.Outage, r, t, span, a[0], a[1], 0)
			},
		},
		{
			Name:   "brownouts",
			Params: []Param{{"count", true}, {"dur", false}, {"factor", false}},
			Build: func(r *rng.Rand, t *tree.Tree, span float64, a []float64) (*faults.Plan, error) {
				return transientPlan(faults.Brownout, r, t, span, a[0], a[1], a[2])
			},
		},
		{
			Name:   "leafloss",
			Params: []Param{{"count", true}, {"frac", false}},
			Build: func(r *rng.Rand, t *tree.Tree, span float64, a []float64) (*faults.Plan, error) {
				count, err := intCount(a[0])
				if err != nil {
					return nil, err
				}
				leaves := t.Leaves()
				if count >= len(leaves) {
					return nil, fmt.Errorf("losing %d of %d leaves leaves no survivor", count, len(leaves))
				}
				if !(a[1] >= 0 && a[1] <= 1) {
					return nil, fmt.Errorf("frac %v outside [0,1]", formatFloat(a[1]))
				}
				at := a[1] * span
				p := &faults.Plan{}
				for _, i := range r.Perm(len(leaves))[:count] {
					p.Events = append(p.Events, faults.Event{Kind: faults.LeafLoss, Node: leaves[i], Start: at})
				}
				return p, nil
			},
		},
	} {
		faultReg.add(e.Name, e)
	}
}

// transientPlan draws count transient faults of one kind, node uniform
// over the non-root nodes and start uniform in [0, span].
func transientPlan(kind faults.Kind, r *rng.Rand, t *tree.Tree, span float64, countArg, dur, factor float64) (*faults.Plan, error) {
	count, err := intCount(countArg)
	if err != nil {
		return nil, err
	}
	if dur <= 0 {
		return nil, fmt.Errorf("dur %v must be positive", formatFloat(dur))
	}
	if t.NumNodes() < 2 {
		return nil, fmt.Errorf("tree has no non-root node to fault")
	}
	p := &faults.Plan{}
	for i := 0; i < count; i++ {
		node := tree.NodeID(1 + r.Intn(t.NumNodes()-1))
		start := r.Float64() * span
		e := faults.Event{Kind: kind, Node: node, Start: start, End: start + dur}
		if kind == faults.Brownout {
			e.Factor = factor
		}
		p.Events = append(p.Events, e)
	}
	return p, nil
}

func intCount(v float64) (int, error) {
	n := int(v)
	if float64(n) != v || n < 0 {
		return 0, fmt.Errorf("count %v is not a non-negative integer", formatFloat(v))
	}
	return n, nil
}

// splitSpec cuts "name:a,b,c" into its name and raw argument strings.
func splitSpec(spec string) (name string, args []string, err error) {
	name, argstr, _ := strings.Cut(spec, ":")
	if name == "" {
		return "", nil, fmt.Errorf("empty spec")
	}
	if argstr != "" {
		for _, a := range strings.Split(argstr, ",") {
			args = append(args, strings.TrimSpace(a))
		}
	}
	return name, args, nil
}

// ParseSpec parses a compact "name:a,b,c" string into a Spec without
// consulting any registry (the name is resolved at build time). Args
// must be finite numbers.
func ParseSpec(spec string) (Spec, error) {
	name, args, err := splitSpec(spec)
	if err != nil {
		return Spec{}, err
	}
	s := Spec{Name: name}
	for _, a := range args {
		v, err := parseFinite(a)
		if err != nil {
			return Spec{}, fmt.Errorf("spec %q: arg %q is not a number", spec, a)
		}
		s.Args = append(s.Args, v)
	}
	return s, nil
}

func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if v != v || v > maxFinite || v < -maxFinite {
		return 0, fmt.Errorf("value %q is not finite", s)
	}
	return v, nil
}

const maxFinite = 1.7976931348623157e308

// BuildTopo builds a topology from a Spec. Generator panics
// (out-of-range shapes) are translated into errors.
func BuildTopo(s Spec) (t *tree.Tree, err error) {
	defer func() {
		if r := recover(); r != nil {
			t, err = nil, fmt.Errorf("topology %q: %v", s.String(), r)
		}
	}()
	e, err := topoReg.lookup(s.Name)
	if err != nil {
		return nil, err
	}
	if len(s.Args) != len(e.Params) {
		return nil, fmt.Errorf("topology %s needs %d args, got %d", s.Name, len(e.Params), len(s.Args))
	}
	ints := make([]int, len(s.Args))
	for i, a := range s.Args {
		v := int(a)
		if float64(v) != a {
			return nil, fmt.Errorf("topology %q: arg %v is not an integer", s.String(), formatFloat(a))
		}
		ints[i] = v
	}
	return e.Build(ints), nil
}

// BuildSize builds a size distribution from a Spec.
func BuildSize(s Spec) (workload.SizeDist, error) {
	e, err := sizeReg.lookup(s.Name)
	if err != nil {
		return nil, err
	}
	if len(s.Args) != len(e.Params) {
		return nil, fmt.Errorf("%s needs %s", s.Name, paramNames(e.Params))
	}
	return e.Build(s.Args), nil
}

func paramNames(ps []Param) string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return strings.Join(names, ",")
}

// ParsePolicy resolves a node scheduling policy name.
func ParsePolicy(name string) (sim.Policy, error) {
	e, err := policyReg.lookup(name)
	if err != nil {
		return nil, err
	}
	return e.Build(), nil
}

// ParseAssigner resolves a leaf-assignment rule name.
func ParseAssigner(name string, ctx AssignerContext) (sim.Assigner, error) {
	e, err := assignReg.lookup(name)
	if err != nil {
		return nil, err
	}
	return e.Build(ctx)
}
