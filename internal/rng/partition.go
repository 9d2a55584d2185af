package rng

// SimulationKey is the master determinism key of one simulation run.
// Every random draw anywhere in a keyed run is a pure function of
// (key, subsystem stream name, draw index), so two runs with the same
// key reproduce each other exactly and two subsystems never share a
// stream.
type SimulationKey uint64

// PartitionedRNG hands out isolated, lazily-initialized generators
// per subsystem. Subsystem names are free-form strings ("workload",
// "sizes", "faults", "tree/3/faults", ...); each name maps to its own
// xoshiro256** stream whose seed is derived from the master key and
// the name alone — never from how many draws other subsystems have
// made. Adding a draw in one subsystem therefore cannot perturb any
// other subsystem's sequence, which is what makes fleet co-simulation
// (several trees side by side) possible without cross-contamination.
//
// The zero value is not usable; construct with NewPartitioned,
// NewLegacy or LegacyFrom. A PartitionedRNG is not safe for
// concurrent use, matching Rand.
type PartitionedRNG struct {
	key SimulationKey
	// shared, when non-nil, puts the partition in legacy mode: every
	// Stream call returns this one generator, so all subsystems
	// interleave their draws on a single stream in call order — the
	// historical single-rng-stream discipline, reproduced bit for bit.
	shared  *Rand
	streams map[string]*Rand
	// prefix namespaces Stream lookups of a Scoped view ("tree/3/").
	prefix string
}

// NewPartitioned returns a keyed partition: every subsystem name gets
// its own independent stream derived from key.
func NewPartitioned(key SimulationKey) *PartitionedRNG {
	return &PartitionedRNG{key: key, streams: map[string]*Rand{}}
}

// NewLegacy returns a legacy-mode partition over a single stream
// seeded exactly like New(seed). Stream returns that one generator
// for every name, so code threaded through a PartitionedRNG draws in
// precisely the order the old single-stream code did — pre-refactor
// traces reproduce bit for bit.
func NewLegacy(seed uint64) *PartitionedRNG { return LegacyFrom(New(seed)) }

// LegacyFrom wraps an existing stream in a legacy-mode partition:
// the wrapped r is handed back for every subsystem name.
func LegacyFrom(r *Rand) *PartitionedRNG { return &PartitionedRNG{shared: r} }

// Legacy reports whether the partition is in legacy single-stream
// mode.
func (p *PartitionedRNG) Legacy() bool { return p.shared != nil }

// Key returns the master key (zero in legacy mode, where the seed
// lives inside the shared stream).
func (p *PartitionedRNG) Key() SimulationKey { return p.key }

// Stream returns the generator for the named subsystem, creating it
// on first use. In keyed mode the stream's seed depends only on the
// master key and the (scoped) name; in legacy mode the one shared
// stream is returned regardless of name.
func (p *PartitionedRNG) Stream(name string) *Rand {
	if p.shared != nil {
		return p.shared
	}
	full := name
	if p.prefix != "" {
		full = p.prefix + name
	}
	if r, ok := p.streams[full]; ok {
		return r
	}
	r := New(deriveSeed(uint64(p.key), full))
	p.streams[full] = r
	return r
}

// Scoped returns a view of the partition that prefixes every stream
// name with scope+"/": Scoped("tree/3").Stream("faults") is the
// stream "tree/3/faults" of the same partition (shared lazily with
// the parent, so the two spellings return the identical generator).
// In legacy mode scoping is a no-op — there is only one stream.
func (p *PartitionedRNG) Scoped(scope string) *PartitionedRNG {
	if p.shared != nil {
		return p
	}
	return &PartitionedRNG{key: p.key, streams: p.streams, prefix: p.prefix + scope + "/"}
}

// deriveSeed maps (key, name) to the seed of the subsystem's stream:
// an FNV-1a hash of the name folded into a splitmix64 chain seeded by
// the key. One extra splitmix64 round before the fold keeps the
// derived seeds away from the raw key (New(key) consumes the
// unadvanced chain), and the final splitmix64 output feeds New, which
// itself expands the seed through four more splitmix64 rounds — the
// same derivation discipline Split documents, so sibling subsystem
// streams carry the same independence contract as Split children
// (pinned by TestPartitionStreamsDisjoint).
func deriveSeed(key uint64, name string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	s := key
	splitmix64(&s)
	s ^= h
	return splitmix64(&s)
}
