// Package scenario is the trace-driven workload harness: a declarative
// JSON spec (key distribution, op mix with transaction batches, arrival
// pattern, tenants, value sizes, op budgets) compiles into a fully
// deterministic seeded op trace, and the trace replays against any target
// — the embedded engine, a durable or partitioned database, or a hermitd
// deployment over the wire (single node or a replicated cluster) — while
// recording per-op latencies so results report p50/p99/p999, the SLO
// language of serving systems, instead of mean ops/sec.
//
// The design is generate-then-replay (ReqBench-style): every random draw
// happens at compile time from the spec's seed, so the op stream is
// byte-identical across runs and across targets; the trace hash proves
// it. Replay only spends wall clock and records what it observed.
package scenario

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"sort"
	"strings"
)

// Target kinds a spec can name. The embedded kinds are built by this
// package; the wire kinds only need an address, so the harness stays
// deployment-agnostic.
const (
	// TargetEmbed replays against an in-memory engine.DB (its tables
	// partitioned when the spec says so).
	TargetEmbed = "embed"
	// TargetDurable replays against a WAL-backed engine.DurableDB under a
	// temp dir (partitioned when the spec says so).
	TargetDurable = "durable"
	// TargetWire replays through internal/client against a hermitd
	// endpoint.
	TargetWire = "wire"
	// TargetCluster replays through client.DialCluster against a leader
	// plus followers with optional read-your-writes.
	TargetCluster = "cluster"
)

// Key distribution kinds.
const (
	// KeyUniform draws keys uniformly over the populated key space.
	KeyUniform = "uniform"
	// KeyZipf draws Zipf-ranked keys (rank 0 = hottest = key 0).
	KeyZipf = "zipf"
	// KeyRecent draws Zipf-ranked keys anchored at the newest key (rank
	// 0 = most recently inserted) — the time-series read pattern.
	KeyRecent = "recent"
	// KeyHotset sends HotProb of the draws into the first HotFraction of
	// the key space and the rest uniform — a two-tier hot/cold skew.
	KeyHotset = "hotset"
)

// Arrival kinds.
const (
	// ArrivalClosed is closed-loop: Workers goroutines issue ops
	// back-to-back; latency is service time.
	ArrivalClosed = "closed"
	// ArrivalPoisson is open-loop: ops arrive on a precomputed Poisson
	// schedule at RatePerSec (optionally bursty); latency is measured
	// from the scheduled arrival, so queueing delay counts (no
	// coordinated omission).
	ArrivalPoisson = "poisson"
)

// Spec is a complete scenario: one table shape shared by every tenant,
// plus an ordered list of phases replayed back to back.
type Spec struct {
	// Name identifies the scenario (canned specs are looked up by it).
	Name string `json:"name"`
	// Description says what the scenario exercises.
	Description string `json:"description,omitempty"`
	// Seed feeds every random draw at compile time. The compiled trace
	// is a pure function of (Spec, Seed, scale).
	Seed int64 `json:"seed"`
	// Target selects the default replay target kind (TargetEmbed when
	// empty). The caller may override it.
	Target string `json:"target,omitempty"`
	// Tenants is how many per-tenant tables the scenario spreads over
	// (default 1). Tenant i's table is named "ten<i>".
	Tenants int `json:"tenants,omitempty"`
	// Table is the shared table shape.
	Table TableSpec `json:"table"`
	// Advisor enables the self-tuning advisor on embedded targets, for
	// convergence scenarios (ignored over the wire).
	Advisor bool `json:"advisor,omitempty"`
	// Phases run in order; each reports its own latency quantiles.
	Phases []PhaseSpec `json:"phases"`
}

// TableSpec is the table shape every tenant gets.
type TableSpec struct {
	// ValueCols is how many payload columns follow the primary key — the
	// value-size knob (row width = 1 + ValueCols).
	ValueCols int `json:"value_cols"`
	// Partitions > 0 hash-partitions each table.
	Partitions int `json:"partitions,omitempty"`
	// BTreeCols are secondary B+-tree indexes built at setup.
	BTreeCols []int `json:"btree_cols,omitempty"`
	// Correlated makes column 1 a linear function of column 2
	// (col1 = 2*col2 + 100, col2 uniform in [0, 1000)) — the paper's
	// Synthetic-Linear pair, so the advisor can discover a Hermit index.
	// Requires ValueCols >= 2.
	Correlated bool `json:"correlated,omitempty"`
}

// PhaseSpec is one replay phase.
type PhaseSpec struct {
	// Name labels the phase in results ("load", "steady", ...).
	Name string `json:"name"`
	// Ops is the phase's nominal op budget; the compiler scales it (with
	// a floor) so one spec serves laptop smoke runs and full sweeps.
	Ops int `json:"ops"`
	// Arrival is the arrival pattern (closed-loop default).
	Arrival ArrivalSpec `json:"arrival"`
	// Keys is the key distribution reads/updates/deletes draw from.
	// Inserts always append the next sequential key.
	Keys KeySpec `json:"keys"`
	// Mix weights the op kinds; weights are normalized.
	Mix MixSpec `json:"mix"`
	// Selectivity is the fraction of the populated key space (or the
	// query column's domain) a range predicate covers (default 0.01).
	Selectivity float64 `json:"selectivity,omitempty"`
	// QueryCol is the column queries predicate on (0 = primary key).
	QueryCol int `json:"query_col,omitempty"`
	// TxnOps is how many read-modify-write member ops a txn batch holds
	// (default 4).
	TxnOps int `json:"txn_ops,omitempty"`
	// TenantWeights biases the per-op tenant draw (len == Tenants;
	// uniform when empty) — the noisy-neighbor knob.
	TenantWeights []float64 `json:"tenant_weights,omitempty"`
}

// ArrivalSpec is a phase's arrival pattern.
type ArrivalSpec struct {
	// Kind is ArrivalClosed or ArrivalPoisson (default closed).
	Kind string `json:"kind,omitempty"`
	// Workers is the replay concurrency: closed-loop goroutines, or the
	// open-loop executor pool (default 4).
	Workers int `json:"workers,omitempty"`
	// RatePerSec is the open-loop base arrival rate (required for
	// poisson). It is not scaled: op budgets shrink at small scales, the
	// offered load per second does not.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst overlays periodic rate multiplication on the schedule.
	Burst *BurstSpec `json:"burst,omitempty"`
}

// BurstSpec describes periodic open-loop bursts: every EveryMS
// milliseconds the arrival rate multiplies by Factor for DurationMS.
type BurstSpec struct {
	// EveryMS is the burst period in milliseconds.
	EveryMS int `json:"every_ms"`
	// DurationMS is how long each burst lasts.
	DurationMS int `json:"duration_ms"`
	// Factor multiplies the base rate during the burst.
	Factor float64 `json:"factor"`
}

// KeySpec is a phase's key distribution.
type KeySpec struct {
	// Kind is one of KeyUniform, KeyZipf, KeyRecent, KeyHotset (default
	// uniform).
	Kind string `json:"kind,omitempty"`
	// Zipf is the Zipf s parameter (> 1; default 1.2) for zipf/recent.
	Zipf float64 `json:"zipf,omitempty"`
	// HotFraction is the hot fraction of the key space (hotset only;
	// default 0.05).
	HotFraction float64 `json:"hot_fraction,omitempty"`
	// HotProb is the probability a draw hits the hot set (hotset only;
	// default 0.9).
	HotProb float64 `json:"hot_prob,omitempty"`
}

// MixSpec weights a phase's op kinds. Zero-valued kinds never occur;
// weights need not sum to 1.
type MixSpec struct {
	// Point weights single-key equality reads.
	Point float64 `json:"point,omitempty"`
	// Range weights range scans.
	Range float64 `json:"range,omitempty"`
	// Insert weights sequential-key appends.
	Insert float64 `json:"insert,omitempty"`
	// Update weights single-column updates.
	Update float64 `json:"update,omitempty"`
	// Delete weights single-key deletes.
	Delete float64 `json:"delete,omitempty"`
	// Txn weights atomic read-modify-write batches of TxnOps members
	// (contended txns produce first-committer-wins aborts).
	Txn float64 `json:"txn,omitempty"`
}

// sum returns the total mix weight.
func (m MixSpec) sum() float64 {
	return m.Point + m.Range + m.Insert + m.Update + m.Delete + m.Txn
}

// Parse decodes and validates a spec from JSON.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec's invariants (after applying no defaults; the
// compiler applies defaults at compile time so the hash covers the raw
// spec).
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	switch s.Target {
	case "", TargetEmbed, TargetDurable, TargetWire, TargetCluster:
	default:
		return fmt.Errorf("scenario %s: unknown target %q", s.Name, s.Target)
	}
	if s.Tenants < 0 || s.Tenants > 64 {
		return fmt.Errorf("scenario %s: tenants %d outside [0, 64]", s.Name, s.Tenants)
	}
	if s.Table.ValueCols < 1 || s.Table.ValueCols > 32 {
		return fmt.Errorf("scenario %s: value_cols %d outside [1, 32]", s.Name, s.Table.ValueCols)
	}
	if s.Table.Partitions < 0 {
		return fmt.Errorf("scenario %s: negative partitions", s.Name)
	}
	if s.Table.Correlated && s.Table.ValueCols < 2 {
		return fmt.Errorf("scenario %s: correlated needs value_cols >= 2", s.Name)
	}
	for _, col := range s.Table.BTreeCols {
		if col < 1 || col > s.Table.ValueCols {
			return fmt.Errorf("scenario %s: btree col %d outside value columns [1, %d]",
				s.Name, col, s.Table.ValueCols)
		}
	}
	if s.Advisor && (s.Target == TargetWire || s.Target == TargetCluster) {
		return fmt.Errorf("scenario %s: advisor runs in-process; wire targets cannot enable it", s.Name)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %s: no phases", s.Name)
	}
	for i, ph := range s.Phases {
		if ph.Name == "" {
			return fmt.Errorf("scenario %s: phase %d needs a name", s.Name, i)
		}
		if ph.Ops <= 0 {
			return fmt.Errorf("scenario %s/%s: ops must be positive", s.Name, ph.Name)
		}
		switch ph.Arrival.Kind {
		case "", ArrivalClosed:
		case ArrivalPoisson:
			if ph.Arrival.RatePerSec <= 0 {
				return fmt.Errorf("scenario %s/%s: poisson arrival needs rate_per_sec", s.Name, ph.Name)
			}
			if b := ph.Arrival.Burst; b != nil {
				if b.EveryMS <= 0 || b.DurationMS <= 0 || b.DurationMS > b.EveryMS || b.Factor <= 0 {
					return fmt.Errorf("scenario %s/%s: invalid burst %+v", s.Name, ph.Name, *b)
				}
			}
		default:
			return fmt.Errorf("scenario %s/%s: unknown arrival kind %q", s.Name, ph.Name, ph.Arrival.Kind)
		}
		if ph.Arrival.Workers < 0 || ph.Arrival.Workers > 256 {
			return fmt.Errorf("scenario %s/%s: workers %d outside [0, 256]", s.Name, ph.Name, ph.Arrival.Workers)
		}
		switch ph.Keys.Kind {
		case "", KeyUniform, KeyHotset:
		case KeyZipf, KeyRecent:
			if ph.Keys.Zipf != 0 && ph.Keys.Zipf <= 1 {
				return fmt.Errorf("scenario %s/%s: zipf s must be > 1", s.Name, ph.Name)
			}
		default:
			return fmt.Errorf("scenario %s/%s: unknown key kind %q", s.Name, ph.Name, ph.Keys.Kind)
		}
		if ph.Keys.HotFraction < 0 || ph.Keys.HotFraction > 1 || ph.Keys.HotProb < 0 || ph.Keys.HotProb > 1 {
			return fmt.Errorf("scenario %s/%s: hotset parameters outside [0, 1]", s.Name, ph.Name)
		}
		if ph.Mix.sum() <= 0 {
			return fmt.Errorf("scenario %s/%s: empty op mix", s.Name, ph.Name)
		}
		neg := func(v float64) bool { return v < 0 }
		if neg(ph.Mix.Point) || neg(ph.Mix.Range) || neg(ph.Mix.Insert) ||
			neg(ph.Mix.Update) || neg(ph.Mix.Delete) || neg(ph.Mix.Txn) {
			return fmt.Errorf("scenario %s/%s: negative mix weight", s.Name, ph.Name)
		}
		if ph.Selectivity < 0 || ph.Selectivity > 1 {
			return fmt.Errorf("scenario %s/%s: selectivity %g outside [0, 1]", s.Name, ph.Name, ph.Selectivity)
		}
		if ph.QueryCol < 0 || ph.QueryCol > s.Table.ValueCols {
			return fmt.Errorf("scenario %s/%s: query_col %d outside [0, %d]",
				s.Name, ph.Name, ph.QueryCol, s.Table.ValueCols)
		}
		if ph.TxnOps < 0 || ph.TxnOps > 64 {
			return fmt.Errorf("scenario %s/%s: txn_ops %d outside [0, 64]", s.Name, ph.Name, ph.TxnOps)
		}
		if len(ph.TenantWeights) != 0 {
			tenants := s.Tenants
			if tenants == 0 {
				tenants = 1
			}
			if len(ph.TenantWeights) != tenants {
				return fmt.Errorf("scenario %s/%s: %d tenant weights for %d tenants",
					s.Name, ph.Name, len(ph.TenantWeights), tenants)
			}
			var sum float64
			for _, w := range ph.TenantWeights {
				if w < 0 {
					return fmt.Errorf("scenario %s/%s: negative tenant weight", s.Name, ph.Name)
				}
				sum += w
			}
			if sum <= 0 {
				return fmt.Errorf("scenario %s/%s: tenant weights sum to zero", s.Name, ph.Name)
			}
		}
	}
	return nil
}

// Hash returns the spec's canonical hash: sha256 over the struct's JSON
// encoding (stable field order), truncated to 16 hex digits. Two specs
// with the same hash compile to the same trace at the same scale.
func (s *Spec) Hash() string {
	data, err := json.Marshal(s)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on one.
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// TableName returns tenant i's table name.
func TableName(i int) string { return fmt.Sprintf("ten%d", i) }

// Columns returns the schema for the spec's table shape: pk, v1..vN.
func (s *Spec) Columns() []string {
	cols := make([]string, 0, 1+s.Table.ValueCols)
	cols = append(cols, "pk")
	for i := 1; i <= s.Table.ValueCols; i++ {
		cols = append(cols, fmt.Sprintf("v%d", i))
	}
	return cols
}

// tenantCount returns the effective tenant count (>= 1).
func (s *Spec) tenantCount() int {
	if s.Tenants <= 0 {
		return 1
	}
	return s.Tenants
}

//go:embed specs/*.json
var cannedFS embed.FS

// Canned returns the checked-in scenario spec with the given name.
func Canned(name string) (*Spec, error) {
	data, err := cannedFS.ReadFile("specs/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("scenario: no canned scenario %q (have %s)",
			name, strings.Join(CannedNames(), ", "))
	}
	return Parse(data)
}

// CannedNames lists the checked-in scenarios in name order.
func CannedNames() []string {
	entries, err := fs.ReadDir(cannedFS, "specs")
	if err != nil {
		panic(err) // embedded FS: cannot fail
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names
}
