// Package jobs is the scan-service control plane: it turns the
// checkpoint + sink + telemetry layers built for one-shot CLI scans
// into a long-running multi-tenant job server. Clients submit scan jobs
// (target universe, probe strategy, adversity profile, output format,
// tenant identity, rate budget); a fair-share scheduler slices each job
// into short virtual-time segments and interleaves the segments across
// tenants in proportion to their weights, under a bounded number of
// concurrently executing segments.
//
// The arithmetic follows the paper's §3.4 scanning-infrastructure
// budget: one uplink (150 kpps there) shared across campaigns becomes a
// global probes-per-second budget carved into per-tenant shares by
// weight, enforced through the existing scanner.Engine rate limiter —
// each job's engine rate is capped at its tenant's share when it is
// admitted. "Ten Years of ZMap" describes the same evolution this
// package reproduces: the one-shot scanner growing into a service that
// schedules continuous scans for many consumers.
//
// Every segment ends at a cooperative pause point: the runner stops the
// simulation after a fixed span of virtual time, flushes the sink, and
// persists the engine cursor (internal/checkpoint) together with the
// job metadata in one atomic write. Pause, resume, cancel and daemon
// restarts all act at these points, so a paused-then-resumed job —
// including across a process restart — produces byte-identical sink
// output to an uninterrupted run, the same splice guarantee the CLI's
// -resume has had since the streaming pipeline landed.
package jobs

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"iwscan/internal/core"
	"iwscan/internal/experiments"
	"iwscan/internal/inet"
	"iwscan/internal/output"
	"iwscan/internal/prefixtree"
)

// State is a job's lifecycle state.
type State string

// Job lifecycle states. The machine is
//
//	queued → running → completed | failed
//	   ↑        ↓ (pause point)
//	   └───── paused
//
// with cancelled reachable from queued, running and paused. Terminal
// states (completed, failed, cancelled) have no exits.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StatePaused    State = "paused"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s has no outgoing transitions.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCancelled
}

// transitions is the full lifecycle state machine. Every state change
// in the manager goes through CanTransition, so an illegal edge is a
// bug caught at the door rather than a corrupted job file.
var transitions = map[State][]State{
	StateQueued:  {StateRunning, StatePaused, StateCancelled},
	StateRunning: {StatePaused, StateQueued, StateCompleted, StateFailed, StateCancelled},
	StatePaused:  {StateQueued, StateCancelled},
}

// CanTransition reports whether from → to is a legal lifecycle edge.
func CanTransition(from, to State) bool {
	for _, next := range transitions[from] {
		if next == to {
			return true
		}
	}
	return false
}

// Spec is the client-submitted description of one scan job — the JSON
// body of POST /jobs. Identity-defining fields (everything except Name)
// are frozen at submission; the normalized spec is persisted with the
// job and drives every segment, which is what keeps resumed output
// byte-identical.
type Spec struct {
	// Name is a free-form label for humans; it has no identity role.
	Name string `json:"name,omitempty"`
	// Tenant identifies the budget owner. Required.
	Tenant string `json:"tenant"`
	// Weight is the tenant's fair-share weight (default 1). The first
	// submission naming a tenant fixes its weight; later submissions may
	// omit it (0 = keep) but not contradict it.
	Weight int `json:"weight,omitempty"`

	// Universe selects the modelled target population: "2017" (default)
	// or "2005".
	Universe string `json:"universe,omitempty"`
	// UniverseSeed seeds the universe synthesis (default 2017).
	UniverseSeed uint64 `json:"universe_seed,omitempty"`
	// Seed drives the scan permutation and the simulation RNG.
	Seed uint64 `json:"seed"`
	// Strategy is the probe module: "http" (default), "tls" or "syn".
	Strategy string `json:"strategy,omitempty"`
	// SampleFraction probes a deterministic subset of the space
	// (default 1 = everything).
	SampleFraction float64 `json:"sample_fraction,omitempty"`
	// Rate is the requested launch rate in probes per second of virtual
	// time (default 10000). The admitted rate is min(Rate, tenant
	// budget share) — see Job.EffectiveRate.
	Rate float64 `json:"rate,omitempty"`
	// MSSList / Repeats parameterize the IW measurement (defaults 64,128
	// and 3, as in the CLI). Each MSS is announced in the SYN's 16-bit
	// option, so entries must lie in [1, 65535], strictly increasing.
	MSSList []int `json:"mss_list,omitempty"`
	Repeats int   `json:"repeats,omitempty"`
	// MaxRetries re-launches unreachable probes up to this many times.
	MaxRetries int `json:"max_retries,omitempty"`

	// Adversity names a canned network profile: "clean" (default),
	// "lossy", "bursty" or "hostile". The explicit knobs below override
	// the profile's values field by field when non-zero.
	Adversity string  `json:"adversity,omitempty"`
	Loss      float64 `json:"loss,omitempty"`
	Reorder   float64 `json:"reorder,omitempty"`
	Duplicate float64 `json:"duplicate,omitempty"`
	TailLoss  float64 `json:"tail_loss,omitempty"`

	// Format is the artifact codec: "csv" (default), "jsonl" or "bin".
	Format string `json:"format,omitempty"`

	// ScanMode selects the target-selection strategy: "full" (default)
	// sweeps the whole announced space; "smart" compiles the
	// responsiveness model file named by SmartModel into a prune/reorder
	// plan (internal/prefixtree); "hitlist" probes only the responsive
	// hosts of the prior scan output named by HitlistPath. Both files
	// are server-side paths, read at every segment start — they must
	// stay unchanged while the job runs (the checkpoint fingerprint
	// embeds the model hash / list hash and refuses a drifted file).
	ScanMode string `json:"scan_mode,omitempty"`
	// SmartModel is the IWSM1 model file driving scan_mode "smart".
	SmartModel string `json:"smart_model,omitempty"`
	// SmartThreshold / SmartExplore tune the plan (0 = the prefixtree
	// defaults: threshold 0.02, exploration floor 0.05; a negative
	// explore disables exploration, matching the CLI's -smart-explore).
	SmartThreshold float64 `json:"smart_threshold,omitempty"`
	SmartExplore   float64 `json:"smart_explore,omitempty"`
	// HitlistPath is the prior scan output (csv, jsonl or iwb) seeding
	// scan_mode "hitlist".
	HitlistPath string `json:"hitlist_path,omitempty"`
}

// adversityProfiles maps profile names to their knob defaults.
var adversityProfiles = map[string]Spec{
	"clean":   {},
	"lossy":   {Loss: 0.05},
	"bursty":  {TailLoss: 0.3},
	"hostile": {Loss: 0.05, Reorder: 0.02, Duplicate: 0.01, TailLoss: 0.2},
}

// Normalize validates the spec and fills defaults in place, resolving
// the named adversity profile into explicit knobs. It must be called
// exactly once, at submission; the normalized spec is what persists.
func (s *Spec) Normalize() error {
	var problems []string
	if strings.TrimSpace(s.Tenant) == "" {
		problems = append(problems, "tenant is required")
	}
	if s.Weight < 0 {
		problems = append(problems, fmt.Sprintf("weight %d is negative", s.Weight))
	}
	switch s.Universe {
	case "":
		s.Universe = "2017"
	case "2017", "2005":
	default:
		problems = append(problems, fmt.Sprintf("unknown universe %q (want 2017 or 2005)", s.Universe))
	}
	if s.UniverseSeed == 0 {
		s.UniverseSeed = 2017
	}
	s.Strategy = cmp.Or(s.Strategy, "http")
	if _, err := core.ParseStrategy(s.Strategy); err != nil {
		problems = append(problems, fmt.Sprintf("unknown strategy %q (want http, tls or syn)", s.Strategy))
	}
	if s.SampleFraction == 0 {
		s.SampleFraction = 1
	}
	if s.SampleFraction < 0 || s.SampleFraction > 1 {
		problems = append(problems, fmt.Sprintf("sample_fraction %v out of range (0, 1]", s.SampleFraction))
	}
	if s.Rate < 0 {
		problems = append(problems, fmt.Sprintf("rate %v is negative", s.Rate))
	}
	if s.Rate == 0 {
		s.Rate = 10000
	}
	if s.Repeats < 0 || s.MaxRetries < 0 {
		problems = append(problems, "repeats and max_retries must be >= 0")
	}
	for i, mss := range s.MSSList {
		switch {
		case mss < 1 || mss > 65535:
			problems = append(problems, fmt.Sprintf("mss_list[%d] = %d out of range [1, 65535]", i, mss))
		case i > 0 && mss <= s.MSSList[i-1]:
			problems = append(problems, fmt.Sprintf("mss_list[%d] = %d not above mss_list[%d] = %d (want strictly increasing)",
				i, mss, i-1, s.MSSList[i-1]))
		}
	}
	if s.Adversity != "" {
		prof, ok := adversityProfiles[s.Adversity]
		if !ok {
			known := make([]string, 0, len(adversityProfiles))
			for k := range adversityProfiles {
				known = append(known, k)
			}
			sort.Strings(known)
			problems = append(problems, fmt.Sprintf("unknown adversity profile %q (want %s)",
				s.Adversity, strings.Join(known, ", ")))
		} else {
			if s.Loss == 0 {
				s.Loss = prof.Loss
			}
			if s.Reorder == 0 {
				s.Reorder = prof.Reorder
			}
			if s.Duplicate == 0 {
				s.Duplicate = prof.Duplicate
			}
			if s.TailLoss == 0 {
				s.TailLoss = prof.TailLoss
			}
		}
	}
	for name, v := range map[string]float64{
		"loss": s.Loss, "reorder": s.Reorder, "duplicate": s.Duplicate, "tail_loss": s.TailLoss,
	} {
		if v < 0 || v >= 1 {
			problems = append(problems, fmt.Sprintf("%s %v out of range [0, 1)", name, v))
		}
	}
	switch s.Format {
	case "":
		s.Format = "csv"
	case "csv", "jsonl", "bin":
	default:
		problems = append(problems, fmt.Sprintf("unknown format %q (want csv, jsonl or bin)", s.Format))
	}
	switch s.ScanMode {
	case "":
		s.ScanMode = "full"
	case "full":
	case "smart":
		if strings.TrimSpace(s.SmartModel) == "" {
			problems = append(problems, "scan_mode smart requires smart_model")
		}
	case "hitlist":
		if strings.TrimSpace(s.HitlistPath) == "" {
			problems = append(problems, "scan_mode hitlist requires hitlist_path")
		}
	default:
		problems = append(problems, fmt.Sprintf("unknown scan_mode %q (want full, smart or hitlist)", s.ScanMode))
	}
	if s.ScanMode != "smart" && (s.SmartModel != "" || s.SmartThreshold != 0 || s.SmartExplore != 0) {
		problems = append(problems, "smart_model, smart_threshold and smart_explore require scan_mode smart")
	}
	if s.ScanMode != "hitlist" && s.HitlistPath != "" {
		problems = append(problems, "hitlist_path requires scan_mode hitlist")
	}
	if s.SmartThreshold < 0 || s.SmartThreshold >= 1 {
		problems = append(problems, fmt.Sprintf("smart_threshold %v out of range [0, 1)", s.SmartThreshold))
	}
	if s.SmartExplore >= 1 {
		problems = append(problems, fmt.Sprintf("smart_explore %v out of range (want < 1; negative disables exploration)", s.SmartExplore))
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("jobs: invalid spec: %s", strings.Join(problems, "; "))
	}
	return nil
}

// universe materializes the spec's target population. Normalize must
// have accepted the spec first.
func (s *Spec) universe() *inet.Universe {
	switch s.Universe {
	case "2005":
		return inet.NewInternet2005(s.UniverseSeed)
	default:
		return inet.NewInternet2017(s.UniverseSeed)
	}
}

// strategy maps the spec's strategy name onto the core enum. Normalize
// must have accepted the spec first.
func (s *Spec) strategy() core.Strategy {
	st, _ := core.ParseStrategy(s.Strategy)
	return st
}

// applyTargets resolves the spec's scan mode into the segment config:
// "smart" compiles the model file into a prune/reorder plan, "hitlist"
// loads the prior scan output into an explicit address list, "full"
// does nothing. It runs at every segment start — both inputs are plain
// files, so as long as they are unmodified every segment compiles the
// identical plan and the checkpoint fingerprint splice holds; a
// retrained model mid-job surfaces as a fingerprint mismatch, not as
// silently different coverage.
func (s *Spec) applyTargets(cfg *experiments.ScanConfig) error {
	switch s.ScanMode {
	case "smart":
		m, err := prefixtree.Load(s.SmartModel)
		if err != nil {
			return fmt.Errorf("jobs: smart model: %w", err)
		}
		cfg.Smart = prefixtree.NewPlan(m, prefixtree.PlanConfig{
			Threshold: s.SmartThreshold,
			Explore:   s.SmartExplore,
			Seed:      s.Seed,
		})
	case "hitlist":
		recs, err := output.ReadRecordsFile(s.HitlistPath)
		if err != nil {
			return fmt.Errorf("jobs: hitlist: %w", err)
		}
		hl := prefixtree.Hitlist(recs)
		if len(hl) == 0 {
			return fmt.Errorf("jobs: hitlist %s contains no responsive hosts", s.HitlistPath)
		}
		cfg.Hitlist = hl
	}
	return nil
}

// artifactName is the job's output file name (within its artifact
// directory) for the spec's format.
func (s *Spec) artifactName() string {
	switch s.Format {
	case "jsonl":
		return "records.jsonl"
	case "bin":
		return "records.iwb"
	default:
		return "records.csv"
	}
}
