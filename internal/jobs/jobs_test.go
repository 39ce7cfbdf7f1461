package jobs

import (
	"strings"
	"testing"

	"iwscan/internal/experiments"
)

// TestLifecycleStateMachine pins the full transition matrix: every
// legal edge and every illegal one, including that terminal states have
// no exits.
func TestLifecycleStateMachine(t *testing.T) {
	all := []State{StateQueued, StateRunning, StatePaused, StateCompleted, StateFailed, StateCancelled}
	legal := map[[2]State]bool{
		{StateQueued, StateRunning}:    true,
		{StateQueued, StatePaused}:     true,
		{StateQueued, StateCancelled}:  true,
		{StateRunning, StatePaused}:    true,
		{StateRunning, StateQueued}:    true, // daemon restart re-queues
		{StateRunning, StateCompleted}: true,
		{StateRunning, StateFailed}:    true,
		{StateRunning, StateCancelled}: true,
		{StatePaused, StateQueued}:     true,
		{StatePaused, StateCancelled}:  true,
	}
	for _, from := range all {
		for _, to := range all {
			if got := CanTransition(from, to); got != legal[[2]State{from, to}] {
				t.Errorf("CanTransition(%s, %s) = %v, want %v", from, to, got, !got)
			}
		}
		if from.Terminal() {
			for _, to := range all {
				if CanTransition(from, to) {
					t.Errorf("terminal state %s has an exit to %s", from, to)
				}
			}
		}
	}
}

func TestSpecNormalizeDefaults(t *testing.T) {
	s := Spec{Tenant: "acme"}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Universe != "2017" || s.UniverseSeed != 2017 || s.Strategy != "http" ||
		s.SampleFraction != 1 || s.Rate != 10000 || s.Format != "csv" {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if s.artifactName() != "records.csv" {
		t.Fatalf("artifactName = %q", s.artifactName())
	}
}

func TestSpecNormalizeAdversityProfiles(t *testing.T) {
	s := Spec{Tenant: "acme", Adversity: "hostile"}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Loss != 0.05 || s.Reorder != 0.02 || s.Duplicate != 0.01 || s.TailLoss != 0.2 {
		t.Fatalf("hostile profile not resolved: %+v", s)
	}
	// Explicit knobs override the profile field by field.
	s = Spec{Tenant: "acme", Adversity: "lossy", Loss: 0.11}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Loss != 0.11 {
		t.Fatalf("explicit loss overridden by profile: %v", s.Loss)
	}
}

func TestSpecNormalizeScanModes(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // "" = valid
	}{
		{"default-full", Spec{Tenant: "a"}, ""},
		{"explicit-full", Spec{Tenant: "a", ScanMode: "full"}, ""},
		{"smart-ok", Spec{Tenant: "a", ScanMode: "smart", SmartModel: "m.iwsm", SmartThreshold: 0.01}, ""},
		{"hitlist-ok", Spec{Tenant: "a", ScanMode: "hitlist", HitlistPath: "full.csv"}, ""},
		{"unknown-mode", Spec{Tenant: "a", ScanMode: "psychic"}, `unknown scan_mode "psychic"`},
		{"smart-no-model", Spec{Tenant: "a", ScanMode: "smart"}, "scan_mode smart requires smart_model"},
		{"hitlist-no-path", Spec{Tenant: "a", ScanMode: "hitlist"}, "scan_mode hitlist requires hitlist_path"},
		{"smart-fields-on-full", Spec{Tenant: "a", SmartModel: "m.iwsm"}, "require scan_mode smart"},
		{"hitlist-path-on-full", Spec{Tenant: "a", HitlistPath: "x.csv"}, "hitlist_path requires scan_mode hitlist"},
		{"threshold-range", Spec{Tenant: "a", ScanMode: "smart", SmartModel: "m", SmartThreshold: 1.5},
			"smart_threshold 1.5 out of range"},
		{"explore-disabled", Spec{Tenant: "a", ScanMode: "smart", SmartModel: "m", SmartExplore: -1}, ""},
		{"explore-range", Spec{Tenant: "a", ScanMode: "smart", SmartModel: "m", SmartExplore: 1.5},
			"smart_explore 1.5 out of range"},
	}
	for _, c := range cases {
		err := c.spec.Normalize()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want == "" && c.spec.ScanMode == "":
			t.Errorf("%s: ScanMode not defaulted to full", c.name)
		case c.want != "" && err == nil:
			t.Errorf("%s: invalid spec accepted", c.name)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestSpecNormalizeMSSList: the core announces each MSS in a 16-bit
// SYN option, so an entry outside [1, 65535] would silently wrap; and
// the IW estimate walks the list upward, so it must strictly increase.
func TestSpecNormalizeMSSList(t *testing.T) {
	for _, ok := range [][]int{nil, {64}, {64, 128}, {1, 65535}} {
		s := Spec{Tenant: "a", MSSList: ok}
		if err := s.Normalize(); err != nil {
			t.Errorf("mss_list %v rejected: %v", ok, err)
		}
	}
	cases := []struct {
		name string
		mss  []int
		want string
	}{
		{"too-large", []int{70000}, "mss_list[0] = 70000 out of range [1, 65535]"},
		{"negative", []int{-5}, "mss_list[0] = -5 out of range [1, 65535]"},
		{"zero", []int{0}, "mss_list[0] = 0 out of range [1, 65535]"},
		{"one-past-16-bit", []int{64, 65536}, "mss_list[1] = 65536 out of range [1, 65535]"},
		{"duplicate", []int{64, 64}, "mss_list[1] = 64 not above mss_list[0] = 64"},
		{"decreasing", []int{128, 64}, "mss_list[1] = 64 not above mss_list[0] = 128"},
	}
	for _, c := range cases {
		s := Spec{Tenant: "a", MSSList: c.mss}
		err := s.Normalize()
		switch {
		case err == nil:
			t.Errorf("%s: mss_list %v accepted", c.name, c.mss)
		case !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestApplyTargetsFailsOnMissingInputs: a job whose model or hitlist
// file is unreadable must fail at segment start with a named error, not
// silently scan the full space.
func TestApplyTargetsFailsOnMissingInputs(t *testing.T) {
	smart := Spec{Tenant: "a", ScanMode: "smart", SmartModel: "/nonexistent/m.iwsm"}
	if err := smart.Normalize(); err != nil {
		t.Fatal(err)
	}
	var cfg experiments.ScanConfig
	if err := smart.applyTargets(&cfg); err == nil || !strings.Contains(err.Error(), "smart model") {
		t.Errorf("missing model: err = %v, want smart model error", err)
	}
	hit := Spec{Tenant: "a", ScanMode: "hitlist", HitlistPath: "/nonexistent/full.csv"}
	if err := hit.Normalize(); err != nil {
		t.Fatal(err)
	}
	cfg = experiments.ScanConfig{}
	if err := hit.applyTargets(&cfg); err == nil || !strings.Contains(err.Error(), "hitlist") {
		t.Errorf("missing hitlist: err = %v, want hitlist error", err)
	}
}

// TestSpecNormalizeCollectsProblems: a bad spec reports every problem
// in one deterministic message, not just the first.
func TestSpecNormalizeCollectsProblems(t *testing.T) {
	s := Spec{Universe: "1999", Strategy: "icmp", Adversity: "cosmic", Format: "xml", Rate: -1}
	err := s.Normalize()
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	for _, want := range []string{
		"tenant is required",
		`unknown universe "1999"`,
		`unknown strategy "icmp"`,
		`unknown adversity profile "cosmic" (want bursty, clean, hostile, lossy)`,
		`unknown format "xml"`,
		"rate -1 is negative",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
