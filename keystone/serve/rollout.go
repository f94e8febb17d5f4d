package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"
)

// This file is the shared-rollout-state surface the distributed tier
// pushes through: a dist.Router (or any coordinator) holds one desired
// RolloutState — canary fraction, admission caps — and propagates it to
// every replica via POST /routes/{name}/rollout, so N serve.Server
// processes fronting the same route stay behaviorally identical without
// sharing memory. Both knobs apply live: admission swaps atomically
// under traffic and the canary splitter reads its fraction lock-free.

// RolloutState is the replica-shared rollout configuration for one
// route. Nil fields mean "leave unchanged", so a coordinator can push
// just the knob it is turning.
type RolloutState struct {
	// CanaryFraction retargets the traffic share of a staged canary
	// (0 < f < 1). Pushing it with no canary staged is an error (409).
	CanaryFraction *float64 `json:"canary_fraction,omitempty"`
	// MaxInFlight / MaxQueue / RetryAfterMS rebuild the route's
	// admission control; fields left nil keep their current value.
	// Setting both caps to 0 disables admission entirely.
	MaxInFlight  *int `json:"max_in_flight,omitempty"`
	MaxQueue     *int `json:"max_queue,omitempty"`
	RetryAfterMS *int `json:"retry_after_ms,omitempty"`
}

// SetAdmission replaces the route's admission control under live
// traffic. In-flight requests finish against the admitter they were
// admitted by; new requests see the new caps immediately. A zero
// Admission disables admission control.
func (rt *Route[I, O]) SetAdmission(a Admission) {
	rt.adm.Store(newAdmitter(a))
}

// AdmissionConfig returns the route's current admission caps (zero
// value when admission control is disabled).
func (rt *Route[I, O]) AdmissionConfig() Admission {
	if adm := rt.adm.Load(); adm != nil {
		return adm.cfg
	}
	return Admission{}
}

// SetCanaryFraction retargets the staged canary's traffic share while
// it keeps serving. It returns ErrNoCanary when no candidate is staged
// (shadow mode has no fraction to set).
func (rt *Route[I, O]) SetCanaryFraction(f float64) error {
	if math.IsNaN(f) || f <= 0 || f >= 1 {
		return fmt.Errorf("serve: canary fraction %v out of range (0, 1)", f)
	}
	st := rt.canary.Load()
	if st == nil || st.mode != modeCanary {
		return ErrNoCanary
	}
	st.setFraction(f)
	return nil
}

// ApplyRollout applies a pushed rollout state: admission first (always
// applicable), then the canary fraction (requires a staged canary).
func (rt *Route[I, O]) ApplyRollout(s RolloutState) error {
	if s.MaxInFlight != nil || s.MaxQueue != nil || s.RetryAfterMS != nil {
		a := rt.AdmissionConfig()
		if s.MaxInFlight != nil {
			a.MaxInFlight = *s.MaxInFlight
		}
		if s.MaxQueue != nil {
			a.MaxQueue = *s.MaxQueue
		}
		if s.RetryAfterMS != nil {
			a.RetryAfter = time.Duration(*s.RetryAfterMS) * time.Millisecond
		}
		rt.SetAdmission(a)
	}
	if s.CanaryFraction != nil {
		return rt.SetCanaryFraction(*s.CanaryFraction)
	}
	return nil
}

// rolloutValue renders the route's current rollout state.
func (rt *Route[I, O]) rolloutValue() map[string]any {
	a := rt.AdmissionConfig()
	out := map[string]any{
		"max_in_flight":  a.MaxInFlight,
		"max_queue":      a.MaxQueue,
		"retry_after_ms": int(a.RetryAfter / time.Millisecond),
	}
	if st := rt.canary.Load(); st != nil && st.mode == modeCanary {
		out["canary_fraction"] = st.fraction()
	}
	return out
}

// handleRollout backs /routes/{name}/rollout: GET returns the current
// rollout state, POST applies a pushed RolloutState.
func (rt *Route[I, O]) handleRollout(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		writeJSON(w, rt.rolloutValue())
		return
	}
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use GET for state or POST to apply")
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var s RolloutState
	if err := json.Unmarshal(body, &s); err != nil {
		httpError(w, http.StatusBadRequest, "parse rollout state: "+err.Error())
		return
	}
	if err := rt.ApplyRollout(s); err != nil {
		// ErrNoCanary is a staging conflict (409); anything else here is
		// a bad input (fraction out of range).
		status := http.StatusBadRequest
		if errors.Is(err, ErrNoCanary) {
			status = http.StatusConflict
		}
		httpError(w, status, err.Error())
		return
	}
	writeJSON(w, rt.rolloutValue())
}

// registryHealth implements handler: the per-route inputs to the
// server-level registry aggregation on GET /stats.
func (rt *Route[I, O]) registryHealth() (int64, string, bool) {
	if rt.store == nil {
		return 0, "", false
	}
	var live string
	if v := rt.cur.Load(); v != nil {
		live = v.artifact
	}
	return rt.tagErrs.Load(), live, true
}
