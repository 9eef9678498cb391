// Package fault is the process-wide fault-injection and fault-containment
// toolkit: a seeded, deterministic registry of named injection points that
// chaos schedules arm to fire panics, errors, or added latency with a
// configured probability, plus the helpers the rest of the stack uses to
// contain the damage — panic-to-error conversion with stacks attached, a
// per-engine circuit breaker, and jittered exponential backoff for
// transient retries.
//
// Design rules:
//
//  1. Disabled means free. A point with no armed rule costs one atomic
//     pointer load per Inject call; no counters move, nothing allocates.
//     Results with injection uninstalled are bit-identical to a build
//     that never imported this package.
//  2. Deterministic. Whether a given armed hit fires is a pure function of
//     (schedule seed, point name, per-point hit index) via a splitmix64
//     hash — replaying a schedule over a serial workload fires the exact
//     same faults. Under concurrency the hit indices interleave, but the
//     marginal fire rate and the fired set per index stay fixed.
//  3. Injected faults are typed. Errors wrap ErrInjected, injected panics
//     panic with *PanicValue, and recovered panics become errors wrapping
//     ErrPanic — so containment layers can classify what hit them.
package fault

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Kind is the effect an armed rule fires.
type Kind uint8

// Fault kinds.
const (
	// KindError makes Inject return an error wrapping ErrInjected.
	KindError Kind = iota
	// KindPanic makes Inject panic with a *PanicValue.
	KindPanic
	// KindLatency makes Inject sleep for the rule's Latency, then succeed.
	KindLatency
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindLatency:
		return "latency"
	default:
		return "error"
	}
}

// ParseKind parses a kind name.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "error":
		return KindError, nil
	case "panic":
		return KindPanic, nil
	case "latency":
		return KindLatency, nil
	}
	return 0, fmt.Errorf("fault: unknown kind %q (want error, panic, or latency)", s)
}

// ErrInjected is the sentinel every injected error wraps; Injected tests
// for it.
var ErrInjected = errors.New("fault: injected")

// Error is one injected error fault.
type Error struct {
	// Point is the injection point that fired.
	Point string
}

// Error implements error.
func (e *Error) Error() string { return "fault: injected error at " + e.Point }

// Unwrap makes errors.Is(err, ErrInjected) true.
func (e *Error) Unwrap() error { return ErrInjected }

// Injected reports whether err originates from an injected fault.
func Injected(err error) bool { return errors.Is(err, ErrInjected) }

// PanicValue is what injected panics panic with, so containment tests can
// tell an injected panic from a genuine bug.
type PanicValue struct {
	// Point is the injection point that fired.
	Point string
}

// String renders the panic value.
func (p *PanicValue) String() string { return "fault: injected panic at " + p.Point }

// ErrPanic is the sentinel wrapped by every error produced from a
// recovered panic.
var ErrPanic = errors.New("panic recovered")

// RecoveredError is a panic converted to an error by a containment layer,
// with the stack captured at recovery.
type RecoveredError struct {
	// Val is the recovered panic value.
	Val any
	// Stack is the goroutine stack at the recover site.
	Stack string
}

// Error implements error.
func (e *RecoveredError) Error() string { return fmt.Sprintf("panic: %v", e.Val) }

// Unwrap makes errors.Is(err, ErrPanic) true.
func (e *RecoveredError) Unwrap() error { return ErrPanic }

// AsError converts a recover() value into an error wrapping ErrPanic,
// capturing the stack. Call it only from a deferred recover handler.
func AsError(r any) error {
	if err, ok := r.(*RecoveredError); ok {
		return err
	}
	return &RecoveredError{Val: r, Stack: string(debug.Stack())}
}

// Rule arms injection points: Point names one point or "*" for all.
type Rule struct {
	// Point is the injection point name, or "*" to match every point
	// without a more specific rule.
	Point string
	// Kind is the effect to fire.
	Kind Kind
	// P is the per-hit fire probability in (0, 1].
	P float64
	// Latency is the added delay for KindLatency rules.
	Latency time.Duration
	// MaxFires caps how many times this rule fires (0 = unlimited).
	MaxFires int64
}

// String renders the rule in the ParseRules config syntax.
func (r Rule) String() string {
	s := fmt.Sprintf("%s:%s:%g", r.Point, r.Kind, r.P)
	if r.Kind == KindLatency {
		s += ":" + r.Latency.String()
	}
	return s
}

// Schedule is one armed chaos configuration: a seed plus the rules.
type Schedule struct {
	Seed  int64
	Rules []Rule
}

// armedRule is a rule bound to one point, with its decision state.
type armedRule struct {
	rule  Rule
	seed  uint64        // schedule seed mixed with the point name
	n     atomic.Uint64 // per-point armed-hit counter
	fires atomic.Int64
}

// Point is one named injection site. Declare points at package init with
// NewPoint and call Inject in the seam the point guards.
type Point struct {
	name  string
	doc   string
	hits  atomic.Int64
	fires atomic.Int64
	rule  atomic.Pointer[armedRule]
}

// Name returns the point's name.
func (p *Point) Name() string { return p.name }

var (
	regMu     sync.Mutex
	points    = map[string]*Point{}
	installed *Schedule // nil when no schedule is armed

	// onFire is the optional process-global fire observer (the flight
	// recorder). Atomic so the armed fire path reads it without a lock;
	// the disarmed path never reaches it.
	onFire atomic.Pointer[func(point string, kind Kind)]
)

// SetOnFire installs fn to observe every fault fire (nil uninstalls).
// The hook runs on the injection path of an *armed* point only — a
// disarmed Inject stays a single atomic load — so fn must be fast and
// must not itself call Inject.
func SetOnFire(fn func(point string, kind Kind)) {
	if fn == nil {
		onFire.Store(nil)
		return
	}
	onFire.Store(&fn)
}

// NewPoint declares (or returns the already-declared) named injection
// point. If a schedule is already installed, the new point is armed
// against it immediately.
func NewPoint(name, doc string) *Point {
	regMu.Lock()
	defer regMu.Unlock()
	if p, ok := points[name]; ok {
		return p
	}
	p := &Point{name: name, doc: doc}
	points[name] = p
	if installed != nil {
		armLocked(p, *installed)
	}
	return p
}

// Inject consults the point's armed rule. With no schedule installed it
// returns nil after a single atomic load. Armed, it counts the hit and —
// when the seeded decision fires — returns an injected error, panics with
// a *PanicValue, or sleeps, per the rule's kind.
func (p *Point) Inject() error {
	r := p.rule.Load()
	if r == nil {
		return nil
	}
	p.hits.Add(1)
	n := r.n.Add(1) - 1
	if !fire(r.seed, n, r.rule.P) {
		return nil
	}
	if r.rule.MaxFires > 0 && r.fires.Add(1) > r.rule.MaxFires {
		return nil
	}
	p.fires.Add(1)
	if fn := onFire.Load(); fn != nil {
		(*fn)(p.name, r.rule.Kind)
	}
	switch r.rule.Kind {
	case KindPanic:
		panic(&PanicValue{Point: p.name})
	case KindLatency:
		time.Sleep(r.rule.Latency)
		return nil
	default:
		return &Error{Point: p.name}
	}
}

// fire is the deterministic per-hit decision: splitmix64 over the
// point-mixed seed and the hit index, mapped to [0, 1) against p.
func fire(seed, n uint64, p float64) bool {
	if p >= 1 {
		return true
	}
	h := stats.Mix64(seed + (n+1)*0x9e3779b97f4a7c15)
	return float64(h>>11)/(1<<53) < p
}

// mixSeed folds the point name into the schedule seed so distinct points
// make independent decisions.
func mixSeed(seed int64, name string) uint64 {
	h := uint64(seed) ^ 0xcbf29ce484222325
	for _, c := range []byte(name) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h
}

// armLocked binds the schedule's best-matching rule (exact name beats the
// "*" wildcard) to the point, resetting its counters.
func armLocked(p *Point, s Schedule) {
	var match *Rule
	for i := range s.Rules {
		r := &s.Rules[i]
		if r.Point == p.name {
			match = r
			break
		}
		if r.Point == "*" && match == nil {
			match = r
		}
	}
	p.hits.Store(0)
	p.fires.Store(0)
	if match == nil {
		p.rule.Store(nil)
		return
	}
	p.rule.Store(&armedRule{rule: *match, seed: mixSeed(s.Seed, p.name)})
}

// Install arms the schedule process-wide, resetting every point's hit and
// fire counters so a replay starts from a clean decision stream.
func Install(s Schedule) {
	regMu.Lock()
	defer regMu.Unlock()
	cp := s
	cp.Rules = append([]Rule(nil), s.Rules...)
	installed = &cp
	for _, p := range points {
		armLocked(p, cp)
	}
}

// Uninstall disarms every point. Hit and fire counts are kept for
// inspection until the next Install.
func Uninstall() {
	regMu.Lock()
	defer regMu.Unlock()
	installed = nil
	for _, p := range points {
		p.rule.Store(nil)
	}
}

// Active reports whether a schedule is installed.
func Active() bool {
	regMu.Lock()
	defer regMu.Unlock()
	return installed != nil
}

// PointStatus is one point's runtime state for listings (aqpsh \faults,
// GET /faults).
type PointStatus struct {
	Name  string `json:"name"`
	Doc   string `json:"doc,omitempty"`
	Hits  int64  `json:"hits"`
	Fires int64  `json:"fires"`
	// Rule is the armed rule in config syntax, "" when disarmed.
	Rule string `json:"rule,omitempty"`
}

// Status lists every declared injection point with its hit/fire counts
// and armed rule, sorted by name.
func Status() []PointStatus {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]PointStatus, 0, len(points))
	for _, p := range points {
		st := PointStatus{Name: p.name, Doc: p.doc,
			Hits: p.hits.Load(), Fires: p.fires.Load()}
		if r := p.rule.Load(); r != nil {
			st.Rule = r.rule.String()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ParseRules parses the -chaos-config syntax: comma-separated rules of
// the form point:kind:probability[:latency], where point may be "*".
//
//	core.exact:panic:0.1,exec.morsel:latency:0.5:5ms,*:error:0.01
func ParseRules(config string) ([]Rule, error) {
	var out []Rule
	for _, spec := range strings.Split(config, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		parts := strings.Split(spec, ":")
		if len(parts) < 3 {
			return nil, fmt.Errorf("fault: bad rule %q: want point:kind:probability[:latency]", spec)
		}
		kind, err := ParseKind(parts[1])
		if err != nil {
			return nil, err
		}
		p, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || p <= 0 || p > 1 {
			return nil, fmt.Errorf("fault: bad probability %q in rule %q (want (0,1])", parts[2], spec)
		}
		r := Rule{Point: parts[0], Kind: kind, P: p}
		if kind == KindLatency {
			if len(parts) < 4 {
				return nil, fmt.Errorf("fault: latency rule %q needs a duration (point:latency:p:10ms)", spec)
			}
			d, err := time.ParseDuration(parts[3])
			if err != nil {
				return nil, fmt.Errorf("fault: bad latency in rule %q: %v", spec, err)
			}
			r.Latency = d
		} else if len(parts) > 3 {
			return nil, fmt.Errorf("fault: trailing fields in rule %q", spec)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, errors.New("fault: empty chaos config")
	}
	return out, nil
}
