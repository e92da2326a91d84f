// Package plan is the shared plan contract of the synthesis service: the
// request that names a synthesis problem, the content-addressed fingerprint
// that keys it, and the canonical JSON encoding of the synthesized plan that
// both cmd/ocas -json and the ocasd service emit. Because both binaries
// build their output through this package, a plan served from the daemon is
// byte-identical to the plan the CLI prints for the same request.
package plan

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"

	"ocas/internal/core"
	"ocas/internal/memory"
	"ocas/internal/ocal"
	"ocas/internal/rules"
)

// Input places one input relation of a request.
type Input struct {
	// Node is the hierarchy node holding the relation.
	Node string `json:"node"`
	// Rows is the relation's cardinality in tuples.
	Rows int64 `json:"rows"`
	// Arity is the number of int attributes per tuple: 1 (a plain list) or
	// 2 (a binary relation, the default).
	Arity int `json:"arity,omitempty"`
}

// Request names one synthesis problem. The zero values of the knob fields
// mean "use the default" (see Normalize). A request carries no worker
// count: the pipeline is deterministic for any, and runs on GOMAXPROCS.
type Request struct {
	// Description documents the request (corpus files, dashboards); it is
	// ignored by synthesis and excluded from the fingerprint.
	Description string `json:"description,omitempty"`
	// Program is the naive OCAL specification source.
	Program string `json:"program"`
	// Hier selects a built-in hierarchy (hdd-ram, hdd-ram-cache, two-hdd,
	// hdd-flash); Hierarchy, when set, is an inline JSON node tree and wins.
	Hier      string          `json:"hier,omitempty"`
	RAM       int64           `json:"ram,omitempty"` // built-in hierarchies' RAM size in bytes
	Hierarchy json.RawMessage `json:"hierarchy,omitempty"`

	Inputs       map[string]Input `json:"inputs"`
	Output       string           `json:"output,omitempty"`       // "" = consumed by CPU
	Intermediate string           `json:"intermediate,omitempty"` // scratch device
	// Commutative declares the inputs reorderable; nil means true.
	Commutative *bool `json:"commutative,omitempty"`

	// Strategy (exhaustive | beam) and Beam (a width in [1, MaxBeam]) are
	// validated and hashed into the fingerprint, but the search ignores
	// them: there is one search, the exhaustive one. They are accepted for
	// wire compatibility with clients that still post the retired beam;
	// once none do, a request carrying them becomes an unknown-field error.
	Strategy string `json:"strategy,omitempty"`
	Beam     int    `json:"beam,omitempty"`
	Depth    int    `json:"depth,omitempty"` // max derivation length
	Space    int    `json:"space,omitempty"` // max search space size
}

// Limits the service enforces on user-supplied knobs; a CLI run is local and
// unbounded, but a shared daemon must not let one request monopolize it.
const (
	MaxDepth = 16
	MaxSpace = 200_000
	MaxBeam  = 4096
)

// Defaults mirrors cmd/ocas's flag defaults.
const (
	DefaultHier  = "hdd-ram"
	DefaultRAM   = 32 * int64(memory.MiB)
	DefaultDepth = 6
	DefaultSpace = 4000
	// defaultBeam is what a beam request without a width normalizes to.
	defaultBeam = 64
)

// Normalize fills in the defaulted fields in place, so that two requests
// spelling the defaults differently (absent vs. explicit) fingerprint
// identically.
func (r *Request) Normalize() {
	if len(r.Hierarchy) == 0 && r.Hier == "" {
		r.Hier = DefaultHier
	}
	if len(r.Hierarchy) > 0 {
		r.Hier, r.RAM = "", 0
	} else if r.RAM == 0 {
		r.RAM = DefaultRAM
	}
	if r.Strategy == "" {
		r.Strategy = "exhaustive"
	}
	if r.Strategy != "beam" {
		r.Beam = 0
	} else if r.Beam == 0 {
		r.Beam = defaultBeam
	}
	if r.Depth == 0 {
		r.Depth = DefaultDepth
	}
	if r.Space == 0 {
		r.Space = DefaultSpace
	}
	if r.Commutative == nil {
		t := true
		r.Commutative = &t
	}
	for name, in := range r.Inputs {
		if in.Arity == 0 {
			in.Arity = 2
			r.Inputs[name] = in
		}
	}
}

// Compiled is a validated request: the parsed program, the hierarchy, the
// synthesizer configuration and the task, plus the request fingerprint.
type Compiled struct {
	Req         Request
	Prog        ocal.Expr
	H           *memory.Hierarchy
	Synth       *core.Synthesizer
	Task        core.Task
	Fingerprint string
	// TemplateFingerprint keys the request's plan template: the same hash
	// with input cardinalities and hierarchy constants left out, so every
	// request of the same shape shares one template (see template.go).
	TemplateFingerprint string

	// hierJSON is the canonical JSON of H as compiled: the plan fingerprint,
	// the template's shape and its hierarchy guard all read this one rendering.
	hierJSON string
}

// Compile normalizes and validates a request, returning everything needed
// to run it. Validation rejects unparsable programs, malformed hierarchies,
// inputs placed on unknown nodes, free variables without a placement, and
// out-of-range knobs.
func Compile(req Request) (*Compiled, error) {
	req.Normalize()
	prog, err := ocal.ParseFile(req.Program)
	if err != nil {
		return nil, fmt.Errorf("program: %w", err)
	}
	h, err := buildHierarchy(req)
	if err != nil {
		return nil, err
	}
	if len(req.Inputs) == 0 {
		return nil, fmt.Errorf("request has no inputs")
	}
	if req.Depth < 0 || req.Depth > MaxDepth {
		return nil, fmt.Errorf("depth %d out of range [1,%d]", req.Depth, MaxDepth)
	}
	if req.Space < 0 || req.Space > MaxSpace {
		return nil, fmt.Errorf("space %d out of range [1,%d]", req.Space, MaxSpace)
	}
	switch req.Strategy {
	case "exhaustive":
	case "beam":
		if req.Beam < 1 || req.Beam > MaxBeam {
			return nil, fmt.Errorf("beam width %d out of range [1,%d]", req.Beam, MaxBeam)
		}
	default:
		return nil, fmt.Errorf("unknown strategy %q (want exhaustive or beam)", req.Strategy)
	}

	spec := core.Spec{Name: "request", Prog: prog, Commutative: *req.Commutative}
	task := core.Task{
		InputLoc:     map[string]string{},
		InputRows:    map[string]int64{},
		Output:       req.Output,
		Intermediate: req.Intermediate,
	}
	for _, name := range sortedInputNames(req.Inputs) {
		in := req.Inputs[name]
		if h.Node(in.Node) == nil {
			return nil, fmt.Errorf("input %s: unknown hierarchy node %q", name, in.Node)
		}
		if in.Rows <= 0 {
			return nil, fmt.Errorf("input %s: rows must be positive, got %d", name, in.Rows)
		}
		typ := ocal.TList(ocal.TTuple(ocal.TInt, ocal.TInt))
		switch in.Arity {
		case 1:
			typ = ocal.TList(ocal.TInt)
		case 2:
		default:
			return nil, fmt.Errorf("input %s: arity must be 1 or 2, got %d", name, in.Arity)
		}
		spec.Inputs = append(spec.Inputs, core.InputSpec{Name: name, Type: typ, Arity: in.Arity})
		task.InputLoc[name] = in.Node
		task.InputRows[name] = in.Rows
	}
	if req.Output != "" && h.Node(req.Output) == nil {
		return nil, fmt.Errorf("unknown output node %q", req.Output)
	}
	if req.Intermediate != "" && h.Node(req.Intermediate) == nil {
		return nil, fmt.Errorf("unknown intermediate node %q", req.Intermediate)
	}
	for _, v := range slices.Sorted(maps.Keys(ocal.FreeVars(prog))) {
		if _, ok := req.Inputs[v]; !ok {
			return nil, fmt.Errorf("program references %q, which has no input placement", v)
		}
	}
	task.Spec = spec

	// One Keyer per request, so the search counters it collects describe
	// this request's synthesis and die with the Compiled.
	synth := &core.Synthesizer{H: h, MaxDepth: req.Depth, MaxSpace: req.Space, Keys: rules.NewKeyer()}
	hj, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("hierarchy fingerprint: %w", err)
	}
	alpha := rules.AlphaKey(prog)
	return &Compiled{Req: req, Prog: prog, H: h, Synth: synth, Task: task,
		Fingerprint: fingerprint(req, alpha, hj), TemplateFingerprint: templateFingerprint(req, alpha, h),
		hierJSON: string(hj)}, nil
}

// builtinHier is the one list of named hierarchies; cmd/ocas resolves its
// -hier flag through BuiltinHierarchy so CLI and service cannot drift.
var builtinHier = map[string]func(ram int64) *memory.Hierarchy{
	"hdd-ram":       memory.HDDRAM,
	"hdd-ram-cache": memory.HDDRAMCache,
	"two-hdd":       memory.TwoHDD,
	"hdd-flash":     memory.HDDFlash,
}

// BuiltinHierarchy resolves a built-in hierarchy name; ok is false for
// unknown names (callers typically fall back to reading a JSON file).
func BuiltinHierarchy(name string, ram int64) (h *memory.Hierarchy, ok bool) {
	mk, ok := builtinHier[name]
	if !ok {
		return nil, false
	}
	return mk(ram), true
}

func buildHierarchy(req Request) (*memory.Hierarchy, error) {
	if len(req.Hierarchy) > 0 {
		h, err := memory.FromJSON(req.Hierarchy)
		if err != nil {
			return nil, fmt.Errorf("hierarchy: %w", err)
		}
		return h, nil
	}
	if req.RAM <= 0 {
		return nil, fmt.Errorf("ram must be positive, got %d", req.RAM)
	}
	h, ok := BuiltinHierarchy(req.Hier, req.RAM)
	if !ok {
		return nil, fmt.Errorf("unknown built-in hierarchy %q", req.Hier)
	}
	return h, nil
}

// fingerprint derives the content address of a request: a SHA-256 over the
// alpha-normalized program (alpha, its printing), the canonical hierarchy
// JSON (hj), the placement and the search knobs. Whitespace, comments, binder
// names and worker counts never change the fingerprint; anything that can
// change the winning plan does. The version line moves with what a plan
// prints for a request, so a plan persisted under an older encoding is never
// served.
func fingerprint(req Request, alpha string, hj []byte) string {
	var b strings.Builder
	b.WriteString("ocas-plan-v2\n")
	fmt.Fprintf(&b, "prog %s\n", alpha)
	fmt.Fprintf(&b, "hier %s\n", hj)
	for _, name := range sortedInputNames(req.Inputs) {
		in := req.Inputs[name]
		fmt.Fprintf(&b, "in %s=%s:%d:%d\n", name, in.Node, in.Rows, in.Arity)
	}
	fmt.Fprintf(&b, "out %s\nintermediate %s\ncommutative %v\n",
		req.Output, req.Intermediate, *req.Commutative)
	fmt.Fprintf(&b, "strategy %s:%d\ndepth %d\nspace %d\n",
		req.Strategy, req.Beam, req.Depth, req.Space)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func sortedInputNames(in map[string]Input) []string {
	names := make([]string, 0, len(in))
	for n := range in {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Plan is the canonical, deterministic encoding of one synthesis result:
// the algorithm and its parameters, with what the cost report prints
// (derivation, estimates, cost formula, search statistics), minus anything
// run-dependent (wall-clock time). Two runs of the same request — CLI or
// service, one worker or many — produce the same Plan bytes. Renderings of a
// plan, such as codegen.Render's C, are derived from it and not part of it.
type Plan struct {
	Fingerprint string `json:"fingerprint"`
	// Spec is the parsed naive specification, printed canonically.
	Spec        string  `json:"spec"`
	SpecSeconds float64 `json:"specSeconds"`
	// Program is the synthesized algorithm.
	Program    string           `json:"program"`
	Derivation []string         `json:"derivation"`
	Params     map[string]int64 `json:"params"`
	Seconds    float64          `json:"seconds"`
	Speedup    float64          `json:"speedup"`
	// CostFormula is the symbolic cost of the winning program.
	CostFormula string `json:"costFormula"`
	SearchSpace int    `json:"searchSpace"`
	SearchDepth int    `json:"searchDepth"`
	Truncated   bool   `json:"truncated,omitempty"`
}

// build converts a synthesis result into the canonical plan.
func (c *Compiled) build(res *core.Synthesis) *Plan {
	p := &Plan{
		Fingerprint: c.Fingerprint,
		Spec:        ocal.String(c.Prog),
		SpecSeconds: res.SpecSeconds,
		Program:     ocal.String(res.Best.Expr),
		Derivation:  append([]string{}, res.Best.Steps...),
		Params:      res.Best.Params,
		Seconds:     res.Best.Seconds,
		Speedup:     res.SpecSeconds / res.Best.Seconds,
		CostFormula: res.Best.Cost.Seconds.String(),
		SearchSpace: res.Stats.SpaceSize,
		SearchDepth: res.Stats.MaxDepth,
		Truncated:   res.Stats.Truncated,
	}
	if p.Params == nil {
		p.Params = map[string]int64{}
	}
	return p
}

// Run is RunCapture without the template.
func (c *Compiled) Run(ctx context.Context) (*Plan, error) {
	p, _, err := c.RunCapture(ctx)
	return p, err
}

// finishPlan builds the canonical plan and rejects degenerate results: the
// screening pass encodes "could not be costed" as ±Inf/NaN; a plan carrying
// such an estimate is degenerate, and non-finite floats do not survive JSON
// encoding (Encode relies on every Plan being encodable).
func (c *Compiled) finishPlan(res *core.Synthesis) (*Plan, error) {
	p := c.build(res)
	for _, f := range []float64{p.SpecSeconds, p.Seconds, p.Speedup} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("plan has a non-finite cost estimate (spec %v, best %v)",
				p.SpecSeconds, p.Seconds)
		}
	}
	return p, nil
}

// Encode renders the canonical plan bytes: indented JSON with a trailing
// newline. Go's encoding/json sorts map keys, so the encoding is a pure
// function of the plan.
func Encode(p *Plan) []byte {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		// A Plan holds only strings, numbers and bools; Marshal cannot fail.
		panic(err)
	}
	return append(b, '\n')
}

// Decode parses plan bytes produced by Encode.
func Decode(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	return &p, nil
}
