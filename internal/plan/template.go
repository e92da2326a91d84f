// Plan templates: the synthesize-once/re-tune-many split of the cache.
//
// A Template is what one full synthesis leaves behind for every future
// request of the same *shape*: the explored search space with its symbolic
// cost formulas (input cardinalities are free variables there). The search
// enumerates every reachable program and its rules never read cardinalities,
// so the space is valid at any sizes. The template fingerprint hashes the alpha-normalized
// program, the hierarchy shape (node names, kinds and topology — sizes and
// edge costs excluded), the placement (input→node, arities — rows excluded)
// and the search knobs; requests differing only in cardinalities or device
// constants share one template.
//
// A template lives and dies with its process: it has no serial form, and a
// restarted daemon's first request of a shape searches once and captures it
// again. Reading a serialized space back and rebuilding its cost formulas
// costs what the search costs (68–103% of it, measured), at start-up, for
// every template whether or not its shape is asked for again.
//
// Instantiate binds a request's concrete sizes and re-runs only the
// cardinality-dependent phases (heuristic screening + parameter
// optimization) over the captured space, yielding a plan byte-identical to
// a cold full search. Two guards reject a template with ErrTemplateStale,
// sending the request down the full-search path instead:
//
//   - hierarchy constants: the cost formulas bake in device sizes and
//     transfer costs, so a template only serves requests whose full
//     hierarchy matches the capturing one (same shape, different constants
//     re-synthesizes and replaces the template);
//   - spec text: rewrites name fresh binders deterministically from the
//     request's own source, so a template only replays for the identical
//     concrete program text (alpha-equivalent spellings share the template
//     key but not the plan bytes).
package plan

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"ocas/internal/core"
	"ocas/internal/memory"
	"ocas/internal/ocal"
)

// ErrTemplateStale reports that a template cannot serve this request: a
// full search could produce a different plan. Callers fall back to full
// synthesis (and typically replace the template with the fresh capture).
var ErrTemplateStale = errors.New("plan: template is stale for this request")

// Template is a reusable synthesis for one request shape.
type Template struct {
	// Fingerprint is the template fingerprint (Compiled.TemplateFingerprint).
	Fingerprint string
	// SpecText is the canonical printing of the captured specification;
	// instantiation requires the requesting program to print identically so
	// that replayed plan bytes (binder names included) match a cold run.
	SpecText string
	// HierSig is the canonical hierarchy JSON of the capturing request,
	// constants included.
	HierSig string

	replay *core.Replay
}

// RunCapture synthesizes the compiled request under ctx and returns its plan
// together with the run's template. The template is nil (with a valid plan)
// when the space is larger than core.CaptureLimit.
func (c *Compiled) RunCapture(ctx context.Context) (*Plan, *Template, error) {
	res, replay, err := c.Synth.SynthesizeCapture(ctx, c.Task)
	if err != nil {
		return nil, nil, err
	}
	p, err := c.finishPlan(res)
	if err != nil {
		return nil, nil, err
	}
	if replay == nil {
		return p, nil, nil
	}
	t := &Template{
		Fingerprint: c.TemplateFingerprint,
		SpecText:    ocal.String(c.Prog),
		HierSig:     c.hierJSON,
		replay:      replay,
	}
	return p, t, nil
}

// Instantiate binds the request's cardinalities into the template and
// re-optimizes, producing the plan a cold full search would produce — byte
// for byte. ErrTemplateStale means the guards could not prove that, and the
// caller must synthesize from scratch. Safe for concurrent use.
func (c *Compiled) Instantiate(ctx context.Context, t *Template) (*Plan, error) {
	if t.Fingerprint != c.TemplateFingerprint || c.hierJSON != t.HierSig ||
		ocal.String(c.Prog) != t.SpecText {
		return nil, ErrTemplateStale
	}
	res, err := t.replay.Instantiate(ctx, c.Synth, c.Task)
	if err != nil {
		return nil, err
	}
	return c.finishPlan(res)
}

// templateFingerprint is the shape-level content address: the plan
// fingerprint with everything cardinality- and constant-shaped left out.
// Input rows and the hierarchy's sizes/costs are free template slots;
// binder names, whitespace and worker counts never mattered.
func templateFingerprint(req Request, alpha string, hj []byte) (string, error) {
	shape, err := hierShape(hj)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("ocas-template-v1\n")
	fmt.Fprintf(&b, "prog %s\n", alpha)
	fmt.Fprintf(&b, "hier %s\n", shape)
	for _, name := range sortedInputNames(req.Inputs) {
		in := req.Inputs[name]
		fmt.Fprintf(&b, "in %s=%s:%d\n", name, in.Node, in.Arity)
	}
	fmt.Fprintf(&b, "out %s\nintermediate %s\ncommutative %v\n",
		req.Output, req.Intermediate, *req.Commutative)
	fmt.Fprintf(&b, "strategy %s:%d\ndepth %d\nspace %d\n",
		req.Strategy, req.Beam, req.Depth, req.Space)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), nil
}

// shapeNode is the constant-free skeleton of a hierarchy node.
type shapeNode struct {
	Name     string      `json:"name"`
	Kind     memory.Kind `json:"kind"`
	Children []shapeNode `json:"children,omitempty"`
}

// hierShape renders the topology of the hierarchy whose canonical JSON is
// full — names, kinds, parent/child structure — without sizes, page sizes or
// transfer costs.
func hierShape(full []byte) (string, error) {
	var root shapeNode
	if err := json.Unmarshal(full, &root); err != nil {
		return "", fmt.Errorf("template hierarchy shape: %w", err)
	}
	out, err := json.Marshal(root)
	if err != nil {
		return "", fmt.Errorf("template hierarchy shape: %w", err)
	}
	return string(out), nil
}
