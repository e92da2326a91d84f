// Plan templates: the synthesize-once/re-tune-many split of the cache.
//
// A Template is what one full synthesis leaves behind for every future
// request of the same *shape*: the explored search space with its compiled
// cost formulas. Input cardinalities and the hierarchy's constants (sizes,
// edge weights, transfer limits) are free variables there, bound at each
// instantiation (cost.HierEnv). The search enumerates every reachable program
// and its rules read neither, so the space is valid at any sizes. The
// template fingerprint hashes the alpha-normalized program, the hierarchy
// shape, the placement (input→node, arities — rows excluded) and the search
// knobs. The hierarchy shape is its topology (node names and kinds) plus
// the outcome of each branch the cost model takes on a constant's value
// (cost.Branches): which edge weights and transfer limits are nonzero.
// Requests that differ only in cardinalities or in the values of nonzero
// constants share one template.
//
// A template lives and dies with its process: it has no serial form, and a
// restarted daemon's first request of a shape searches once and captures it
// again. Reading a serialized space back and rebuilding its cost formulas
// costs what the search costs (68–103% of it, measured), at start-up, for
// every template whether or not its shape is asked for again.
//
// Instantiate binds a request's concrete sizes and re-runs only the
// screening and parameter optimization over the captured space, yielding a
// plan byte-identical to a cold full search. Two guards reject a template
// with ErrTemplateStale; the request is then served by Recapture, and the
// template that returns replaces the refused one:
//
//   - hierarchy constants: a template instantiates only for its capturing
//     request's full hierarchy. Recapture serves another one by the same
//     instantiation under the request's constants; the guard decides only
//     that the answer is labelled a miss;
//   - spec text: rewrites name fresh binders deterministically from the
//     request's own source, so a template only replays for the identical
//     concrete program text (alpha-equivalent spellings share the template
//     key but not the plan bytes); Recapture searches for such a request.
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
	"ocas/internal/cost"
	"ocas/internal/memory"
	"ocas/internal/obs"
	"ocas/internal/ocal"
)

// ErrTemplateStale reports that a template cannot serve this request as a
// template hit. Callers serve the request for itself (Compiled.Recapture)
// and replace the template with the one that returns.
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
// when the space is larger than core.CaptureLimit. It marks the span ctx
// carries with space=searched.
func (c *Compiled) RunCapture(ctx context.Context) (*Plan, *Template, error) {
	obs.SpanFrom(ctx).Attr("space", "searched")
	res, replay, err := c.Synth.SynthesizeCapture(ctx, c.Task)
	if err != nil {
		return nil, nil, err
	}
	p, err := c.finishPlan(res)
	if err != nil || replay == nil {
		return p, nil, err
	}
	t := &Template{
		Fingerprint: c.TemplateFingerprint,
		SpecText:    ocal.String(c.Prog),
		HierSig:     c.hierJSON,
		replay:      replay,
	}
	return p, t, nil
}

// Recapture is RunCapture for a request that t's hierarchy guard refused:
// when the template fingerprint and spec text match, it instantiates t under
// the request's own hierarchy — no search, no costing — and marks the span
// ctx carries with space=reused. The plan is the one RunCapture would
// produce, byte for byte, and the returned template, which shares t's
// compiled formulas, serves the request's hierarchy from then on. A spelling
// the template cannot replay searches, as RunCapture does. Safe for
// concurrent use.
func (c *Compiled) Recapture(ctx context.Context, t *Template) (*Plan, *Template, error) {
	if t.Fingerprint != c.TemplateFingerprint || ocal.String(c.Prog) != t.SpecText {
		return c.RunCapture(ctx)
	}
	obs.SpanFrom(ctx).Attr("space", "reused")
	p, err := c.instantiate(ctx, t)
	if err != nil {
		return nil, nil, err
	}
	next := *t
	next.HierSig = c.hierJSON
	return p, &next, nil
}

// Instantiate binds the request's cardinalities into the template and
// re-optimizes, producing the plan a cold full search would produce — byte
// for byte. ErrTemplateStale means a guard refused the template, and the
// caller serves the request with Recapture. Safe for concurrent use.
func (c *Compiled) Instantiate(ctx context.Context, t *Template) (*Plan, error) {
	if t.Fingerprint != c.TemplateFingerprint || c.hierJSON != t.HierSig ||
		ocal.String(c.Prog) != t.SpecText {
		return nil, ErrTemplateStale
	}
	return c.instantiate(ctx, t)
}

// instantiate binds the request's sizes and constants into t's formulas.
func (c *Compiled) instantiate(ctx context.Context, t *Template) (*Plan, error) {
	res, err := t.replay.Instantiate(ctx, c.Synth, c.Task)
	if err != nil {
		return nil, err
	}
	return c.finishPlan(res)
}

// templateFingerprint is the shape-level content address: the plan
// fingerprint with everything cardinality- and constant-shaped left out.
// Input rows and the hierarchy's constants are free template slots; binder
// names, whitespace and worker counts never mattered.
func templateFingerprint(req Request, alpha string, h *memory.Hierarchy) string {
	var b strings.Builder
	b.WriteString("ocas-template-v2\n")
	fmt.Fprintf(&b, "prog %s\n", alpha)
	fmt.Fprintf(&b, "hier %s\n", hierShape(h))
	for _, name := range sortedInputNames(req.Inputs) {
		in := req.Inputs[name]
		fmt.Fprintf(&b, "in %s=%s:%d\n", name, in.Node, in.Arity)
	}
	fmt.Fprintf(&b, "out %s\nintermediate %s\ncommutative %v\n",
		req.Output, req.Intermediate, *req.Commutative)
	fmt.Fprintf(&b, "strategy %s:%d\ndepth %d\nspace %d\n",
		req.Strategy, req.Beam, req.Depth, req.Space)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// shapeNode is the constant-free skeleton of a hierarchy node, with the
// outcomes of the cost model's branches on its constants.
type shapeNode struct {
	Name     string      `json:"name"`
	Kind     memory.Kind `json:"kind"`
	Branches []string    `json:"branches,omitempty"`
	Children []shapeNode `json:"children,omitempty"`
}

// hierShape renders h's topology — names, kinds, parent/child structure —
// and cost.Branches of every node, without a constant's value.
func hierShape(h *memory.Hierarchy) string {
	var shape func(n *memory.Node) shapeNode
	shape = func(n *memory.Node) shapeNode {
		s := shapeNode{Name: n.Name, Kind: n.Kind, Branches: cost.Branches(h, n.Name)}
		for _, ch := range n.Children {
			s.Children = append(s.Children, shape(ch))
		}
		return s
	}
	out, err := json.Marshal(shape(h.Root))
	if err != nil {
		// A shapeNode holds only strings; Marshal cannot fail.
		panic(err)
	}
	return string(out)
}
