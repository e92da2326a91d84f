package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ocas/internal/ocal"
	"ocas/internal/plan"
)

// loadCorpus returns the examples/*/request.json smoke corpus.
func loadCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "request.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 6 {
		t.Fatalf("expected at least 6 corpus requests under examples/, found %d", len(dirs))
	}
	corpus := map[string][]byte{}
	for _, p := range dirs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		corpus[filepath.Base(filepath.Dir(p))] = data
	}
	return corpus
}

// TestExamplesCorpus drives every example scenario through the service and
// asserts the acceptance contract: the response is the plan, a second POST
// is a cache hit, and the served bytes are byte-identical to what
// cmd/ocas -json prints for the same request (both go through
// plan.Compile, a Compiled's search and plan.Encode; this pins that they
// stay shared).
func TestExamplesCorpus(t *testing.T) {
	corpus := loadCorpus(t)
	_, ts := newTestServer(t, Config{MaxInflight: 4})

	for name, body := range corpus {
		t.Run(name, func(t *testing.T) {
			resp, served := post(t, ts, string(body))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, served)
			}
			if got := resp.Header.Get("X-Ocas-Cache"); got != "miss" {
				t.Fatalf("first POST: X-Ocas-Cache = %q, want miss", got)
			}

			// Second call: cache hit, same bytes.
			resp, again := post(t, ts, string(body))
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Ocas-Cache") != "hit" {
				t.Fatalf("second POST: status %d, cache %q", resp.StatusCode, resp.Header.Get("X-Ocas-Cache"))
			}
			if !bytes.Equal(served, again) {
				t.Fatal("cache hit served different bytes")
			}

			// The CLI path: cmd/ocas -json decodes its flags into a
			// plan.Request, compiles it, searches and prints plan.Encode of
			// the plan. Running the same request through that pipeline must
			// yield the exact bytes the service served.
			if cli := isolatedPlan(t, body); !bytes.Equal(served, cli) {
				t.Fatalf("service bytes differ from cmd/ocas -json bytes:\n--- service ---\n%s\n--- cli ---\n%s", served, cli)
			}

			// Every corpus plan must be a genuine synthesis win.
			decoded, err := plan.Decode(served)
			if err != nil {
				t.Fatal(err)
			}
			if len(decoded.Derivation) == 0 || decoded.Speedup <= 1 {
				t.Fatalf("corpus plan %s is trivial: derivation %v, speedup %v",
					name, decoded.Derivation, decoded.Speedup)
			}
		})
	}
}

// TestCorpusFilesConsistent pins query.ocal and request.json to the same
// program: the request embeds the query file's text, so the CLI invocation
// `ocas -prog query.ocal -json` and the service request cannot drift apart.
func TestCorpusFilesConsistent(t *testing.T) {
	corpus := loadCorpus(t)
	for name, body := range corpus {
		var req plan.Request
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		qf := filepath.Join("..", "..", "examples", name, "query.ocal")
		src, err := os.ReadFile(qf)
		if err != nil {
			t.Fatalf("%s: corpus request without query.ocal: %v", name, err)
		}
		if strings.TrimSpace(string(src)) != strings.TrimSpace(req.Program) {
			t.Errorf("%s: query.ocal and request.json programs differ", name)
		}
		a, err := ocal.ParseFile(string(src))
		if err != nil {
			t.Fatalf("%s: query.ocal does not parse: %v", name, err)
		}
		b, err := ocal.ParseFile(req.Program)
		if err != nil {
			t.Fatalf("%s: request program does not parse: %v", name, err)
		}
		if ocal.String(a) != ocal.String(b) {
			t.Errorf("%s: query.ocal and request.json parse to different programs", name)
		}
	}
}
