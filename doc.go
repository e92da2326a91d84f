// Package ocas is a Go reproduction of "Automatic Synthesis of Out-of-Core
// Algorithms" (Klonatos, Nötzli, Spielmann, Koch, Kuncak; SIGMOD 2013).
//
// The implementation lives under internal/, the command-line entry points
// under cmd/ and runnable examples under examples/. ARCHITECTURE.md covers
// the design: the layering, the path from a request to a plan and on to an
// execution report, the charge model and the determinism contract. README.md
// covers usage: the CLIs, the ocasd HTTP API, every flag, and how the test
// suites and the benchmark are run.
package ocas
