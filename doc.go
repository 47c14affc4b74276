// Package rai is a from-scratch Go reproduction of "RAI: A Scalable
// Project Submission System for Parallel Programming Courses" (Dakkak,
// Pearson, Li, Hwu — IPDPS Workshops 2017).
//
// The system of the paper's Figure 1 is implemented in internal
// packages, wired together by internal/sim:
//
//   - internal/core     — the RAI client/worker protocol (the paper's contribution)
//   - internal/broker   — topic/channel pub-sub queue (+ internal/brokerd TCP wire)
//   - internal/objstore — S3-like file server with last-use lifetimes
//   - internal/docstore — MongoDB-like metadata and ranking database
//   - internal/sandbox  — container runtime with the §V limits
//   - internal/shell    — build-command interpreter (cmake/make/nvprof/ece408)
//   - internal/cnn      — the course CNN-inference workload, five kernels
//   - internal/workload — the 176-student behaviour model (Figures 2 and 4)
//
// Executables live under cmd/ (rai, raibroker, raifs, raidb, raiworker,
// raiadmin, raisim, raivet). The reproduction harness is cmd/raisim;
// `raisim figure1` runs one job end to end. Benchmark equivalents of
// every table and figure are in bench_test.go at the repository root.
// See README.md, DESIGN.md, and EXPERIMENTS.md.
package rai
