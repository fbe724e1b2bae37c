// Module fm is a full reproduction of "High Performance Messaging on
// Workstations: Illinois Fast Messages (FM) for Myrinet" (Pakin, Lauria,
// Chien; SC 1995) as a Go library: the FM 1.0 messaging layer, the
// simulated 1995 hardware substrate it runs on (SPARCstation hosts, SBus,
// LANai network coprocessor, Myrinet wormhole fabric), the Myrinet API
// comparison baseline, and a benchmark harness that regenerates every
// quantitative figure and table in the paper's evaluation.
//
// Beyond the paper, the fabric layer generalizes to arbitrary switch
// graphs (myrinet.Topology) with canned crossbar, line, and 2-level
// Clos constructors, the harness compares them under all-to-all and
// bisection traffic at 64+ nodes, and an MPI-style layer (internal/mpi:
// tagged matching, communicators, nonblocking operations, collectives)
// runs on top of FM to measure the classic cost of layering.
//
// Start with README.md for orientation: the package map, the experiment
// index, and how to run the examples; DESIGN.md walks the architecture
// and EXPERIMENTS.md catalogs the fmbench experiments. cmd/fmbench
// regenerates the figures and tables; the benchmarks in bench_test.go
// measure the simulator's own hot paths.
package fm
