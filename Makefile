.PHONY: all build test experiments-golden loc lint lint-json lint-sarif faults recover chaos serve aux joins bench perf perf-one perf-pairs profile examples doc clean

all: build

build:
	dune build @all

test:
	dune runtest

# Rewrite every golden page test/experiments/<id>.txt from `bench/main.exe
# <id>`; `dune runtest` (test_paper_claims.ml) compares each experiment's
# rendered page with its file byte for byte. A new experiment needs an
# empty test/experiments/<id>.txt first.
experiments-golden:
	dune build bench/main.exe
	for f in test/experiments/*.txt; do \
	  ./_build/default/bench/main.exe $$(basename $$f .txt) > $$f || exit 1; \
	done

# Line delta of the working tree against BASE, per area (files staged
# or committed since BASE; *.md counts as docs wherever it lives):
#   make loc BASE=HEAD~1
loc:
	@git diff --numstat $(BASE) | awk '$$1 != "-" { \
	  a = "other"; \
	  if ($$3 ~ /^lib\//) a = "lib"; \
	  if ($$3 ~ /^test\//) a = "test"; \
	  if ($$3 ~ /^(bench|bin)\//) a = "bench+bin"; \
	  if ($$3 ~ /\.md$$/) a = "docs"; \
	  add[a] += $$1; del[a] += $$2 } \
	  END { n = split("lib test bench+bin docs other", o, " "); \
	    for (i = 1; i <= n; i++) \
	      printf "%-10s +%-6d -%-6d net %+d\n", o[i], add[o[i]], del[o[i]], \
	        add[o[i]] - del[o[i]] }'

# Repository-invariant static analysis (rules L1-L4 and L7-L9, see DESIGN.md §11
# and §16). Fails on any error-severity finding not covered by an
# audited `(* lint: allow <rule> <reason> *)` pragma.
lint:
	dune exec bin/repro_lint.exe -- lib bin bench test

# Same pass, machine-readable report for CI artifacts.
lint-json:
	dune exec bin/repro_lint.exe -- --json lib bin bench test > LINT.json

# SARIF 2.1.0 interchange document (code-scanning upload format).
lint-sarif:
	dune exec bin/repro_lint.exe -- --sarif LINT.sarif lib bin bench test

# Seeded fault-schedule property suite only (transport + fault injection).
faults:
	dune exec test/test_main.exe -- test faults

# Warehouse crash-recovery suite only (WAL + checkpoint + restart), with
# the crash grid at every 0.1 time unit (about 6,500 crashed runs; `dune
# runtest` steps it every 2 units).
recover:
	CRASH_GRID=1 dune exec test/test_main.exe -- test recovery

# Composed chaos suite at full scale: 50 randomized Fault.chaos
# schedules per algorithm (heavy link faults, overlapping source
# crashes, a warehouse outage) with query deadlines and circuit
# breakers armed; checks progress, deterministic replay, consistency
# floors and post-heal convergence. `dune runtest` runs the same suite
# at 6 seeds.
chaos:
	CHAOS_SEEDS=50 dune exec test/test_main.exe -- test chaos

# Read-path serving suite at full scale: 25 seeded read storms per
# algorithm (flash-crowd bursts, admission control, staleness SLOs,
# session guarantees, degraded serving under an open breaker). `dune
# runtest` runs the same suite at 5 seeds.
serve:
	SERVE_SEEDS=25 dune exec test/test_main.exe -- test serving

# Self-maintenance differential suite at full depth: 100 seeds per
# algorithm (sweep, sweep-batched, nested-sweep, strobe) proving the
# auxiliary-projection path (DESIGN.md §14) produces bit-identical
# views, replays and verdicts versus --aux off, plus the random
# join-spec answerability property. `dune runtest` runs the same
# suite at 5 seeds.
aux:
	AUX_SEEDS=100 dune exec test/test_main.exe -- test aux

# Join suite at full depth: the probe leg (Base_table.extend) against
# the nested-loop reference (test/nested_loop.ml) on edge cases and 100
# randomized frontiers; Algebra's join, merge_overlap, eval and
# compensate against the same reference on 2,000 random chains each;
# then 100 seeded plain, crash and outage storms per algorithm (sweep,
# sweep-batched, nested-sweep, strobe), each draining at its
# consistency floor. `dune runtest` runs the same suite at 5 seeds (100
# chains each).
joins:
	JOIN_SEEDS=100 dune exec test/test_main.exe -- test join-strategies

# Regenerate every table and figure of the paper, the P1 preset-counter
# page and the micro-benchmarks (see EXPERIMENTS.md).
bench:
	dune exec bench/main.exe

# Wall-clock benchmark (bench/perf/README.md): the command
# BENCHMARK.json declares, i.e. every workload, five timed repeats each.
perf:
	dune exec --root . bench/perf/perf.exe --

# One workload for 20 s, ending in one JSON result line:
#   make perf-one W=batched-backlog [SEED=42]
W ?= batched-backlog
SEED ?= 42
perf-one:
	dune exec --root . bench/perf/perf.exe -- --workload $(W) --seed $(SEED) --seconds 20 --trace 0

# Paired comparison of a base revision against the working tree
# (scripts/perf-pairs.sh): N alternating pairs of perf-one's command,
# then each side's median and quartiles, the pairs the change won, and
# the change/base median of every BENCHMARK.json end-to-end metric,
# flagged REGRESSED past its bound:
#   make perf-pairs W=nested-crash-reads BASE=HEAD~1 [N=10] [SEED=42]
BASE ?= HEAD
N ?= 10
perf-pairs:
	sh scripts/perf-pairs.sh $(W) $(BASE) $(N) $(SEED)

# Where one workload's CPU time goes, by call stack
# (bench/profile/profile.ml): five full-size runs under a 1 ms SIGPROF
# sampler, then the top TOP frames by self and inclusive samples and
# the callers of each frame named in FRAMES. Advisory; not a test:
#   make profile W=nested-crash-reads [TOP=15] [FRAMES="Bag.total Delta.sum"]
TOP ?= 15
FRAMES ?=
profile:
	dune exec bench/profile/profile.exe -- $(W) $(TOP) $(FRAMES)

# Every example program, in order; stops at the first one that fails.
examples:
	for e in quickstart figure5_walkthrough retail_warehouse \
	         concurrent_anomaly algorithm_comparison star_schema; do \
	  echo "== $$e =="; dune exec examples/$$e.exe || exit 1; echo; done

clean:
	dune clean
