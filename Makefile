# Tier-1 verification for the repo (see ROADMAP.md): check formatting,
# build everything, vet, and run the full test suite under the race
# detector.

GO ?= go
GOFMT ?= gofmt
LFM := .bin/lfm

.PHONY: check fmt build vet test test-race fuzz examples chaos bench profile obs serve scenarios diff lfm

check: fmt build vet test-race

# Formatting gate: fail, listing the files, if gofmt would rewrite any
# tracked Go file.
fmt:
	@out="$$($(GOFMT) -l $$(git ls-files '*.go'))"; \
	if [ -n "$$out" ]; then echo "gofmt -l flags:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

# The one command-line binary every target below runs. Built into .bin/
# (not `go run`) so a target sees the command's own exit status: `go run`
# turns every nonzero status into 1.
lfm:
	$(GO) build -o $(LFM) ./cmd/lfm

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Decoder fuzzing: run each artifact decoder's native fuzz target (run
# archive, scenario trace, obs stream, telemetry export) for a fixed short
# budget. Plain `go test` already replays the seeds and any committed
# crashers; this target searches for new ones. A crasher is written under
# the package's testdata/fuzz/<target>/ and fails the target: commit it
# with its fix so every later `go test` replays it. New-coverage inputs are
# minimized for at most 2s, so the budget goes to fuzzing.
FUZZTIME := 20s
FUZZ_TARGETS := FuzzRead:./internal/runarchive FuzzDecodeTrace:./internal/scenario \
	FuzzReadStream:./internal/obs FuzzReadJSONL:./internal/tseries

fuzz:
	@for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t#*:}; \
		echo "== $$name $$pkg"; \
		$(GO) test -run "^$$name\$$" -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) \
			-fuzzminimizetime 2s $$pkg || exit 1; \
	done

# Run every example program end to end: `go build` cannot catch their
# runtime failure paths (a log.Fatal on an empty timeline or a failed run).
examples:
	@for d in examples/*/; do \
		echo "== $${d%/}"; \
		$(GO) run ./$${d%/} > /dev/null || exit 1; \
	done

# Deterministic chaos soak: drive the fault-injection engine, the hardening
# features, and the invariant checker under the race detector, then survive
# a full storm schedule end to end via the CLI.
chaos: lfm
	$(GO) test -race -count=1 -run 'Chaos|Resilience|Speculation|Heartbeat|Quarantine|Staging|KillDelay|CrashW|SlowWorker|ProvisionReject' ./internal/...
	$(LFM) bench -chaos-profile storm -seed 7

# Scheduler scale sweep in quick mode: measures the indexed matcher against
# the linear scan's counterfactual cost, byte-verifies identical output on
# the dual-run point AND between the calendar-queue and legacy-heap engines
# (the benchstat-style "engine ..." lines), writes BENCH_scheduler.json, and
# captures a CPU profile (CI uploads both as artifacts). Drop -quick to
# reproduce the committed full-size numbers, including the 1M-task point.
bench: lfm
	$(LFM) bench -scale -quick -scale-out BENCH_scheduler.json -cpuprofile BENCH_cpu.pprof

# Observability smoke: stream a seeded chaos run's snapshot bus to JSONL
# plus the unified summary, re-run it with the same seed and byte-compare
# the two streams (the determinism contract), then render the health
# report. CI uploads OBS_stream.jsonl as an artifact.
obs: lfm
	$(LFM) bench -chaos-profile storm -seed 7 \
		-obs-out OBS_stream.jsonl -summary-out OBS_summary.json
	$(LFM) bench -chaos-profile storm -seed 7 \
		-obs-out OBS_stream.rerun.jsonl -summary-out OBS_summary.rerun.json
	cmp OBS_stream.jsonl OBS_stream.rerun.jsonl
	cmp OBS_summary.json OBS_summary.rerun.json
	rm -f OBS_stream.rerun.jsonl OBS_summary.rerun.json
	$(LFM) report -allow-unhealthy OBS_stream.jsonl

# Open-loop serving sweep in quick mode: stream Poisson arrivals at
# fractions of cluster capacity through the admission-control frontend,
# verify the heaviest point is byte-deterministic on a same-seed re-run,
# and write BENCH_serving.json (CI uploads it as an artifact). Drop -quick
# for the full seven-point sweep.
serve: lfm
	$(LFM) bench -serve -quick -serve-out BENCH_serving.json

# Telemetry sweep in quick mode: record every paper workload under every
# strategy with resource time-series capture on, write the combined JSONL
# export (CI uploads it as an artifact), and render the profiles and node
# utilization timelines. Drop -quick for the full-size sweep.
profile: lfm
	$(LFM) bench -telemetry-sweep -quick -telemetry-out TELEMETRY_profile.jsonl
	$(LFM) prof TELEMETRY_profile.jsonl

# Scenario regression gate: run every canned scenario and fail on any
# invariant breach (writes SCENARIOS.json; CI uploads it as an artifact),
# then prove bit-exact replay on the diurnal-tenants scenario — record a
# trace, replay it with digest verification, record again and byte-compare
# the two trace files — and finally regenerate the scenario catalog
# (README.md) and regression table (EXPERIMENTS.md), failing on drift.
scenarios: lfm
	$(LFM) scenario run -all -json SCENARIOS.json
	$(LFM) scenario record diurnal-tenants -o SCENARIO_dt.trace
	$(LFM) scenario replay SCENARIO_dt.trace
	$(LFM) scenario record diurnal-tenants -o SCENARIO_dt.rerun.trace
	cmp SCENARIO_dt.trace SCENARIO_dt.rerun.trace
	rm -f SCENARIO_dt.trace SCENARIO_dt.rerun.trace
	$(LFM) scenario export -refresh
	git diff --exit-code README.md EXPERIMENTS.md SCENARIOS.json

# Differential regression gate: re-run every canned scenario and diff its
# archive against the committed baseline (baselines/NAME.lfma), failing on
# any metric regression beyond the noise thresholds. Writes the DiffReport
# JSON artifact and the markdown verdict table (CI uploads the former and
# posts the latter to the job summary). The second invocation is the
# gate's self-test: a deliberately perturbed run MUST fail with the
# verdict status 3, proving the gate can actually catch a regression (a
# crash or a usage error exits 1 or 2 and fails the target). After an
# intentional behaviour change, refresh with `lfm diff gate -refresh` and
# review the git diff (see baselines/README.md).
diff: lfm
	$(LFM) diff gate -json DIFF_report.json -md DIFF_report.md
	$(LFM) diff gate -perturb workers-halved -scenarios heavy-tail; \
	status=$$?; \
	if [ $$status -ne 3 ]; then echo "perturbed gate exited $$status, want 3"; exit 1; fi
