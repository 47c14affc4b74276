#!/bin/sh
# Repo verification gate: vet, build everything, run the project's own
# static-analysis pass (raivet — clock/context/span/HTTP/concurrency
# invariants, see internal/lint), the full suite under the race
# detector, a one-iteration smoke of every benchmark so the perf
# harness (DESIGN.md §3, §11) can't rot, and the macro-benchmark
# harness's self-tests and quick smoke against the real daemons
# (DESIGN.md §12). Used by CI and before committing.
set -eux

go vet ./...
go build ./...
# The full static-analysis pass, with the suppression budget pinned to
# the current debt: adding a //lint:ignore now means paying one down or
# raising the number here in review.
go run ./cmd/raivet -max-ignores 4 ./...
# Concurrency checks over _test.go too — tests spawn the same
# goroutines production does, and a leaky test helper poisons -race
# runs for everyone.
go run ./cmd/raivet -tests -enable goroleak,lockcopy,wgadd ./...
go test -race ./...
# Five-second fuzz smokes of the two decoders that parse bytes a peer or
# a student controls: the brokerd frame codec and the upload manifest.
go test -run='^$' -fuzz='^FuzzBinaryDecode$' -fuzztime=5s ./internal/brokerd
go test -run='^$' -fuzz='^FuzzDecode$' -fuzztime=5s ./internal/cas
go test -run='^$' -bench=. -benchtime=1x .
# One-iteration smoke of the analysis benchmark: catches the engine
# regressing into re-type-checking per check (DESIGN.md §15).
go test -run='^$' -bench=BenchmarkRaivetFullTree -benchtime=1x ./internal/lint

# Macro-benchmark smoke, on the one harness a PR is accepted on: its
# self-tests (which also catch BENCHMARK.json drifting from the code's
# tables), then a quick pass that builds and boots the six real
# binaries and output-checks every job. The harness exits 0 even when
# jobs fail, so read its per-workload "jobs N attempted, M failed"
# lines: every workload must have run jobs and failed none. This is
# where flag or wire drift between the daemons and the harness surfaces.
# (xtrace is off around the capture: it would echo the report twice.)
go -C benchmark/.harness test ./...
set +x
smoke=$(go -C benchmark/.harness run . -quick)
jobs=$(echo "$smoke" | grep ' attempted, ')
set -x
echo "$jobs"
if echo "$jobs" | grep -qv ' jobs [1-9][0-9]* attempted, 0 failed$'; then
	echo "verify: benchmark smoke: a workload ran no job or failed some" >&2
	exit 1
fi

# The SLO engine is the one package whose races would lie to operators
# (Observe/Evaluate/Export run concurrently in the collector): race it
# twice on top of the full -race pass above.
go test -race -count=2 ./internal/slo/
