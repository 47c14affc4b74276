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
# Every tracked Go file is gofmt-clean, apart from the lint fixtures
# (internal/lint/testdata plants defects on purpose) and the benchmark
# harness, which changes only with the benchmark.
unformatted=$(gofmt -l $(git ls-files '*.go' ':!internal/lint/testdata' ':!benchmark'))
if [ -n "$unformatted" ]; then
	echo "verify: not gofmt-clean: $unformatted" >&2
	exit 1
fi
# The release targets include darwin and windows, and the client's stat
# index reads per-OS stat data: keep both cross builds compiling.
GOOS=darwin go build -o /dev/null ./cmd/rai
GOOS=windows go build -o /dev/null ./cmd/rai
# The full static-analysis pass, with the suppression budget pinned to
# the current debt: adding a //lint:ignore now means paying one down or
# raising the number here in review.
go run ./cmd/raivet -max-ignores 2 ./...
# Concurrency checks over _test.go too — tests spawn the same
# goroutines production does, and a leaky test helper poisons -race
# runs for everyone. (Copied locks in tests are go vet's: the first
# line vets _test.go files as well.)
go run ./cmd/raivet -tests -enable goroleak,wgadd ./...
go test -race ./...
# Five-second fuzz smokes of the eleven decoders that parse bytes a
# peer, a student or a damaged disk controls: the brokerd frame codec,
# the upload manifest, the client's stat index, the rai-build.yml the
# worker's admit stage parses, the h5lite data files a student's
# command line names, the telemetry batches any client may publish,
# raidb's RPC bodies and its journal, both ends of raifs's /cas/ routes
# (the upload and fetch handlers, and the client's frame reader), and the .tar.bz2
# archives the grading downloader unpacks. Minimization is capped at 100
# runs per new input: uncapped, once the cached corpus has grown a run
# spends its time minimizing (FuzzCASHandler, -parallel=1, 44 cached
# entries: 0 execs/s from the third second of 12 uncapped, ~2,000/s
# capped).
go test -run='^$' -fuzz='^FuzzBinaryDecode$' -fuzztime=5s -fuzzminimizetime=100x ./internal/brokerd
go test -run='^$' -fuzz='^FuzzDecode$' -fuzztime=5s -fuzzminimizetime=100x ./internal/cas
go test -run='^$' -fuzz='^FuzzDirIndex$' -fuzztime=5s -fuzzminimizetime=100x ./internal/cas
go test -run='^$' -fuzz='^FuzzParse$' -fuzztime=5s -fuzzminimizetime=100x ./internal/build
go test -run='^$' -fuzz='^FuzzDecode$' -fuzztime=5s -fuzzminimizetime=100x ./internal/h5lite
go test -run='^$' -fuzz='^FuzzDecodeBatch$' -fuzztime=5s -fuzzminimizetime=100x ./internal/telemetry
go test -run='^$' -fuzz='^FuzzHandler$' -fuzztime=5s -fuzzminimizetime=100x ./internal/docstore
go test -run='^$' -fuzz='^FuzzJournal$' -fuzztime=5s -fuzzminimizetime=100x ./internal/docstore
go test -run='^$' -fuzz='^FuzzReadChunkFrames$' -fuzztime=5s -fuzzminimizetime=100x ./internal/objstore
go test -run='^$' -fuzz='^FuzzCASHandler$' -fuzztime=5s -fuzzminimizetime=100x ./internal/objstore
go test -run='^$' -fuzz='^FuzzUnpackVFS$' -fuzztime=5s -fuzzminimizetime=100x ./internal/archivex
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
