// The benchmark is a module of its own so that it builds from its own
// directory and the repository's `go build ./... && go test ./...` never
// depends on it. The import path stays under repro/ so the benchmark may
// use the repository's internal packages.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
