// The benchmark is a module of its own so it builds with its own file and
// stays out of the main module's ./... patterns. Its import path sits under
// repro/, which is what lets it import repro/internal/... through the
// replace below.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
