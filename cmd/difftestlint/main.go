// Command difftestlint is the project's static-analysis suite — the
// wirestruct, poolcheck, useafterrelease, kindswitch, atomicfield,
// deadlinepair, and framekind analyzers from internal/lint — packaged as a
// go vet tool:
//
//	go build -o bin/difftestlint ./cmd/difftestlint
//	go vet -vettool=$(pwd)/bin/difftestlint ./...
//
// The go command runs it once per package, test files included, and fails
// on any file:line:col finding it prints. Run any other way, it prints a
// usage line and exits 2.
package main

import (
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(lint.RunVetTool(os.Args[0], os.Args[1:], os.Stdout, os.Stderr))
}
