package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestWireStruct(t *testing.T) {
	linttest.Run(t, "testdata/wirestruct", lint.WireStruct)
}

func TestPoolCheck(t *testing.T) {
	linttest.Run(t, "testdata/poolcheck", lint.PoolCheck)
}

func TestUseAfterRelease(t *testing.T) {
	linttest.Run(t, "testdata/useafterrelease", lint.UseAfterRelease)
}

func TestKindSwitch(t *testing.T) {
	linttest.Run(t, "testdata/kindswitch", lint.KindSwitch)
}

func TestAtomicField(t *testing.T) {
	linttest.Run(t, "testdata/atomicfield", lint.AtomicField)
}

func TestDeadlinePair(t *testing.T) {
	linttest.Run(t, "testdata/deadlinepair", lint.DeadlinePair)
}

func TestFrameKind(t *testing.T) {
	linttest.Run(t, "testdata/framekind", lint.FrameKind)
}

// TestAllAndByName: All lists the seven analyzers, each documented and
// addressable by a unique name (the name findings and //lint:ignore
// directives carry).
func TestAllAndByName(t *testing.T) {
	all := lint.All()
	if len(all) != 7 {
		t.Fatalf("All() = %d analyzers, want 7", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing Name, Doc, or Run", a)
		}
		if seen[a.Name] || a.Name == lint.DriverName {
			t.Errorf("analyzer name %q is not unique", a.Name)
		}
		seen[a.Name] = true
	}
}
