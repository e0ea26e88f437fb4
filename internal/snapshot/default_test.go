package snapshot

import (
	"testing"

	"repro/internal/event"
)

// TestAppendStateNonSnapshotKinds pins the default arm added for kindswitch
// exhaustiveness: every non-snapshot kind encodes nothing and reports false,
// every snapshot kind encodes exactly its wire size.
func TestAppendStateNonSnapshotKinds(t *testing.T) {
	m := machine()
	snapshotKinds := make(map[event.Kind]bool, len(SnapshotKinds))
	for _, k := range SnapshotKinds {
		snapshotKinds[k] = true
	}
	dst := []byte{0xEE}
	for k := event.Kind(0); k < event.NumKinds; k++ {
		got, ok := AppendState(k, m, dst)
		if snapshotKinds[k] {
			if !ok || len(got) != 1+event.SizeOf(k) {
				t.Errorf("AppendState(%v) = (%dB, %v), want %dB appended", k, len(got)-1, ok, event.SizeOf(k))
			}
		} else if ok || len(got) != 1 {
			t.Errorf("AppendState(%v) = (%dB, %v), want nothing for a non-snapshot kind", k, len(got)-1, ok)
		}
	}
}
