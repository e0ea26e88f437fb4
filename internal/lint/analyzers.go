package lint

// All returns the project's analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		WireStruct, PoolCheck, UseAfterRelease, KindSwitch,
		AtomicField, DeadlinePair, FrameKind,
	}
}
