package engine

// EdgeChunkRanges and GatherChunkCost expose the run's gather-task
// chunker and its cost rule to the external test package, so
// placement-sensitive suites can aim at real chunk boundaries instead of
// guessing them.
var (
	EdgeChunkRanges = edgeChunkRanges
	GatherChunkCost = gatherChunkCost
)

// SpecialValues exposes the kernel-level special-value vector to the
// run-level suite in the external test package.
var SpecialValues = specialValues

// SetDelayGather installs the step pool's gather-delay hook (see
// delayGather), called with each gather task's source interval, for the
// suites in the external test package and returns the func that removes
// it again.
func SetDelayGather(f func(i int)) (restore func()) {
	delayGather = f
	return func() { delayGather = nil }
}

// SetChunkDsts sizes the gather tasks of runs created from now on (the
// default is 2048 destinations' cost), for the suites in the external
// test package that aim at chunk boundaries or small tasks, and returns
// the func that restores the size before.
func SetChunkDsts(n int) (restore func()) {
	old := chunkDsts
	chunkDsts = n
	return func() { chunkDsts = old }
}
