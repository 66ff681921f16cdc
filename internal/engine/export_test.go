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
