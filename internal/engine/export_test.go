package engine

// EdgeChunkRanges exposes the scalar run's task chunker to the external
// test package, so placement-sensitive suites can aim at real chunk
// boundaries instead of guessing them.
var EdgeChunkRanges = edgeChunkRanges
