module nxgraph/benchmark

go 1.24

require nxgraph v0.0.0

replace nxgraph => ../
