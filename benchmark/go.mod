module vortex/benchmark

go 1.22

require vortex v0.0.0

replace vortex => ../
