module rlnoc/benchmark

go 1.22

require rlnoc v0.0.0

// The benchmark times the simulator from outside but must reach its
// internal layers; sharing the "rlnoc/" import-path prefix lets a
// separate module do that, and keeps it out of the root module's
// `go build ./... && go test ./...`.
replace rlnoc => ../
