package main

import "testing"

// BenchmarkExabench runs exabench's benchmark list under go test, one
// sub-benchmark per entry:
//
//	go test -run '^$' -bench . -benchmem ./cmd/exabench
func BenchmarkExabench(b *testing.B) {
	for _, c := range exhibitBenches() {
		b.Run(c.name, c.fn)
	}
}
