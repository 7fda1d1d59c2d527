//go:build !unix

package main

import "time"

// processCPU is unavailable without getrusage; runtime.cpu_ms_per_op
// then reads 0.
func processCPU() time.Duration { return 0 }
