//go:build noasm || (!amd64 && !arm64)

package vec

import "unsafe"

// archKernels reports no SIMD kernels: either the build excluded assembly
// with `-tags noasm` or the architecture has no kernel implementation.
// The portable kernel carries the load.
func archKernels() []*kernel { return nil }

// PrefetchBlock is a no-op without assembly; see kernel_simd.go.
func PrefetchBlock([]unsafe.Pointer) {}

// halfsFromFloat32sArch converts nothing without assembly; see
// kernel_amd64.go.
func halfsFromFloat32sArch([]uint16, []float32) int { return 0 }
