//go:build !go1.23

package sim

// The kernel's processes run on runtime coroutines (iter.Pull, see
// carrier.go), which Go 1.23 introduced. On an older toolchain this
// reference fails the build with the requirement in the error message,
// next to the undefined getCarrier that carrier.go's absence leaves.
var _ = sim_kernel_requires_go1_23_or_newer
