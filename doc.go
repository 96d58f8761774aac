// Package repro reproduces Gerstlauer, Yu and Gajski, "RTOS Modeling for
// System Level Design" (DATE 2003): an abstract RTOS model layered on a
// system-level design language's simulation kernel, the refinement flow
// from unscheduled specification models to RTOS-based architecture
// models, and the paper's evaluation (the GSM vocoder of Table 1 and the
// simulation traces of Figure 8).
//
// The root package carries the repository's benchmark suite; the library
// lives under internal/ (see README.md for the architecture overview and
// DESIGN.md for the per-experiment index):
//
//	internal/sim      discrete-event SLDL simulation kernel (substrate)
//	internal/core     the RTOS model — the paper's contribution
//	internal/channel  communication library (spec- and RTOS-level)
//	internal/refine   specification model & dynamic-scheduling refinement
//	internal/arch     PEs, buses, interrupts, inter-PE links
//	internal/trace    trace recording, analysis and rendering
//	internal/iss      toy DSP instruction-set simulator
//	internal/ukernel  micro-RTOS for the implementation model
//	internal/vocoder  the Table 1 application in all three models
//	internal/sdl      textual model frontend; embeds the Figure 3 and JPEG models
//	internal/workload task-set generation for scheduling experiments
package repro
