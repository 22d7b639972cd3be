// Host-speed calibration for the end-to-end benchmark.
//
// The benchmark runs on shared hosts whose speed drifts by tens of percent
// for minutes at a time: process CPU time tracks wall time, so the host is
// not stealing time, it runs the same instructions slower.  A figure timed
// on the host therefore moves with the host as much as with the program.
//
// A calibration pass is a fixed piece of work that uses the host the way BMX
// does but runs none of BMX's code, so a change to BMX cannot change it.
// Half of it is cache-resident work on the kinds of structures BMX uses (hash
// maps, ordered maps, small vectors, allocation, block copies, a sort); the
// other half is first-touch page faults, which a growing heap pays and whose
// cost on a shared host drifts differently from that of plain instructions.
// The driver times a few passes after every episode; the pass's median time
// over a round, against its nominal time, says how fast the host ran then.

#ifndef PERFBENCH_CALIB_H_
#define PERFBENCH_CALIB_H_

#include <cstdint>

namespace perfbench {

// Seconds one pass takes: about its median on the 4-core VM the benchmark was
// written on.  Host-timed figures are scaled to this speed.
constexpr double kNominalPassS = 0.006;

// Wall seconds of one pass.
double TimeCalibrationPass();

}  // namespace perfbench

#endif  // PERFBENCH_CALIB_H_
