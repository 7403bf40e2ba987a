// Machine probe and provenance recorded with every result.
#pragma once

#include <string>

namespace perfbench {

/// Single-thread FMA-loop probe of this core's peak GFLOP/s with the widest
/// vector ISA it supports (best of several short rounds).
double peak_gflops();
/// Widest vector ISA detected at run time, e.g. "avx512f+avx2+fma".
std::string detected_isa();
/// Cumulative CPU time of the whole machine, in /proc/stat ticks.
struct CpuTimes {
  unsigned long long total = 0;
  unsigned long long steal = 0;  ///< taken by the hypervisor from this VM
};
/// Zeros where /proc/stat is unavailable.
CpuTimes cpu_times();
/// Percent of the CPU time between two readings that was stolen: how much
/// outside load slowed the run, recorded with every result.
double steal_pct(const CpuTimes& from, const CpuTimes& to);

/// Peak resident set of this process so far, MB.
double peak_rss_mb();
int nproc();

}  // namespace perfbench
