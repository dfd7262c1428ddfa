// Measurements taken from outside the program: process, thread and host
// CPU time, peak memory, and timed calls into the graph and tensor layers.

#ifndef SERVEBENCH_PROBES_H_
#define SERVEBENCH_PROBES_H_

#include <cstdint>

#include "src/graph/cell_registry.h"

namespace servebench {

double ProcessCpuSeconds();
double ThreadCpuSeconds();  // the calling thread

// CPU seconds of the Server's threads, by the names it gives them
// ("manager/N", "worker/N-stager", "worker/N-exec"); `other` is every other
// thread of the process. Read from /proc/self/task.
struct ThreadCpu {
  double manager = 0.0;
  double stager = 0.0;
  double exec = 0.0;
  double other = 0.0;
};
ThreadCpu ReadThreadCpu();
ThreadCpu operator-(const ThreadCpu& a, const ThreadCpu& b);

// Host CPU time in clock ticks from /proc/stat: steal and the total of all
// states.
struct HostCpu {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostCpu ReadHostCpu();

// Peak resident set of this process, MB, since the last ResetPeakRss.
double PeakRssMb();
// Returns freed heap memory to the system and restarts the peak count
// (writes "5" to /proc/self/clear_refs; without it the peak is the
// process's lifetime peak).
void ResetPeakRss();

// One cell type executed from outside the Server at a fixed batch: the
// median time of CellExecutor::Execute and of the MatMulPacked calls of
// the cell's weight matrices, microseconds per call.
struct CellProbe {
  double cell_us = 0.0;
  double gemm_us = 0.0;
};
CellProbe ProbeCell(const batchmaker::CellRegistry& registry, batchmaker::CellTypeId type,
                    int batch);

}  // namespace servebench

#endif  // SERVEBENCH_PROBES_H_
