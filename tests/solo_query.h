// One query hosted alone on its own SharedMedium, configured exactly as
// core::RunExperiment hosts it — for tests that inspect or steer a run
// between cycles (placements after Initiate, faults between RunCycles
// calls, scenario drivers attached to the medium's scheduler).

#ifndef ASPEN_TESTS_SOLO_QUERY_H_
#define ASPEN_TESTS_SOLO_QUERY_H_

#include "join/medium.h"
#include "workload/workload.h"

namespace aspen {
namespace testing_util {

struct SoloQuery {
  /// `workload` must outlive the SoloQuery.
  SoloQuery(const workload::Workload* workload,
            const join::ExecutorOptions& options)
      : medium(&workload->topology(), join::NetworkOptionsFor(options),
               join::SoloMediumOptions(*workload, options)),
        exec(*medium.AddQuery(workload, options)) {}

  Status RunCycles(int n) { return medium.RunCycles(n); }

  join::SharedMedium medium;
  join::JoinExecutor& exec;
};

}  // namespace testing_util
}  // namespace aspen

#endif  // ASPEN_TESTS_SOLO_QUERY_H_
