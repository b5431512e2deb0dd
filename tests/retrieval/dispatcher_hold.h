#ifndef SDTW_TESTS_RETRIEVAL_DISPATCHER_HOLD_H_
#define SDTW_TESTS_RETRIEVAL_DISPATCHER_HOLD_H_

/// \file dispatcher_hold.h
/// \brief Test helper that holds a QueryService's dispatcher inside a
/// decoy batch, so that requests submitted meanwhile all queue up before
/// the dispatcher cuts its next batch.
///
/// The default dispatch is work-conserving: a request that finds the
/// dispatcher idle is cut at once, alone. A test that needs several
/// requests to meet in the queue (to observe EDF order, or how requests
/// that arrive during a scan are batched) first occupies the dispatcher
/// with a decoy whose scan stalls at the kFaultSiteWorkerStall site
/// (~25 ms). A test thread descheduled for longer than that misses the
/// hold. Held() detects this, and the test then reruns its scenario on a
/// fresh service, at most kHoldAttempts times.

#include <cstddef>
#include <future>
#include <string_view>

#include "core/fault_injector.h"
#include "retrieval/service.h"
#include "ts/time_series.h"

namespace sdtw {
namespace retrieval {

/// Attempts a held scenario gets before its test fails.
inline constexpr int kHoldAttempts = 5;

/// What a test reports when none of its attempts held.
inline constexpr std::string_view kNeverHeld =
    "no attempt held the dispatcher: each time, a request was cut before "
    "the test thread had queued the rest";

class DispatcherHold {
 public:
  /// Arms kFaultSiteWorkerStall for one draw, so one worker sleeps inside
  /// the decoy's scan, submits `decoy` and waits until it has been cut.
  /// `service` must not have cut a batch yet.
  DispatcherHold(QueryService& service, const ts::TimeSeries& decoy,
                 std::size_t k);

  DispatcherHold(const DispatcherHold&) = delete;
  DispatcherHold& operator=(const DispatcherHold&) = delete;

  /// True while the decoy is the only batch cut so far. Called after a
  /// scenario's last Submit, it shows that every request of the scenario
  /// was queued before the dispatcher cut its next batch, so the queue
  /// order and the cut rule alone decide what happens next.
  bool Held() const;

  std::future<QueryService::Result>& decoy() { return decoy_; }

 private:
  QueryService& service_;
  core::ScopedFault stall_;
  std::future<QueryService::Result> decoy_;
};

}  // namespace retrieval
}  // namespace sdtw

#endif  // SDTW_TESTS_RETRIEVAL_DISPATCHER_HOLD_H_
