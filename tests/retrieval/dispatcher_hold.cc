#include "dispatcher_hold.h"

#include <chrono>
#include <gtest/gtest.h>
#include <thread>
#include <utility>

namespace sdtw {
namespace retrieval {

DispatcherHold::DispatcherHold(QueryService& service,
                               const ts::TimeSeries& decoy, std::size_t k)
    : service_(service),
      stall_(kFaultSiteWorkerStall,
             core::FaultInjector::SiteConfig{1.0, 0, /*max_failures=*/1}) {
  auto submitted = service_.Submit(decoy, k);
  EXPECT_TRUE(submitted.has_value()) << "the decoy was not admitted";
  if (!submitted.has_value()) return;  // Held() stays false
  decoy_ = std::move(*submitted);
  // Bounded, so a dispatcher that never cuts fails the test instead of
  // hanging it: Held() then reads 0 batches.
  using Clock = std::chrono::steady_clock;
  const auto give_up = Clock::now() + std::chrono::seconds(10);
  while (service_.metrics().batches == 0 && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

bool DispatcherHold::Held() const { return service_.metrics().batches == 1; }

}  // namespace retrieval
}  // namespace sdtw
