/**
 * @file
 * The compute-once store behind the warm-snapshot and baseline caches:
 * concurrent callers of one key share one computation, and a failed
 * computation reaches every waiter and is then forgotten.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/compute_once.hh"

namespace oscar
{
namespace
{

TEST(ComputeOnce, ConcurrentCallersShareOneComputation)
{
    ComputeOnce<int> store;
    std::atomic<int> runs{0};
    std::vector<int> seen(8, 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t) {
        threads.emplace_back([&, t] {
            seen[t] = store.get(t % 2 ? "odd" : "even", [&] {
                ++runs;
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                return t % 2 ? 1 : 2;
            });
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(runs.load(), 2);
    for (std::size_t t = 0; t < seen.size(); ++t)
        EXPECT_EQ(seen[t], t % 2 ? 1 : 2) << "thread " << t;
    EXPECT_EQ(store.size(), 2u);
    store.erase("odd");
    EXPECT_EQ(store.size(), 1u);
    store.clear();
    EXPECT_EQ(store.size(), 0u);
}

TEST(ComputeOnce, FailedComputationIsRetried)
{
    ComputeOnce<std::string> store;
    EXPECT_THROW(store.get("k",
                           []() -> std::string {
                               throw std::runtime_error("cold");
                           }),
                 std::runtime_error);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.get("k", [] { return std::string("warm"); }), "warm");
    EXPECT_EQ(store.get("k", [] { return std::string("other"); }), "warm");
}

} // namespace
} // namespace oscar
