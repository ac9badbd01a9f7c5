/**
 * @file
 * A thread-safe compute-once store: the first caller for a key runs
 * the computation, concurrent callers for the same key block on its
 * result, and a computation that throws is forgotten so a later call
 * retries instead of replaying the failure.
 */

#ifndef OSCAR_SIM_COMPUTE_ONCE_HH_
#define OSCAR_SIM_COMPUTE_ONCE_HH_

#include <cstddef>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <string>

namespace oscar
{

/** Values computed at most once per key, shared by every caller. */
template <typename Value>
class ComputeOnce
{
  public:
    /**
     * The value stored under `key`, computing it with `compute()` on
     * the calling thread if no caller has yet. The computation runs
     * unlocked; its exception propagates to every waiter.
     */
    template <typename Compute>
    Value
    get(const std::string &key, Compute &&compute)
    {
        std::promise<Value> promise;
        std::shared_future<Value> future;
        bool first = false;
        {
            std::lock_guard<std::mutex> lock(mutex);
            auto [it, fresh] = entries.try_emplace(key);
            if (fresh)
                it->second = promise.get_future().share();
            future = it->second;
            first = fresh;
        }
        if (first) {
            try {
                promise.set_value(compute());
            } catch (...) {
                promise.set_exception(std::current_exception());
                erase(key);
            }
        }
        return future.get();
    }

    /** Forget the value stored under `key`, if any. */
    void
    erase(const std::string &key)
    {
        std::lock_guard<std::mutex> lock(mutex);
        entries.erase(key);
    }

    /** Forget every value. */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex);
        entries.clear();
    }

    /** Values stored or being computed. */
    std::size_t
    size()
    {
        std::lock_guard<std::mutex> lock(mutex);
        return entries.size();
    }

  private:
    std::mutex mutex;
    std::map<std::string, std::shared_future<Value>> entries;
};

} // namespace oscar

#endif // OSCAR_SIM_COMPUTE_ONCE_HH_
