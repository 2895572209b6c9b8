/**
 * @file
 * A fixed-size worker pool with a task queue and futures, used by the
 * experiment harness to fan independent (workload x policy)
 * simulations across cores. Tasks are plain callables; results and
 * exceptions travel back through std::future, so a worker that throws
 * surfaces the exception at the caller's get().
 */

#ifndef GLIDER_COMMON_THREAD_POOL_HH
#define GLIDER_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "cancellation.hh"

namespace glider {

/** Fixed-size thread pool; FIFO task queue; future-based results. */
class ThreadPool
{
  public:
    /** @param threads Worker count; 0 is clamped to 1. */
    explicit ThreadPool(unsigned threads = defaultThreads())
    {
        if (threads == 0)
            threads = 1;
        workers_.reserve(threads);
        for (unsigned i = 0; i < threads; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool() { shutdown(); }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned
    size() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Queue @p fn for execution; its return value (or exception) is
     * delivered through the returned future.
     * @throws std::runtime_error if the pool has been shut down.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_)
                throw std::runtime_error(
                    "ThreadPool::submit after shutdown");
            queue_.emplace([task] { (*task)(); });
            submitted_.fetch_add(1, std::memory_order_relaxed);
            std::size_t depth = queue_.size();
            std::size_t peak =
                peak_queue_.load(std::memory_order_relaxed);
            while (depth > peak
                   && !peak_queue_.compare_exchange_weak(
                       peak, depth, std::memory_order_relaxed))
                ;
        }
        cv_.notify_one();
        return fut;
    }

    /** Tasks ever submitted (telemetry). */
    std::uint64_t
    submitted() const
    {
        return submitted_.load(std::memory_order_relaxed);
    }

    /** Tasks that finished running (telemetry). */
    std::uint64_t
    completed() const
    {
        return completed_.load(std::memory_order_relaxed);
    }

    /** High-water mark of tasks waiting in the queue (telemetry). */
    std::size_t
    peakQueueDepth() const
    {
        return peak_queue_.load(std::memory_order_relaxed);
    }

    /**
     * Stop accepting tasks, run everything still queued, and join the
     * workers. Idempotent; called by the destructor.
     */
    void
    shutdown()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_)
                return;
            stopping_ = true;
        }
        cv_.notify_all();
        for (auto &w : workers_) {
            if (w.joinable())
                w.join();
        }
    }

    /**
     * Pool-wide cancellation token. Cancelling it does not drop
     * queued tasks (their futures stay valid); tasks that poll the
     * token — directly or through a chained per-cell child — observe
     * the request and unwind cooperatively.
     */
    const CancelToken &token() const { return cancel_; }

    /** Request cooperative cancellation of every polling task. */
    void cancel() { cancel_.cancel(); }

    /** Hardware concurrency, falling back to 1 when unknown. */
    static unsigned
    defaultThreads()
    {
        unsigned hw = std::thread::hardware_concurrency();
        return hw ? hw : 1;
    }

  private:
    void
    workerLoop()
    {
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock,
                         [this] { return stopping_ || !queue_.empty(); });
                if (queue_.empty())
                    return; // stopping_ and drained
                task = std::move(queue_.front());
                queue_.pop();
            }
            task(); // packaged_task captures any exception
            completed_.fetch_add(1, std::memory_order_relaxed);
        }
    }

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::queue<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    bool stopping_ = false;
    std::atomic<std::uint64_t> submitted_{0}; // glider-mo: counter-relaxed
    std::atomic<std::uint64_t> completed_{0}; // glider-mo: counter-relaxed
    std::atomic<std::size_t> peak_queue_{0};  // glider-mo: counter-relaxed
    CancelToken cancel_;
};

} // namespace glider

#endif // GLIDER_COMMON_THREAD_POOL_HH
