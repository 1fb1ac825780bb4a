/**
 * @file
 * Persistent worker-thread pool for the evaluation engine. The pool
 * runs one job at a time: a body applied to an index space whose
 * items workers claim through an atomic cursor. A job is either a
 * fixed range (parallelFor) or asynchronous — items are published
 * over time while the caller does other work, and the caller joins
 * at the end (beginJob / publish / join). The calling thread
 * participates as worker 0 when it joins, so a single-threaded pool
 * runs every item inline, and results are written by item index so
 * the outcome is independent of scheduling.
 */

#ifndef GENESYS_EXEC_THREAD_POOL_HH
#define GENESYS_EXEC_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace genesys::exec
{

/**
 * A fixed-size pool of persistent worker threads. Workers sleep on a
 * condition variable between jobs; a job is a body plus a published
 * item count, and every worker claims items from a shared atomic
 * cursor until the job is closed and every published item claimed.
 */
class ThreadPool
{
  public:
    /**
     * @param threads total worker count including the caller
     *        (so `threads - 1` OS threads are spawned).
     *        0 selects std::thread::hardware_concurrency().
     */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total workers, including the calling thread. */
    int size() const { return static_cast<int>(threads_.size()) + 1; }

    /**
     * Run `body(item, worker)` for every item in [0, count). Blocks
     * until all items complete. `worker` is in [0, size()) and is
     * stable for the duration of one item — use it to index
     * per-worker shards (environments, scratch buffers). Not
     * reentrant: one parallelFor at a time.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t item,
                                              int worker)> &body);

    /**
     * Open an asynchronous job: `body(item, worker)` runs once for
     * every item later made claimable by publish(), on the spawned
     * workers while the caller goes on with other work. Items are
     * numbered 0, 1, ... in publication order. Whatever `body` reads
     * for an item must be written before that item is published.
     * One job at a time: parallelFor and beginJob both require that
     * no job is open.
     */
    void beginJob(std::function<void(std::size_t item, int worker)> body);

    /** Make the next `n` items of the open job claimable. */
    void publish(std::size_t n = 1);

    /**
     * Close the open job: the caller runs every published item no
     * worker has claimed yet (all of them on a single-threaded pool),
     * then waits for the items still in flight on other workers.
     */
    void join();

    /** Is an asynchronous job open (begun and not yet joined)? */
    bool jobOpen() const;

    /** Resolve a requested thread count (0 -> hardware concurrency). */
    static int resolveThreads(int requested);

    /**
     * Aggregate nanoseconds all workers (the caller included) spent
     * inside job bodies, since construction. Accounted per run of
     * back-to-back claims — two clock reads around each run, never
     * per item — so the accounting itself stays off the hot path; a
     * worker waiting for an open job's next item is not busy. With
     * the generation wall clock this yields the barrier-idle
     * fraction: 1 - busyNs / (wall * size()).
     */
    uint64_t busyNs() const
    {
        return busyNs_.load(std::memory_order_relaxed);
    }

    /**
     * Aggregate nanoseconds spawned workers spent parked, between
     * jobs or waiting for an open job's next item (condition-variable
     * waits). The caller thread is not counted — its between-job time
     * is the serial phases.
     */
    uint64_t waitNs() const
    {
        return waitNs_.load(std::memory_order_relaxed);
    }

  private:
    void workerLoop(int worker);
    /** Install a job with `published` items claimable up front. */
    void start(std::function<void(std::size_t, int)> body,
               std::size_t published, bool open);
    /** Worker 0's drain, then wait until no worker is in the job. */
    void finish();
    /**
     * Claim and run items until the job is closed and exhausted. Each
     * run of claims is one "pool.drain" span and one busy interval;
     * between runs an open job's worker parks until more items are
     * published.
     */
    void drain(int worker);
    /** Claim the next published item, if any. Lock-free. */
    bool claim(std::size_t &item);

    std::vector<std::thread> threads_;

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;

    /** Signalled when an open job publishes items or closes. */
    std::condition_variable more_;
    bool stopping_ = false;

    /** Monotonic job id: a worker runs each job at most once. */
    std::size_t jobId_ = 0;
    /** Owned (not pointed-to) so late-waking workers see a live object. */
    std::function<void(std::size_t, int)> jobBody_;
    /** Items claimable so far; grows while the job is open. */
    std::atomic<std::size_t> published_{0};
    std::atomic<std::size_t> cursor_{0};
    /** May more items still be published? Guarded by mutex_. */
    bool open_ = false;
    int busyWorkers_ = 0;

    std::atomic<uint64_t> busyNs_{0};
    std::atomic<uint64_t> waitNs_{0};
};

} // namespace genesys::exec

#endif // GENESYS_EXEC_THREAD_POOL_HH
