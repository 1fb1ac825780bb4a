#include "exec/thread_pool.hh"

#include <algorithm>
#include <chrono>

#include "common/check.hh"
#include "common/logging.hh"
#include "obs/tracer.hh"

namespace genesys::exec
{

namespace
{

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

int
ThreadPool::resolveThreads(int requested)
{
    if (requested > 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max(1, static_cast<int>(hw));
}

ThreadPool::ThreadPool(int threads)
{
    const int n = resolveThreads(threads);
    threads_.reserve(static_cast<std::size_t>(n - 1));
    for (int w = 1; w < n; ++w)
        threads_.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    // An owner that unwinds past an open job still gets its items
    // run to completion before the workers go away.
    if (jobOpen())
        join();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto &t : threads_)
        t.join();
}

bool
ThreadPool::claim(std::size_t &item)
{
    // Never step the cursor past the published count: a worker that
    // raced ahead would otherwise own an index whose payload the
    // publisher has not written yet.
    std::size_t c = cursor_.load(std::memory_order_relaxed);
    while (c < published_.load(std::memory_order_acquire)) {
        if (cursor_.compare_exchange_weak(c, c + 1,
                                          std::memory_order_relaxed)) {
            item = c;
            return true;
        }
    }
    return false;
}

void
ThreadPool::drain(int worker)
{
    // Worker ids are dense: 0 is the caller, 1..threads_.size() the
    // spawned workers. Telemetry timelines and per-worker scratch
    // arrays are indexed by this id.
    GENESYS_DCHECK(worker >= 0 && static_cast<std::size_t>(worker) <=
                                      threads_.size(),
                   "drain called with worker id " << worker << ", pool"
                   " has " << threads_.size() + 1 << " workers");
    // jobBody_ is written under the mutex before jobId_ advances and
    // read here after observing that advance (or, for the caller, in
    // its own posting frame), so the reads are ordered.
    std::size_t item = 0;
    for (;;) {
        if (claim(item)) {
            // Two clock reads per run of claims — never per item, so
            // the accounting stays off the episode hot loop. The span
            // is the worker-timeline backbone in chrome://tracing; a
            // null tracer reduces it to one predicted branch.
            obs::Span span("pool.drain", "pool", worker);
            const uint64_t t0 = nowNs();
            do {
                jobBody_(item, worker);
            } while (claim(item));
            busyNs_.fetch_add(nowNs() - t0, std::memory_order_relaxed);
        }
        std::unique_lock<std::mutex> lock(mutex_);
        const auto claimable = [&] {
            return cursor_.load(std::memory_order_relaxed) <
                   published_.load(std::memory_order_relaxed);
        };
        // Only spawned workers wait here: the caller drains after
        // closing the job.
        if (open_ && !claimable()) {
            const uint64_t w0 = nowNs();
            more_.wait(lock, [&] { return !open_ || claimable(); });
            waitNs_.fetch_add(nowNs() - w0, std::memory_order_relaxed);
        }
        if (!claimable())
            return; // closed, and every published item claimed
    }
}

void
ThreadPool::workerLoop(int worker)
{
    // Label this worker's timeline row up front (no-op without an
    // installed tracer), so even a worker that a short run never
    // hands an item to shows up named in the trace. The caller
    // thread keeps whatever name it claimed first ("main" under a
    // telemetry session).
    obs::nameThisThread("pool-worker", worker);
    std::size_t last_job = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            const uint64_t w0 = nowNs();
            wake_.wait(lock, [&] {
                return stopping_ || jobId_ != last_job;
            });
            waitNs_.fetch_add(nowNs() - w0,
                              std::memory_order_relaxed);
            if (stopping_)
                return;
            last_job = jobId_;
            ++busyWorkers_;
        }
        // A worker that wakes after the job already drained simply
        // claims no items; jobBody_ stays valid until the next post.
        drain(worker);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--busyWorkers_ == 0)
                done_.notify_all();
        }
    }
}

void
ThreadPool::start(std::function<void(std::size_t, int)> body,
                  std::size_t published, bool open)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        GENESYS_ASSERT(!open_, "ThreadPool runs one job at a time: "
                               "join the open job first");
        // A worker that woke late for the *previous* job may still be
        // inside drain() (claiming no items, since that job is closed
        // and exhausted). Wait for it before touching job state, so
        // jobBody_ is never written while any worker reads it.
        done_.wait(lock, [&] { return busyWorkers_ == 0; });
        jobBody_ = std::move(body);
        cursor_.store(0, std::memory_order_relaxed);
        published_.store(published, std::memory_order_relaxed);
        open_ = open;
        ++jobId_;
    }
    if (!threads_.empty())
        wake_.notify_all();
}

void
ThreadPool::finish()
{
    // The caller participates as worker 0.
    drain(0);

    // Every item is claimed here; wait for the workers still
    // executing theirs. (A worker that never woke for this job can
    // still register later — it claims no items, and start()'s wait
    // keeps it from racing the next job's state.)
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return busyWorkers_ == 0; });
    GENESYS_DCHECK(cursor_.load(std::memory_order_relaxed) >=
                       published_.load(std::memory_order_relaxed),
                   "job finished with unclaimed items: cursor "
                       << cursor_.load(std::memory_order_relaxed)
                       << " < published "
                       << published_.load(std::memory_order_relaxed));
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t, int)> &body)
{
    if (count == 0)
        return;
    start(body, count, /*open=*/false);
    finish();
}

void
ThreadPool::beginJob(std::function<void(std::size_t, int)> body)
{
    start(std::move(body), 0, /*open=*/true);
}

void
ThreadPool::publish(std::size_t n)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        GENESYS_ASSERT(open_, "publish() without an open job");
        published_.fetch_add(n, std::memory_order_release);
    }
    if (n == 1)
        more_.notify_one();
    else
        more_.notify_all();
}

void
ThreadPool::join()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        GENESYS_ASSERT(open_, "join() without an open job");
        open_ = false;
    }
    more_.notify_all();
    finish();
}

bool
ThreadPool::jobOpen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return open_;
}

} // namespace genesys::exec
