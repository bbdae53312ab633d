#include "parallel/cell_pool.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "common/env.hh"
#include "obs/span_trace.hh"

namespace bpsim::parallel {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

} // namespace

double
PoolStats::utilization() const
{
    const double capacity = wallMs * static_cast<double>(jobs);
    return capacity > 0.0 ? busyMs / capacity : 0.0;
}

void
PoolStats::publish(obs::MetricRegistry &reg,
                   const std::string &prefix) const
{
    reg.counter(prefix + ".cells_completed").set(cellsCompleted);
    reg.counter(prefix + ".runs").set(runs);
    reg.gauge(prefix + ".jobs").set(static_cast<double>(jobs));
    reg.gauge(prefix + ".max_queue_depth")
        .set(static_cast<double>(maxQueueDepth));
    reg.gauge(prefix + ".wall_ms").set(wallMs);
    reg.gauge(prefix + ".busy_ms").set(busyMs);
    reg.gauge(prefix + ".utilization").set(utilization());
    auto &hist = reg.histogram(prefix + ".cell_wall_ms");
    for (double ms : cellMs)
        hist.record(static_cast<std::uint64_t>(ms < 0.0 ? 0.0 : ms));
}

unsigned
hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
envJobs()
{
    return static_cast<unsigned>(envPositiveDecimal("BPSIM_JOBS"));
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const unsigned env = envJobs())
        return env;
    return hardwareJobs();
}

CellPool::CellPool(unsigned jobs, std::string label)
    : jobs_(resolveJobs(jobs)), label_(std::move(label))
{
    stats_.jobs = jobs_;
}

void
CellPool::runSerial(std::size_t count,
                    const std::function<void(std::size_t)> &compute,
                    const std::function<void(std::size_t)> &commit)
{
    for (std::size_t i = 0; i < count; ++i) {
        const auto t0 = Clock::now();
        {
            obs::SpanScope cellSpan("cell", label_, "cell", i);
            compute(i);
        }
        const double ms = msSince(t0);
        stats_.busyMs += ms;
        stats_.cellMs.push_back(ms);
        ++stats_.cellsCompleted;
        if (commit)
            commit(i);
    }
}

void
CellPool::run(std::size_t count,
              const std::function<void(std::size_t)> &compute,
              const std::function<void(std::size_t)> &commit)
{
    ++stats_.runs;
    const auto runStart = Clock::now();
    if (jobs_ <= 1 || count <= 1) {
        runSerial(count, compute, commit);
        stats_.wallMs += msSince(runStart);
        return;
    }

    if (count > jobs_)
        stats_.maxQueueDepth =
            std::max(stats_.maxQueueDepth, count - jobs_);

    struct Slot
    {
        bool ready = false; ///< guarded by mu
        double ms = 0.0;
        std::exception_ptr error;
    };
    std::vector<Slot> slots(count);
    std::mutex mu;
    std::condition_variable ready;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> cancel{false};

    auto workerLoop = [&] {
        for (;;) {
            if (cancel.load(std::memory_order_relaxed))
                return;
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            Slot s;
            const auto t0 = Clock::now();
            try {
                obs::SpanScope cellSpan("cell", label_, "cell", i);
                compute(i);
            } catch (...) {
                s.error = std::current_exception();
            }
            s.ms = msSince(t0);
            s.ready = true;
            {
                std::lock_guard<std::mutex> lock(mu);
                slots[i] = std::move(s);
            }
            ready.notify_all();
        }
    };

    std::vector<std::thread> workers;
    const std::size_t nThreads =
        std::min<std::size_t>(jobs_, count);
    workers.reserve(nThreads);
    for (std::size_t t = 0; t < nThreads; ++t)
        workers.emplace_back(workerLoop);

    // In-order committer: the calling thread waits for each cell in
    // index order, so rows/metrics/checkpoints land in exactly the
    // serial sequence no matter how the workers interleave.
    std::exception_ptr failure;
    for (std::size_t i = 0; i < count && !failure; ++i) {
        Slot s;
        {
            std::unique_lock<std::mutex> lock(mu);
            if (!slots[i].ready) {
                obs::SpanScope waitSpan("commit_wait", label_, "cell",
                                        i);
                ready.wait(lock, [&] { return slots[i].ready; });
            }
            s = std::move(slots[i]);
        }
        if (s.error) {
            failure = s.error;
            break;
        }
        stats_.busyMs += s.ms;
        stats_.cellMs.push_back(s.ms);
        ++stats_.cellsCompleted;
        if (commit) {
            try {
                commit(i);
            } catch (...) {
                failure = std::current_exception();
            }
        }
    }

    if (failure)
        cancel.store(true, std::memory_order_relaxed);
    for (auto &w : workers)
        w.join();
    stats_.wallMs += msSince(runStart);
    if (failure)
        std::rethrow_exception(failure);
}

} // namespace bpsim::parallel
